"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (trial
factorization, term-by-term summation, entry-by-entry loops in exact
integer arithmetic) so that agreement with the fast library code is
meaningful.
"""

import cmath
import math

import numpy as np

from qcatmap import gauss
from qcatmap.phases import TWO_PI, e_frac, e_frac_array
from qcatmap.propagator import Report, _fits_kernel, h_phase
from qcatmap.suites import GAUSS_ORACLE_TOL, GAUSS_VANISH_TOL


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def legendre(q: int, p: int) -> int:
    """Legendre symbol by Euler's criterion; p an odd prime."""
    q %= p
    if q == 0:
        return 0
    e = pow(q, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def jacobi_reference(q: int, r: int) -> int:
    """Jacobi symbol via factorization of the odd bottom entry r >= 1."""
    if r < 1 or r % 2 == 0:
        raise ValueError("bottom entry must be odd and positive")
    result = 1
    for p, e in factorize(r).items():
        result *= legendre(q, p) ** e
    return result


def gauss_reference(alpha: int, beta: int, gamma: int) -> complex:
    """Average of e((alpha k^2 + gamma k)/(2 beta)) over a full period.

    Numerators are reduced mod the period before exponentiating so the
    result is accurate to roundoff even where the sum cancels exactly.
    """
    if beta == 0:
        raise ValueError("beta must be nonzero")
    period = 2 * abs(beta)
    s = 1 if beta > 0 else -1
    total = 0j
    for k in range(period):
        num = (s * (alpha * k * k + gamma * k)) % period
        total += cmath.exp(2j * cmath.pi * num / period)
    return total / (2.0 * math.sqrt(abs(beta)))


def e_frac_array_reference(num, den: int) -> np.ndarray:
    """e(num/den) with one complex exp per numerator."""
    if den < 0:
        num, den = -num, -den
    return np.exp(2j * np.pi * ((num % den) / den))


def gauss_oracle_sweep_reference(max_abs: int = 40,
                                 oracle_tol: float = GAUSS_ORACLE_TOL,
                                 vanish_tol: float = GAUSS_VANISH_TOL) -> Report:
    """The gauss-oracle sweep with one complex exp per term of every direct
    sum (2|beta| * (2 max_abs + 1) per alpha and beta)."""
    gammas = np.arange(-max_abs, max_abs + 1)
    max_oracle = 0.0
    max_vanish = 0.0
    compared = 0
    for beta in range(-max_abs, max_abs + 1):
        if beta == 0:
            continue
        period = 2 * abs(beta)
        sgn = 1 if beta > 0 else -1
        k = np.arange(period, dtype=np.int64)
        kg = np.outer(k, gammas)
        scale = 2.0 * math.sqrt(abs(beta))
        for alpha in range(-max_abs, max_abs + 1):
            # reduce numerators mod the period so every phase argument
            # stays small; otherwise roundoff swamps the exact zeros
            num = (sgn * ((alpha * k * k)[:, None] + kg)) % period
            direct = np.exp((TWO_PI * 1j / period) * num).sum(axis=0)
            direct /= scale
            odd = ((alpha * beta + gammas) % 2).astype(bool)
            if odd.any():
                max_vanish = max(max_vanish, float(np.abs(direct[odd]).max()))
            if math.gcd(alpha, beta) == 1:
                closed = gauss.gauss_closed_many(alpha, beta, gammas)
                max_oracle = max(max_oracle,
                                 float(np.abs(closed - direct).max()))
                compared += gammas.size
    passed = max_oracle < oracle_tol and max_vanish < vanish_tol
    note = f"vanish max {max_vanish:.2e} (tol {vanish_tol:.0e})"
    return Report("gauss-oracle", compared, max_oracle, oracle_tol,
                  passed, note=note)


def propagator_reference(m, n: int) -> np.ndarray:
    """U_N(A) of a theta matrix with a, b != 0 from the general-case formula,
    entry by entry in exact integer arithmetic on the unreduced matrix:
    h(a,b)/sqrt(N_b) * G(N_b a, b', 2(aQ'-Q)/g) * e((dQ^2 - 2QQ' + aQ'^2)/(2Nb))
    with g = gcd(b, N), N_b = N/g and b' = b/g."""
    a, b, d = m.a, m.b, m.d
    if a == 0 or b == 0:
        raise ValueError("the general-case formula needs a, b != 0")
    g = math.gcd(b, n)
    n_b = n // g
    bp = b // g
    alpha = n_b * a
    scale = h_phase(a, b) / math.sqrt(n_b)
    u = np.zeros((n, n), dtype=np.complex128)
    cache: dict[int, complex] = {}
    for qr in range(n):
        for qc in range(n):
            t = 2 * (a * qc - qr)
            if t % g:
                continue
            gam = (t // g) % (2 * abs(bp))
            if gam not in cache:
                p = gauss.GaussParams(alpha, bp, gam)
                cache[gam] = gauss.gauss_closed(p) if gauss.is_nonvanishing(p) else 0.0
            if cache[gam] == 0.0:
                continue
            quad = d * qr * qr - 2 * qr * qc + a * qc * qc
            u[qr, qc] = scale * cache[gam] * e_frac(quad, 2 * n * b)
    return u


def build_general_reference(m, n: int) -> np.ndarray:
    """The general-case kernel that recovered its Gauss factors with
    np.unique over the N x N grid of gamma = 2(aQ' - Q)/g mod 2|b'|; the
    table-driven propagator._build_general must match it bit for bit."""
    a, b, d = m.a, m.b, m.d
    if not _fits_kernel(b, n):
        raise ValueError(f"N = {n} is too large for the int64 propagator kernel")
    g = math.gcd(b, n)
    n_b = n // g
    bp = b // g
    beta_abs = abs(bp)
    alpha = n_b * a
    hval = h_phase(a, b)
    s = 1 if b > 0 else -1
    den = 2 * n * abs(b)
    q = np.arange(n, dtype=np.int64)
    qq = q * q
    quad = (
        ((s * d) % den) * qq[:, None]
        + ((-2 * s) % den) * np.outer(q, q)
        + ((s * a) % den) * qq[None, :]
    )
    phases = e_frac_array(quad, den)
    # gamma = 2(aQ' - Q)/g, needed only mod 2|b'| and mod g for the mask
    span = 2 * beta_abs * g
    t = 2 * ((a % span) * q[None, :] - q[:, None])
    mask = (t % g) == 0
    gam = np.where(mask, t, 0) // g % (2 * beta_abs)
    uniq, inv_idx = np.unique(gam, return_inverse=True)
    gvals = gauss.gauss_closed_many(alpha, bp, uniq)
    ggrid = gvals[inv_idx].reshape(n, n)
    return (hval / math.sqrt(n_b)) * np.where(mask, ggrid, 0.0) * phases
