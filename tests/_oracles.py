"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (trial
factorization, term-by-term summation, entry-by-entry loops in exact
integer arithmetic) so that agreement with the fast library code is
meaningful.
"""

import cmath
import math
import random

import numpy as np

from qcatmap import gauss
from qcatmap.hecke import CapExceededError
from qcatmap.phases import TWO_PI, e8, e_frac, e_frac_array
from qcatmap.propagator import MULT_TOL, Report, _fits_kernel, build, h_phase
from qcatmap.sl2 import Mat2, ModMatrix, lift_theta
from qcatmap.suites import GAUSS_ORACLE_TOL, GAUSS_VANISH_TOL
from qcatmap.weyl import weyl_op


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


def gauss_oracle_sweep_loop_reference(max_abs: int = 40,
                                      tol_scale: float = 1.0) -> Report:
    """The gauss-oracle sweep with one direct-sum row and one closed-form
    call per (alpha, beta), gathered from the period's roots of unity;
    suites.gauss_oracle_sweep must return an equal report.  Its running
    maxima drop a NaN, as this loop always did."""
    if max_abs < 1:
        raise ValueError(f"the parameter box needs max_abs >= 1, got {max_abs}")
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
        # e(j/period) for every reduced numerator j; reducing mod the period
        # keeps every phase argument small, otherwise roundoff swamps the
        # exact zeros
        roots = np.exp((TWO_PI * 1j / period) * k)
        for alpha in range(-max_abs, max_abs + 1):
            num = (sgn * ((alpha * k * k)[:, None] + kg)) % period
            direct = roots[num].sum(axis=0)
            direct /= scale
            odd = ((alpha * beta + gammas) % 2).astype(bool)
            if odd.any():
                max_vanish = max(max_vanish, float(np.abs(direct[odd]).max()))
            if math.gcd(alpha, beta) == 1:
                closed = gauss.gauss_closed_many(alpha, beta, gammas)
                max_oracle = max(max_oracle,
                                 float(np.abs(closed - direct).max()))
                compared += gammas.size
    passed = (max_oracle < GAUSS_ORACLE_TOL * tol_scale
              and max_vanish < GAUSS_VANISH_TOL * tol_scale)
    note = f"vanish max {max_vanish:.2e} (tol {GAUSS_VANISH_TOL:.0e})"
    return Report("gauss-oracle", compared, max_oracle, GAUSS_ORACLE_TOL,
                  passed, note=note)


def direct_row_reference(alpha: int, beta: int, gammas) -> np.ndarray:
    """One row of the loop above: the direct averages at alpha, beta and
    every gamma, gathered from the roots of unity and summed in k order."""
    period = 2 * abs(beta)
    sgn = 1 if beta > 0 else -1
    k = np.arange(period, dtype=np.int64)
    roots = np.exp((TWO_PI * 1j / period) * k)
    num = (sgn * ((alpha * k * k)[:, None] + np.outer(k, gammas))) % period
    direct = roots[num].sum(axis=0)
    direct /= 2.0 * math.sqrt(abs(beta))
    return direct


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


def projective_phase(a, b, n: int, variant: str = "paper") -> complex:
    """Scalar lambda with U(AB) = lambda * U(A) U(B) under a normalization.

    variant "paper" uses build() directly, whose normalization is exactly
    multiplicative, so lambda = 1 up to rounding.  variant "hannay_berry"
    rescales each propagator to sqrt(i) * U / h(a, b), the normalization of
    Hannay and Berry (Physica D 1, 1980), with h = 1 on the shears and
    anti-shears as h_phase gives it; the resulting lambda is a nontrivial
    eighth root of unity in general.
    """
    if variant not in ("paper", "hannay_berry"):
        raise ValueError(f"unknown variant {variant!r}")
    mats = (a @ b, a, b)
    u_ab, u_a, u_b = (build(m, n) for m in mats)
    if variant == "hannay_berry":
        u_ab, u_a, u_b = (e8(1) * u / h_phase(m.a, m.b)
                          for u, m in zip((u_ab, u_a, u_b), mats))
    prod = u_a @ u_b
    idx = int(np.abs(prod).argmax())
    return complex(u_ab.flat[idx] / prod.flat[idx])


def unitarity_defect_reference(u: np.ndarray) -> float:
    """Max-entry deviation of u^dagger u from the identity, from the whole
    dense N x N product; propagator.unitarity_defect, blocked or, for a u
    with one nonzero per row past one block, by column norms, must match
    it to rounding, and bit for bit while N fits one block."""
    p = u.conj().T @ u
    p.flat[::u.shape[0] + 1] -= 1
    return float(np.abs(p).max())


def build_general_reference(m, n: int) -> np.ndarray:
    """The general-case kernel that recovered its Gauss factors with
    np.unique over the N x N grid of gamma = 2(aQ' - Q)/g mod 2|b'|, over
    the whole grid at once, with its phases from e_frac_array_reference
    (num % den, one exp each); the table-driven, row-blocked
    propagator._build_general must match it bit for bit."""
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
    phases = e_frac_array_reference(quad, den)
    # gamma = 2(aQ' - Q)/g, needed only mod 2|b'| and mod g for the mask
    span = 2 * beta_abs * g
    t = 2 * ((a % span) * q[None, :] - q[:, None])
    mask = (t % g) == 0
    gam = np.where(mask, t, 0) // g % (2 * beta_abs)
    uniq, inv_idx = np.unique(gam, return_inverse=True)
    gvals = gauss.gauss_closed_many(alpha, bp, uniq)
    ggrid = gvals[inv_idx].reshape(n, n)
    return (hval / math.sqrt(n_b)) * np.where(mask, ggrid, 0.0) * phases


def build_antishear_reference(b: int, d: int, n: int) -> np.ndarray:
    """The anti-shear propagator of (0, b; -b, d) over the whole N x N grid
    at once; build, which gathers it in row blocks as a |b| = 1 matrix, must
    match it bit for bit."""
    q = np.arange(n, dtype=np.int64)
    two_n = 2 * n
    num = ((b * d) % two_n) * (q * q)[:, None] + ((-2 * b) % two_n) * np.outer(q, q)
    return e_frac_array_reference(num, two_n) / math.sqrt(n)


def translation_t1(n: int) -> np.ndarray:
    """Dense diagonal phase translation: multiplies f(Q) by e(Q/N)."""
    q = np.arange(n, dtype=np.int64)
    return np.diag(e_frac_array(q, n))


def translation_t2(n: int) -> np.ndarray:
    """Dense cyclic position shift: maps f(Q) to f(Q + 1)."""
    q = np.arange(n)
    m = np.zeros((n, n), dtype=np.complex128)
    m[q, (q + 1) % n] = 1.0
    return m


def inner_product(phi: np.ndarray, psi: np.ndarray) -> complex:
    """(1/N) * sum conj(phi) * psi, antilinear in the first argument."""
    return complex(np.vdot(phi, psi) / len(phi))


def is_real_observable(f: dict, tol: float = 1e-12) -> bool:
    """True iff fhat(-m) = conj(fhat(m)) throughout, so Op_N(f) is Hermitian."""
    for (n1, n2), coeff in f.items():
        other = f.get((-n1, -n2), 0.0)
        if abs(other - coeff.conjugate()) > tol:
            return False
    return True


def egorov_mode_errors_reference(m, n: int) -> np.ndarray:
    """Conjugation error of every single mode, one mode at a time with two
    weyl_op builds and two dense products per mode; the row-batched
    weyl.egorov_mode_errors must match it bit for bit."""
    u = build(m, n)
    uh = u.conj().T
    errs = np.empty((n, n))
    for n1 in range(n):
        for n2 in range(n):
            conj = uh @ weyl_op((n1, n2), n) @ u
            image = (m.a * n1 + m.c * n2, m.b * n1 + m.d * n2)
            errs[n1, n2] = np.abs(conj - weyl_op(image, n)).max()
    return errs


def commutant_mod_reference(a, n: int, cap: int = 64) -> list:
    """Theta matrices mod 4N commuting with A, by a loop over (ba, bb) with
    one (c, d) grid each; hecke.commutant_mod must return the same list."""
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    m = 4 * n
    if m > cap:
        raise CapExceededError(f"4N = {m} exceeds enumeration cap {cap}")
    aa, ab, ac, ad = (x % m for x in a.entries())
    grid = np.arange(m, dtype=np.int64)
    cg, dg = np.meshgrid(grid, grid, indexing="ij")
    members = []
    for ba in range(m):
        for bb in range(m):
            if (ba * bb) % 2:
                continue
            ok = (ba * dg - bb * cg) % m == 1
            ok &= (cg * dg) % 2 == 0
            ok &= (ab * cg - bb * ac) % m == 0
            ok &= (bb * (aa - ad) - ab * (ba - dg)) % m == 0
            ok &= (ac * (ba - dg) - cg * (aa - ad)) % m == 0
            for bc, bd in zip(cg[ok], dg[ok]):
                members.append(ModMatrix(ba, bb, int(bc), int(bd), m))
    return members


def verify_hecke_reference(a, n: int, samples=None, cap: int = 64,
                           seed: int = 0, pairwise_cap: int = 40,
                           tol_scale: float = 1.0) -> Report:
    """verify_hecke with one commutator per member and one ModMatrix product
    test per pair; hecke.verify_hecke must return an equal report."""
    members = commutant_mod_reference(a, n, cap=cap)
    if samples is None or samples >= len(members):
        picked = members
    else:
        picked = random.Random(seed).sample(members, samples)
    u_a = build(a, n)
    tol = MULT_TOL * n * tol_scale
    lifts = [(bm, build(lift_theta(bm), n)) for bm in picked]
    max_err = 0.0
    for _, u_b in lifts:
        max_err = max(max_err, float(np.abs(u_a @ u_b - u_b @ u_a).max()))
    max_pair = 0.0
    head = lifts[:pairwise_cap]
    for i in range(len(head)):
        for j in range(i + 1, len(head)):
            bi, ui = head[i]
            bj, uj = head[j]
            if bi @ bj != bj @ bi:
                continue
            max_pair = max(max_pair, float(np.abs(ui @ uj - uj @ ui).max()))
    passed = max_err < tol and max_pair < tol
    return Report("hecke", len(lifts), max(max_err, max_pair), MULT_TOL, passed,
                  note=f"commutant size {len(members)}")


def congruent_companion_reference(a, modulus: int, rng: random.Random):
    """hecke.congruent_companion as it was with its retry loop; the library
    function must draw the same matrices from the same generator state."""
    m = modulus
    kind = rng.randrange(3)
    if kind == 0:
        return a @ Mat2(1, m * rng.randint(-3, 3), 0, 1)
    if kind == 1:
        return a @ Mat2(1, 0, m * rng.randint(-3, 3), 1)
    for _ in range(64):
        t = rng.choice([-2, -1, 1, 2])
        s = rng.choice([-2, -1, 1, 2])
        ca = 1 + m * t
        cb = m * s
        if math.gcd(ca, m * abs(cb)) != 1:
            continue
        cd = pow(ca, -1, m * abs(cb))
        if (ca * cd - 1) % cb:
            continue
        cc = (ca * cd - 1) // cb
        c = Mat2(ca, cb, cc, cd)
        if c.det() == 1 and cc % m == 0:
            return a @ c
    return a @ Mat2(1, m * rng.randint(-3, 3), 0, 1)
