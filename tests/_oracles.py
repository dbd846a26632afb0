"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (trial
factorization, term-by-term summation, entry-by-entry loops in exact
integer arithmetic) so that agreement with the fast library code is
meaningful.
"""

import cmath
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np

from qcatmap import gauss, hecke, propagator, weyl
from qcatmap.hecke import CapExceededError
from qcatmap.numtheory import jacobi
from qcatmap.phases import TWO_PI, e8, e_frac, e_frac_array
from qcatmap.propagator import (MULT_TOL, UNITARITY_TOL, Report, _drive, build,
                                h_phase, verify_mult)
from qcatmap.sl2 import (IDENTITY, TOKEN_MATRIX, Mat2, ModMatrix, decompose,
                         evaluate, lift_theta, random_word)
from qcatmap.suites import (GAUSS_ORACLE_TOL, GAUSS_VANISH_TOL,
                            GENERATOR_RELATIONS, RELATION_TOL)
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


def h_eighths_reference(a: int, b: int) -> tuple[int, int]:
    """h(a, b) = jac * e(t/8) on a theta top row as (jac, t), t not reduced
    mod 8, by its two-branch formula on the parity of a."""
    sgn = 1 if a * b > 0 else -1 if a * b < 0 else 0
    if a % 2 == 0:
        return jacobi(abs(a), abs(b)), sgn * (abs(b) - 1)
    return jacobi(abs(b), abs(a)), -sgn * abs(a)


def branch_reference(alpha: int, beta: int) -> tuple[int, int, int, int, int]:
    """(jac, t, inv, parity, c) of gauss._branch, by one hand-written branch
    per parity of (alpha, beta): lead jac e(t/8), inverse, gamma parity and
    quadratic coefficient mod 2|beta|."""
    b, s = abs(beta), 1 if beta > 0 else -1
    sgn = 1 if alpha * beta > 0 else -1 if alpha * beta < 0 else 0
    if alpha % 2 == 0:
        # alpha even, beta odd, gamma even
        return (jacobi(abs(alpha), b), -sgn * (b - 1) % 8, pow(alpha, -1, b), 0,
                -s * alpha % (2 * b))
    if beta % 2 == 0:
        # alpha odd, beta even, gamma even
        return (jacobi(b, abs(alpha)), sgn * abs(alpha) % 8, pow(alpha, -1, b), 0,
                -s * alpha % (2 * b))
    # alpha odd, beta odd, gamma odd
    return (jacobi(abs(alpha), b), -sgn * (b - 1) % 8, pow(4 * alpha, -1, b), 1,
            -4 * s * alpha % (2 * b))


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


def _h_turns(a: int, b: int) -> Fraction:
    """Phase of h(a, b) in turns (mod 1), from its definition: for a even
    jacobi(|a|, |b|) e(sgn(ab)(|b| - 1)/8), for a odd jacobi(|b|, |a|)
    e(-sgn(ab)|a|/8); a Jacobi sign of -1 is half a turn."""
    sgn = 1 if a * b > 0 else -1 if a * b < 0 else 0
    if a % 2 == 0:
        jac, eighths = jacobi(abs(a), abs(b)), sgn * (abs(b) - 1)
    else:
        jac, eighths = jacobi(abs(b), abs(a)), -sgn * abs(a)
    return Fraction(eighths, 8) + Fraction(1 - jac, 4)


def _gauss_turns(alpha: int, beta: int, gamma: int):
    """Phase of G(alpha, beta, gamma) in turns from its closed form, or None
    where the sum vanishes (alpha beta + gamma odd; alpha, beta coprime).
    With s = sgn(alpha beta), inverses mod |beta|, x = alpha^-1 gamma/2
    and w = (4 alpha)^-1:
      alpha even:          J(|alpha|, |beta|) e(-s(|beta| - 1)/8) e(-alpha x^2/2beta)
      alpha odd, beta even: J(|beta|, |alpha|) e(s|alpha|/8) e(-alpha x^2/2beta)
      both odd:            J(|alpha|, |beta|) e(-s(|beta| - 1)/8) e(-2alpha w^2 gamma^2/beta)
    """
    if (alpha * beta + gamma) % 2:
        return None
    bb = abs(beta)
    sgn = 1 if alpha * beta > 0 else -1
    if alpha % 2 == 0 or beta % 2 == 0:
        if alpha % 2 == 0:
            jac, eighths = jacobi(abs(alpha), bb), -sgn * (bb - 1)
        else:
            jac, eighths = jacobi(bb, abs(alpha)), sgn * abs(alpha)
        x = pow(alpha, -1, bb) * (gamma // 2)
        quad = Fraction(-alpha * x * x, 2 * beta)
    else:
        jac, eighths = jacobi(abs(alpha), bb), -sgn * (bb - 1)
        w = pow(4 * alpha, -1, bb)
        quad = Fraction(-2 * alpha * w * w * gamma * gamma, beta)
    return Fraction(eighths, 8) + Fraction(1 - jac, 4) + quad


def exponent_reference(m, n: int):
    """Exponents of U_N(A) straight from its explicit formula, in exact
    integer arithmetic: (k, N_b) with U[Q, Q'] = e(k[Q, Q']/4N)/sqrt(N_b),
    and k = -1 where the entry vanishes.

    b = 0: U[Q, sQ] = e(s c Q^2/2N).  b != 0: the entry is
    h(a,b)/sqrt(N_b) G(N_b a, b', gamma) e((dQ^2 - 2QQ' + aQ'^2)/(2Nb)),
    gamma = 2(aQ' - Q)/g, zero where g does not divide 2(aQ' - Q) or G
    vanishes.  h and G enter as Fractions of a turn, G once per distinct
    gamma mod 2|b'| (np.unique over the grid), and their sum with the
    quadratic phase must be a whole number of 1/4N turns.  The grids are
    int64 while the phase numerators fit, and Python ints (object arrays)
    past that, for the unreduced matrices beyond the kernel's budget."""
    a, b, c, d = m.entries()
    q = np.arange(n, dtype=object if 24 * n**3 * abs(b) >= 2**63 else np.int64)
    k = np.full((n, n), -1, dtype=np.int64)
    if b == 0:
        k[q.astype(np.int64), (a * q % n).astype(np.int64)] = 2 * a * c * q * q % (4 * n)
        return k, 1
    g = math.gcd(b, n)
    beta = b // g
    den = 2 * n * abs(b)
    units = math.lcm(8, 4 * n, den)
    s = 1 if b > 0 else -1
    qr, qc = q[:, None], q[None, :]
    # s (dQ^2 - 2QQ' + aQ'^2) mod 2N|b|, over 2N|b|
    quad = ((s * d % den) * qr * qr + (-2 * s % den) * qr * qc
            + (s * a % den) * qc * qc) % den
    t = 2 * ((a % abs(b)) * qc - qr)
    live = t % g == 0
    uniq, where = np.unique((t // g) % (2 * abs(beta)), return_inverse=True)
    h = _h_turns(a, b)
    turns = [_gauss_turns(n // g * a, beta, int(x)) for x in uniq]
    const = np.array([-1 if x is None else int((h + x) * units) % units for x in turns],
                     dtype=q.dtype)[where.reshape(n, n)]
    live &= const >= 0
    total = (const + quad * (units // den)) % units
    step = units // (4 * n)
    if not (total % step == 0)[live].all():
        raise ValueError(f"an entry of U_N({m}) at N={n} is not a 4N-th root of unity")
    k[live] = (total // step)[live].astype(np.int64)
    return k, n // g


def propagator_from_exponents(k: np.ndarray, n_b: int, n: int) -> np.ndarray:
    """e(k/4N)/sqrt(N_b) entrywise, 0 where k = -1, from the table
    e(j/4N)/sqrt(N_b) for j in [0, 4N) that build reads."""
    table = np.exp(2j * np.pi * (np.arange(4 * n) / (4 * n))) / math.sqrt(n_b)
    return np.where(k >= 0, table[k], 0)


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
    dense product (of any 2-D u, whose Gram matrix has one row and column
    per column of u); propagator.unitarity_defect, which takes non-empty
    square matrices only, must match it to rounding past one Gram block,
    where it forms the upper block triangle of the Gram matrix, and bit
    for bit while N fits one block."""
    p = u.conj().T @ u
    p.flat[::len(p) + 1] -= 1
    return float(np.abs(p).max())


def build_general_reference(m, n: int) -> np.ndarray:
    """The general-case kernel that recovered its Gauss factors with
    np.unique over the N x N grid of gamma = 2(aQ' - Q)/g mod 2|b'|, over
    the whole grid at once, with its phases from e_frac_array_reference
    (num % den, one exp each); the table-driven, row-blocked
    propagator._build_general must match it bit for bit."""
    a, b, d = m.a, m.b, m.d
    g = math.gcd(b, n)
    # its quadratic numerators, below 3 (2N|b|) N^2, are int64, and so are
    # gauss_closed_many's over |b'|
    if 6 * n**3 * abs(b) >= 2**63 or abs(b) // g > gauss._MAX_ARRAY_BETA:
        raise ValueError(f"N = {n} is too large for the int64 reference kernel")
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


def delta_basis(nu: int, n: int) -> np.ndarray:
    """Basis vector with value sqrt(N) at position nu, 0 elsewhere, so the
    N vectors are orthonormal under inner_product."""
    if not 0 <= nu < n:
        raise IndexError(f"position {nu} outside 0..{n - 1}")
    v = np.zeros(n, dtype=np.complex128)
    v[nu] = math.sqrt(n)
    return v


def symplectic_form(m: tuple, n: tuple) -> int:
    """omega(m, n) = m1*n2 - m2*n1, the phase of the Weyl product rule."""
    return m[0] * n[1] - m[1] * n[0]


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


def multiplicativity_sweep_reference(pairs: int = 500, max_dim: int = 32,
                                     max_word_len: int = 10, seed: int = 0,
                                     tol_scale: float = 1.0) -> Report:
    """build(AB) against build(A) @ build(B), each pair drawn and built on
    its own through verify_mult; suites.multiplicativity_sweep, which draws
    every pair first and builds each N's pairs as one stack, must return an
    equal Report."""
    rng = random.Random(seed)

    def trials():
        for _ in range(pairs):
            n = rng.randint(1, max_dim)
            a = evaluate(random_word(rng, max_word_len))
            b = evaluate(random_word(rng, max_word_len))
            yield verify_mult(a, b, n).max_error, n

    return _drive("multiplicativity", trials(), MULT_TOL, tol_scale=tol_scale)


# The per-sample sweeps below draw and check one sample at a time, through
# the public single-sample functions, which they look up on their modules at
# call time so that a test can swap in a loop reference; the suites sweeps
# of the same names, which draw every sample first and build per N, must
# return equal Reports.

def egorov_sweep_reference(samples: int = 100, max_dim: int = 16, seed: int = 0,
                           tol_scale: float = 1.0) -> Report:
    """Exact conjugation of every Weyl mode, one weyl.egorov_mode_errors
    call per drawn matrix."""
    rng = random.Random(seed)

    def trials():
        for _ in range(samples):
            n = rng.randint(1, max_dim)
            m = evaluate(random_word(rng, 8))
            yield float(weyl.egorov_mode_errors(m, n).max()), n

    return _drive("egorov", trials(), weyl.EGOROV_TOL, tol_scale=tol_scale)


def unitarity_sweep_reference(samples: int = 64, max_dim: int = 64, seed: int = 0,
                              tol_scale: float = 1.0) -> Report:
    """Unitarity defect of one unchecked build per drawn sample, through
    propagator.unitarity_defect."""
    rng = random.Random(seed)

    def trials():
        for _ in range(samples):
            n = rng.randint(1, max_dim)
            m = evaluate(random_word(rng, 10))
            yield propagator.unitarity_defect(propagator.build(m, n, check=False)), n

    return _drive("unitarity", trials(), UNITARITY_TOL, law=math.sqrt,
                  tol_scale=tol_scale)


def mod4n_sweep_reference(pairs: int = 100, max_dim: int = 16, seed: int = 0,
                          tol_scale: float = 1.0) -> Report:
    """Equal propagators mod 4N, one hecke.verify_mod4N call per drawn pair."""
    rng = random.Random(seed)

    def trials():
        for _ in range(pairs):
            n = rng.randint(1, max_dim)
            a = evaluate(random_word(rng, 6))
            b = hecke.congruent_companion(a, 4 * n, rng)
            yield hecke.verify_mod4N(a, b, n).max_error, n

    return _drive("mod4N", trials(), MULT_TOL, tol_scale=tol_scale)


def mod2n_sweep_reference(pairs: int = 100, max_dim: int = 16, seed: int = 0,
                          tol_scale: float = 1.0) -> Report:
    """The Jacobi-sign relation mod 2N, one hecke.mod2N_factor call per pair,
    the two fixed pairs at N = 3 first."""
    if pairs < 2:
        raise ValueError("mod2n needs at least 2 pairs, one for each sign")
    rng = random.Random(seed)
    cases = [(Mat2(7, 6, 36, 31), IDENTITY, 3),
             (Mat2(13, 12, 144, 133), IDENTITY, 3)]
    while len(cases) < pairs:
        n = rng.randint(1, max_dim)
        a = evaluate(random_word(rng, 6))
        cases.append((a, hecke.congruent_companion(a, 2 * n, rng), n))
    factors = set()

    def trials():
        for a, b, n in cases:
            factor, rep = hecke.mod2N_factor(a, b, n)
            factors.add(factor)
            yield rep.max_error, n

    rep = _drive("mod2N", trials(), MULT_TOL, tol_scale=tol_scale)
    return replace(rep, passed=rep.passed and factors >= {1, -1},
                   note=f"factors seen {sorted(factors)}")


def decomposition_sweep_reference(words: int = 1000, max_word_len: int = 12,
                                  build_checks: int = 60, max_dim: int = 16,
                                  seed: int = 0, tol_scale: float = 1.0) -> Report:
    """Round trip through generator words, with one build and one
    word_product_reference per spot-checked sample."""
    rng = random.Random(seed)
    failures = 0
    longest = 0

    def trials():
        nonlocal failures, longest
        for i in range(words):
            m = evaluate(random_word(rng, max_word_len))
            d = decompose(m)
            longest = max(longest, len(d))
            if evaluate(d) != m:
                failures += 1
            if i < build_checks:
                n = rng.randint(1, max_dim)
                yield float(np.abs(build(m, n) - word_product_reference(d, n)).max()), n
            else:
                yield None

    rep = _drive("decomposition", trials(), MULT_TOL, tol_scale=tol_scale)
    return replace(rep, samples=words, passed=rep.passed and failures == 0,
                   note=f"{failures} round-trip failures, longest word {longest}")


def word_product_reference(word, n: int) -> np.ndarray:
    """Product of generator propagators, left to right, with a fresh build
    for every token of the word (empty: identity)."""
    if not word:
        return np.eye(n, dtype=complex)
    u = build(TOKEN_MATRIX[word[0]], n, check=False)
    for tok in word[1:]:
        u = u @ build(TOKEN_MATRIX[tok], n, check=False)
    return u


def relations_reference(dims) -> Report:
    """The generator relations at every dimension, each side multiplied by
    word_product_reference; suites.relations_sweep, which builds the five
    generators once per N, must return an equal Report."""
    dims = list(dims)
    trials = ((float(np.abs(word_product_reference(lhs, n)
                            - word_product_reference(rhs, n)).max()), n)
              for n in dims for lhs, rhs in GENERATOR_RELATIONS)
    rep = _drive("relations", trials, RELATION_TOL)
    steps = {b - a for a, b in zip(dims, dims[1:])}
    if steps <= {1}:
        return replace(rep, note=f"dims {dims[0]}..{dims[-1]}")
    return replace(rep, note="dims " + ",".join(str(n) for n in dims))


def egorov_mode_errors_reference(m, n: int) -> np.ndarray:
    """Conjugation error of every single mode, one mode at a time with two
    weyl_op builds and two dense products per mode; the block-batched
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
