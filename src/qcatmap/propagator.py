"""Unitary propagators of theta-group cat maps on the discrete torus.

A matrix A = (a, b; c, d) in the theta group acts on the N-dimensional state
space of the quantized torus (wavefunctions on Z/NZ, with 2*pi*hbar = 1/N).
Its propagator U_N(A) is given by one of two formulas:

  b = 0 (shear):  [U f](Q) = e(s*m*Q^2/(2N)) f(s*Q),  A = (s, 0; m, s)
  b != 0:         [U f](Q) = h(a,b)/sqrt(N_b) * sum_Q' G(N_b*a, b', g(Q,Q'))
                  * e((d*Q^2 - 2*Q*Q' + a*Q'^2)/(2*N*b)) f(Q')

with N_b = N/gcd(b,N), b' = b/gcd(b,N), g(Q,Q') = 2*(a*Q' - Q)/gcd(b,N), and
G the normalized Gauss sum of the gauss module.  Entries vanish when g is not
an integer or the Gauss sum parity condition fails.  G depends on (Q, Q')
only through r = (a*Q' - Q) mod |b|, so the kernel reads it from a table
over r unless |b| is large next to N^2.  The map A -> U_N(A) is
exactly multiplicative and depends on A only through its residue mod 4N.

A matrix whose entries are too large for the int64 entry grids is
therefore reduced mod 4N and replaced by its theta lift (sl2.lift_theta),
a matrix with 1 <= b <= 4N that the same vectorized kernel builds.

At |b| = 1, a is even (A is a theta matrix), so h(a, b) = 1 and
G(N*a, b, 2r) = 1 exactly: every entry is e(num/2N)/sqrt(N), gathered from
the 2N roots of unity with no Gauss table.  These are the anti-shears
(a = 0, A = (0, s; -s, w)) and a third of the general matrices.

The b != 0 kernel fills the N x N output in row blocks of at most _BLOCK
entries, so every temporary is block-sized.  What does not depend on the
block is made once per build: the 2|b| Gauss table with h(a,b)/sqrt(N_b)
folded in (or, at |b| = 1, the 2N phases over sqrt(N)), the column parts
of the phase numerator and of r, and the table of the den = 2N|b| roots
of unity, which is kept, as in phases.e_frac_array, only when den <= N^2:
the rule is applied to the whole grid, never to one block.  The result
equals the whole-grid kernels bit for bit.

The special matrices S (Fourier transform) and P (parity) are the w = 0
anti-shear and m = 0 negative shear respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import gauss
from .numtheory import NotCoprimeError, jacobi, sign
from .phases import e8, e_frac_array, root_table
from .sl2 import Mat2, lift_theta, reduce_mod, require_theta

# Contractual tolerance coefficients
UNITARITY_TOL = 1e-9          # times sqrt(N)
MULT_TOL = 1e-8               # times N


class InvalidParityError(ValueError):
    """Raised when h(a, b) is requested with a and b of equal parity."""


class UnitarityError(RuntimeError):
    """Raised when a built propagator fails its unitarity check."""


@dataclass(frozen=True)
class Report:
    """Outcome of a check: the worst error over its samples and the tolerance.

    `tol` is the check's base rate; each sample is held to the base rate
    times a law of its dimension (N, sqrt(N) or 1) times the tolerance scale.
    """

    name: str
    samples: int
    max_error: float
    tol: float
    passed: bool
    note: str = ""


def _per_n(n: int) -> int:
    return n


def _drive(name: str, trials: Iterable[tuple[float, int] | None], tol: float,
           law: Callable = _per_n, tol_scale: float = 1.0) -> Report:
    """Worst error over a check's trials, each held to tol * law(n) * tol_scale.

    trials yields (error, n) per sample, or None for a draw with no error
    to weigh, which the report does not count; a check that draws nothing
    is a ValueError.
    """
    worst, passed, drawn, done = 0.0, True, 0, 0
    for trial in trials:
        drawn += 1
        if trial is None:
            continue
        err, n = trial
        if err > worst or math.isnan(err):
            # a NaN error stays the worst, as no comparison replaces it
            worst = err
        passed &= err < tol * law(n) * tol_scale
        done += 1
    if not drawn:
        raise ValueError(f"{name}: no samples requested")
    return Report(name, done, worst, tol, passed)


@dataclass(frozen=True)
class CaseTag:
    """Structural case of a theta matrix, as printed by propagator_json."""

    kind: str  # "fourier" | "parity" | "shear" | "antishear" | "general"
    sign: int = 0
    param: int = 0

    def __str__(self) -> str:
        pm = "+" if self.sign > 0 else "-"
        if self.kind == "fourier":
            return f"fourier({pm})"
        if self.kind == "parity":
            return "parity"
        if self.kind == "shear":
            return f"shear(m={self.param},{pm})"
        if self.kind == "antishear":
            return f"antishear(w={self.param},{pm})"
        return "general"


def classify(m: Mat2) -> CaseTag:
    """Most specific structural case of a theta matrix; build does not
    dispatch on it.

    Precedence: b = 0 gives a shear (parity when it is the point reflection),
    a = 0 gives an anti-shear (fourier when w = 0), anything else is general.
    """
    require_theta(m)
    if m.b == 0:
        if m.c == 0 and m.a == -1:
            return CaseTag("parity")
        return CaseTag("shear", sign=m.a, param=m.c)
    if m.a == 0:
        if m.d == 0:
            return CaseTag("fourier", sign=m.c)
        return CaseTag("antishear", sign=m.b, param=m.d)
    return CaseTag("general")


def h_phase(a: int, b: int) -> complex:
    """Unit-modulus normalization factor h(a, b) of the propagator.

    For a even: jacobi(|a|, |b|) * e(+sgn(ab)(|b| - 1)/8).
    For a odd:  jacobi(|b|, |a|) * e(-sgn(ab)|a|/8).

    Defined on every top row (a, b) of a theta matrix: a and b coprime
    with exactly one of them even (InvalidParityError, NotCoprimeError
    otherwise).  On the rows with a zero entry, (0, +-1) of the
    anti-shears and (+-1, 0) of the shears, it is 1.  The identity
    h(a, b) = h(d, b) holds whenever (a, b; c, d) is a theta-group
    matrix, since then d has the same parity as a.
    """
    if (a + b) % 2 == 0:
        raise InvalidParityError(f"h({a}, {b}) needs exactly one even argument")
    if math.gcd(a, b) != 1:
        raise NotCoprimeError(f"h({a}, {b}) requires coprime arguments")
    if a % 2 == 0:
        return jacobi(abs(a), abs(b)) * e8(sign(a * b) * (abs(b) - 1))
    return jacobi(abs(b), abs(a)) * e8(-sign(a * b) * abs(a))


# Columns per block row of the Gram matrix in unitarity_defect.  At N = 1024
# on 2 cores (OpenBLAS, 2 threads) the guard took a median 90 ms as one
# dense product, and 61, 58, 67 and 71 ms in blocks of 64, 128, 256 and
# 512, with bit-equal defects on the 4 matrices tried.  Every N <= 128 is
# one block, which is the dense product itself.
_GRAM_BLOCK = 128


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of u^dagger u from the identity.

    u^dagger u is Hermitian for any u, so its lower triangle mirrors the
    upper one in magnitude (to rounding).  Only the upper block triangle
    is formed: for each block of _GRAM_BLOCK columns starting at lo, the
    block row u[:, lo:hi]^dagger u[:, lo:], whose leading square holds that
    block's diagonal.  Past one block no N x N product or conjugate copy
    is held.  A NaN block maximum stays the defect, so a NaN anywhere in
    u^dagger u is reported.
    """
    n = u.shape[0]
    worst = 0.0
    for lo in range(0, n, _GRAM_BLOCK):
        p = u[:, lo:lo + _GRAM_BLOCK].conj().T @ u[:, lo:]
        # the block's diagonal runs down the leading square of p
        p.flat[::n - lo + 1] -= 1
        block = np.abs(p).max()
        # not the builtin max, which drops a later NaN, nor np.max over a
        # list, which adds ~5 us to every single-block guard
        if block > worst or math.isnan(block):
            worst = block
    return float(worst)


def _build_shear(a: int, c: int, n: int) -> np.ndarray:
    q = np.arange(n, dtype=np.int64)
    two_n = 2 * n
    num = ((a * c) % two_n) * q * q
    u = np.zeros((n, n), dtype=np.complex128)
    u[q, (a * q) % n] = e_frac_array(num, two_n)
    return u


# Entries per row block of the general kernel: each of its N x N
# temporaries is one block (128 KiB of int64, 256 KiB of complex) that
# stays in cache.  On 2 cores with 4 MiB of L2, median
# build(A, 1024, check=False) times were flat from 2^13 to 2^17 entries
# (general 12.6-16.5 ms, anti-shear 10.1-11.5 ms, two sweeps) and a
# little slower at 2^12.  Every N <= 128 is one block.
_BLOCK = 1 << 14


def _fits_kernel(b: int, n: int) -> bool:
    """Whether the general kernel can build a matrix with top-right entry b.

    Its int64 blocks hold quadratic phase numerators below
    3 * (2N|b|) * N^2 = 6 N^3 |b|, and gauss_closed_many takes |b'| up
    to its int64 bound of 10^6.  A lift mod 4N has |b| <= 4N, so 6 N^3 |b| <=
    24 N^4 < 2^63 and |b'| <= 10^6 for every N <= 24,898.
    """
    return (6 * n**3 * abs(b) < 2**63
            and abs(b) // math.gcd(b, n) <= gauss._MAX_ARRAY_BETA)


def _build_general(m: Mat2, n: int) -> np.ndarray:
    # build has checked _fits_kernel(m.b, n)
    a, b, d = m.a, m.b, m.d
    b_abs = abs(b)
    s = 1 if b > 0 else -1
    den = 2 * n * b_abs
    q = np.arange(n, dtype=np.int64)
    qq = q * q
    row, cross, col = (((s * d) % den) * qq, ((-2 * s) % den) * q,
                       ((s * a) % den) * qq)
    if b_abs == 1:
        # h = G = 1: gather e(num/2N)/sqrt(N) from all 2N phases, of which
        # the grid reads N^2 >= 2N from N = 2 on
        gauss_table, roots = None, root_table(den, den) / math.sqrt(n)
    else:
        g = math.gcd(b, n)
        n_b = n // g
        # G depends on r = (aQ' - Q) mod |b| alone (zero unless g | 2r),
        # shifted by |b| here to need no N x N `%`: tabulate it over
        # [0, 2|b|) and read it at r_col[Q'] + r_row[Q], or, if 2|b| > N^2,
        # over the grid's own r and read it back by grid position
        r_row, r_col = b_abs - q % b_abs, (a % b_abs) * q % b_abs
        if 2 * b_abs <= n * n:
            keys = np.arange(2 * b_abs)
        else:
            keys = (r_col + r_row[:, None]).ravel()
            r_row, r_col = n * q, q
        gvals = gauss.gauss_closed_many(n_b * a, b // g, 2 * keys // g)
        gvals = np.where((2 * keys) % g == 0, gvals, 0.0)
        # h/sqrt(N_b) is folded into the table in the operand order of the
        # whole-grid product c * gvals[pos] * phases, which numpy computes
        # in place as gvals[pos] * c from 256 KiB (N >= 128) on: a complex
        # product can round differently with its operands swapped.
        c = h_phase(a, b) / math.sqrt(n_b)
        gauss_table = gvals * c if n >= 128 else c * gvals
        roots = root_table(den, n * n)
    u = np.empty((n, n), dtype=np.complex128)
    rows = max(1, _BLOCK // n)
    for lo in range(0, n, rows):
        num = cross[lo:lo + rows, None] * q
        num += row[lo:lo + rows, None]
        if a:
            num += col
        if gauss_table is None:
            num %= den
            u[lo:lo + rows] = roots[num]
        else:
            np.multiply(gauss_table[r_col + r_row[lo:lo + rows, None]],
                        e_frac_array(num, den, roots), out=u[lo:lo + rows])
    return u


def build(m: Mat2, n: int, check: bool = True) -> np.ndarray:
    """Propagator U_N(A) of the theta matrix A at dimension N.

    Parameters
    ----------
    m : Mat2
        Theta-group matrix; raises NotThetaError otherwise.
    n : int
        Hilbert-space dimension N >= 1.
    check : bool
        Raise UnitarityError unless the result is unitary (max defect
        below 1e-9 * sqrt(N)).

    Returns
    -------
    numpy.ndarray
        Complex (N, N) matrix indexed by position, rows = output index.
    """
    require_theta(m)
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    if m.b == 0:
        u = _build_shear(m.a, m.c, n)
    else:
        k = m
        if not _fits_kernel(m.b, n):
            # U_N(A) depends on A only mod 4N, and the lift is general too
            k = lift_theta(reduce_mod(m, 4 * n))
            if not _fits_kernel(k.b, n):
                raise ValueError(f"N = {n} is too large for the int64 "
                                 "propagator kernel")
        u = _build_general(k, n)
    if check:
        defect = unitarity_defect(u)
        if not defect < UNITARITY_TOL * math.sqrt(n):
            raise UnitarityError(f"propagator of {m} at N={n} is not unitary "
                                 f"(defect {defect:.3e})")
    return u


def verify_mult(a: Mat2, b: Mat2, n: int) -> Report:
    """Compare build(A @ B) against build(A) @ build(B) entrywise."""
    err = float(np.abs(build(a @ b, n) - build(a, n) @ build(b, n)).max())
    return _drive("multiplicativity", [(err, n)], MULT_TOL)


def projective_phase(a: Mat2, b: Mat2, n: int, variant: str = "paper") -> complex:
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
    lam = complex(u_ab.flat[idx] / prod.flat[idx])
    return lam


def propagator_json(m: Mat2, n: int) -> dict:
    """JSON-ready payload: dimension, complex matrix as [re, im] pairs
    (row-major, rows = output index), case string, and input matrix."""
    u = build(m, n)
    return {
        "N": n,
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in u],
        "case": str(classify(m)),
        "A": list(m.entries()),
    }
