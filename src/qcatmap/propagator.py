"""Unitary propagators of theta-group cat maps on the discrete torus.

A matrix A = (a, b; c, d) in the theta group acts on the N-dimensional state
space of the quantized torus (wavefunctions on Z/NZ, with 2*pi*hbar = 1/N).
Its propagator U_N(A) is given by one of two formulas:

  b = 0 (shear):  [U f](Q) = e(s*m*Q^2/(2N)) f(s*Q),  A = (s, 0; m, s)
  b != 0:         [U f](Q) = h(a,b)/sqrt(N_b) * sum_Q' G(N_b*a, b', g(Q,Q'))
                  * e((d*Q^2 - 2*Q*Q' + a*Q'^2)/(2*N*b)) f(Q')

with N_b = N/gcd(b,N), b' = b/gcd(b,N), g(Q,Q') = 2*(a*Q' - Q)/gcd(b,N), and
G the normalized Gauss sum of the gauss module.  Entries vanish when g is not
an integer or the Gauss sum parity condition fails.  The map A -> U_N(A) is
exactly multiplicative and depends on A only through its residue mod 4N.

h(a, b), the inverse of gauss._lead(a, b), and G's lead are eighth roots
of unity, the other phases have denominators 2|b'| and 2N|b|; in units of 1/L,
L = lcm(8, 4N, 2N|b|), every phase is an integer, and each nonvanishing
entry is e(k/4N)/sqrt(N_b) (N_b = 1 for a shear).  The kernel takes the
row term dQ^2, the column term aQ'^2 and the cross coefficient -2Q, each
times sgn(b) and mod L, so an entry's quadratic exponent, the cross
coefficient times Q' plus the two terms, is below L (N + 1); it reduces
that mod L, adds the Gauss exponent, checks on every entry it computes
that the division by L/4N is exact (ExponentError otherwise), and reads
the entry, or a zero, from the (N, N_b) table of _roots.  A chunk runs
in int32 when L (N + 2) plus its largest Gauss exponent is below 2^31,
which holds for every |b| = 1 chunk (L = 2N), and in int64 otherwise.
Each entry is rounded once, and matrices congruent mod 4N, having the
same exponents, build the same bits.  So every matrix with |b| > 4N is
reduced mod 4N and built from its theta lift (sl2.lift_theta), which has
1 <= b <= 4N, and no kernel input has |b| > 4N; a stack that holds a
b != 0 matrix takes N <= 17,605 (_MAX_N), and a stack of shears has no
bound.

h and G depend on (Q, Q') only through r = (a*Q' - Q) mod |b|, so their
exponents are one table over the 2|b| <= 8N shifted residues r.  At
|b| = 1, a is even, so h(a, b) = G(N*a, b, 2r) = 1 and every entry is
e(num/2N)/sqrt(N), an even exponent of the (N, N) table with no Gauss
term: the anti-shears (a = 0) and a third of the general matrices.

build_many builds a stack of matrices at one N, and build is the stack of
one.  Per matrix only scalars are made in Python (the theta check, the
lift, L, gcd(b, N), the signs, eighth roots and inverses of h and of the
Gauss branch).  build_many sorts the lifted stack once by kernel kind
(shears, |b| = 1, the Gauss table over r), and _build_shear and
_build_general scatter their members to their places in its one (K, N, N)
result; the blocks of one matrix are written in place.
The b != 0 kernel fills a kind in blocks of at most _BLOCK entries:
_BLOCK // N^2 whole matrices while N^2 <= _BLOCK, each step one numpy pass
over all of them, and rows Q <= N/2 of one matrix past that, which share
its tables (the rest are parity copies); while |b| is at most a block's
rows, blocks of a multiple of |b| rows share their Gauss exponents too.
Up to N = _GRAM_BLOCK the guard is _gram_defects on the stack; past that,
_certified checks in O(N^2) that a matrix is gcd(b, N) blocks D_x F_k D_y
(F_k a DFT at a unit k) up to a permutation of residue classes, which
bounds its Gram defect by 5e-12, and the dense Gram decides the rest.  At
gcd(b, N) = 1 it fits that form on the rows Q <= N/2 only and checks the
parity copies bit for bit, as U_N(A) commutes with U_N(-I) exactly.

The special matrices S (Fourier transform) and P (parity) are the w = 0
anti-shear and m = 0 negative shear respectively.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import gauss
from .numtheory import NotCoprimeError, require_dimension, require_integer
from .phases import e8, e_frac_array
from .sl2 import Mat2, lift_theta, reduce_mod, require_theta

# Contractual tolerance coefficients
UNITARITY_TOL = 1e-9          # times sqrt(N)
MULT_TOL = 1e-8               # times N


class InvalidParityError(ValueError):
    """Raised when h(a, b) is requested with a and b of equal parity."""


class UnitarityError(RuntimeError):
    """Raised when a built propagator fails its unitarity check."""


class ExponentError(RuntimeError):
    """Raised when an entry of a propagator is not a 4N-th root of unity
    over sqrt(N_b), which the explicit formula makes every entry."""


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


def _drive(name: str, trials: Iterable[tuple[float, int] | None], tol: float,
           law: Callable = int, tol_scale: float = 1.0) -> Report:
    """Worst error over a check's trials, each held to tol * law(n) * tol_scale.

    trials yields (error, n) per sample, or None for a draw with no error
    to weigh, which the report does not count, in any order; a check that
    draws nothing, or a tol_scale that _require_tol_scale rejects, is a
    ValueError.
    """
    _require_tol_scale(tol_scale)
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


def _require_tol_scale(x) -> None:
    """ValueError unless x is a real number greater than 0 and a finite float."""
    if not (isinstance(x, numbers.Real) and 0 < x <= sys.float_info.max):
        raise ValueError(f"tol_scale must be a finite number greater than 0, not {x!r}")


@dataclass(frozen=True)
class CaseTag:
    """Structural case of a theta matrix, as printed by propagator_json."""

    kind: str  # "fourier" | "parity" | "shear" | "antishear" | "general"
    sign: int = 0
    param: int = 0

    def __str__(self) -> str:
        pm = "+" if self.sign > 0 else "-"
        # parity and general print as their kind
        return {"fourier": f"fourier({pm})", "shear": f"shear(m={self.param},{pm})",
                "antishear": f"antishear(w={self.param},{pm})"}.get(self.kind, self.kind)


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

    That is the inverse of G(a, b, .)'s lead gauss._lead(a, b): U_1(A) = 1.
    Defined on every top row (a, b) of a theta matrix: coprime integers with
    exactly one of them even (ValueError, NotCoprimeError, InvalidParityError
    otherwise), and 1 on (0, +-1) and (+-1, 0).  The identity h(a, b) =
    h(d, b) holds whenever (a, b; c, d) is a theta-group matrix, since then
    d has the same parity as a.
    """
    a, b = require_integer(a, "a"), require_integer(b, "b")
    if (a + b) % 2 == 0:
        raise InvalidParityError(f"h({a}, {b}) needs exactly one even argument")
    if math.gcd(a, b) != 1:
        raise NotCoprimeError(f"h({a}, {b}) requires coprime arguments")
    jac, t = gauss._lead(a, b)
    return jac * e8(-t)


# Columns per block row of the Gram matrix in _gram_defects.  At N = 1024
# on 2 cores (OpenBLAS, 2 threads) the guard took a median 90 ms as one
# dense product, and 61, 58, 67 and 71 ms in blocks of 64, 128, 256 and
# 512, with bit-equal defects on the 4 matrices tried.  Every N <= 128 is
# one block, which is the dense product itself.
_GRAM_BLOCK = 128


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of u^dagger u from I by the dense Gram, NaN if u
    holds a NaN or inf; u is a non-empty square numeric ndarray (ValueError)."""
    if (not isinstance(u, np.ndarray) or u.dtype.kind not in "iufc" or u.ndim != 2
            or u.shape[0] != u.shape[1] or not len(u)):
        raise ValueError("unitarity_defect needs a non-empty square numpy array of "
                         f"numbers, not {type(u).__name__} of shape {np.shape(u)}")
    return float(_gram_defects(u[None])[0])


def _gram_defects(u: np.ndarray) -> np.ndarray:
    """unitarity_defect of each matrix of a (K, M, M) stack, from the upper
    block triangle of its Gram matrix u^dagger u, which is Hermitian for
    any u: per chunk of _BLOCK // M^2 matrices (one past M = 128) and per
    block of _GRAM_BLOCK columns from lo, the block row u[:, lo:hi]^dagger
    u[:, lo:], whose leading square holds the block's diagonal.  Past one
    block no M x M product or conjugate copy is held."""
    m = u.shape[-1]
    step = max(1, _BLOCK // (m * m))
    defects = []
    for i in range(0, len(u), step):
        part, worst = u[i:i + step], None
        for lo in range(0, m, _GRAM_BLOCK):
            # the conjugate copy dies before np.abs(p) is allocated
            p = part[:, :, lo:lo + _GRAM_BLOCK].conj().mT @ part[:, :, lo:]
            # the diagonals, through no named view, which would hold p past
            # the next product
            p.reshape(len(p), -1)[:, ::p.shape[2] + 1] -= 1
            block = np.abs(p).max(axis=(1, 2))
            # not the builtin max, which drops a later NaN
            worst = block if worst is None else np.maximum(worst, block)
        defects.append(worst)
    return defects[0] if len(defects) == 1 else np.concatenate(defects)


_CERT_SLACK = 1e-12  # eta = delta of _certified; builds miss by ~1e-15


def _certified(u: np.ndarray) -> bool:
    """Whether a C-contiguous N x N u passes the O(N^2) certificate; NaN fails.

    With M nonzeros in row 0 and g = N/M, block r < g is
    B[i, j] = u[r + g i, t(r) + g j], t(r) < g a nonzero of row r.  It needs t
    to permute Z/g, N M nonzeros in u, and per block, with c = B[:, 0],
    r = B[0, :], w = e(1/M) and w^k = B11 B00 / (c1 r1): M |c_i|^2, M |r_j|^2
    and M |B11|^2 within eta of 1, gcd(k, M) = 1, and each |Re| and |Im| of
    E = B - P below delta / sqrt(2M), P = D_a F D_r, a = c / B00,
    F[i, j] = w^(k i j).  So no nonzero lies off the blocks, F^H F = M I,
    |a_i|^2 = 1 + t_i with |t_i| < 2 eta, and to first order in eta,
    (P^H P)[j, j'] = conj(r_j) r_j' (M delta(j, j')
    + sum_i t_i w^(k i (j' - j))) is within eta + 2 eta M |r_j r_j'| = 3 eta
    of delta(j, j'), P^H E within M max|P| |E| = delta of 0, and E^H E
    within delta^2.  So the Gram defect is at most 3 eta + 2 delta + delta^2
    = 5e-12 in exact arithmetic, which the dense Gram reads within N 2^-53
    and roundings here move by 2^-50: far below 1e-9 sqrt(N).

    At g = 1 (M = N) the bounds on E are checked on the rows Q <= N/2 only,
    the rows the kernel computes, and the rest bit for bit: r_j = r_-j, and
    row Q > N/2 is row N - Q read at -j.  As r is even and
    F[N - Q, -j] = F[Q, j], u = D_a' F D_r + E' with a'_Q = a_(N - Q) and
    E'[Q, j] = E[N - Q, -j] past N/2 (a' = a and E' = E up to N/2), so
    a' and E' meet the bounds on a and E, and the bound holds word for word.
    """
    n, m = len(u), np.count_nonzero(u[0])
    if not m or n % m:
        return False
    g, tau = n // m, np.zeros(1, dtype=np.intp)
    if g > 1:
        # (re, im) flag pairs as uint16: about half the time of u != 0
        nz = (u.view(np.float64) != 0).view(np.uint16)
        tau = nz[:g, :g].argmax(axis=1)
        if np.bincount(tau).max() > 1 or np.count_nonzero(nz) != n * m:
            return False
    # v[i, r, j, c] = u[i g + r, j g + c]; at M = 1 B11 is B00, and w^k = 1
    v, blocks, i1 = u.reshape(m, g, m, g), np.arange(g), min(1, m - 1)
    col, row, b11 = v[:, blocks, 0, tau].T, v[0, blocks, :, tau], v[i1, blocks, i1, tau]
    edge = np.abs(np.concatenate([col, row, b11[:, None]], axis=1)) ** 2 * m
    if not np.abs(edge - 1).max() < _CERT_SLACK:
        return False
    w = b11 * col[:, 0] / (col[:, i1] * row[:, i1])
    k = np.rint(np.angle(w) * (m / (2 * math.pi))).astype(np.int64) % m
    if not (np.gcd(k, m) == 1).all():
        return False
    # at g = 1 the form is fitted on rows Q < top, the kernel's own, and
    # rows N - Q > N/2 must be the mirrors of the rows Q in [1, mirrored]
    top, mirrored = (n // 2 + 1, (n - 1) // 2) if g == 1 else (m, 0)
    # e(t/M) for t < M; row lo + d of a row block is w^(k d j) times w^(k lo j)
    roots, j, h = _roots(n, 1)[:4 * n:4 * g], np.arange(m), max(1, _BLOCK // n)
    step = roots[(k[:, None, None] * np.arange(min(h, top))[:, None] % m) * j % m]
    a, bound = col / col[:, :1], _CERT_SLACK / math.sqrt(2 * m)
    buf = np.empty(step.shape, dtype=complex)
    if mirrored:
        # (re, im) bit pairs of row 0, which is its own mirror
        pairs = u[0].view(np.int64).reshape(n, 2)
        if not np.array_equal(pairs[1:], pairs[:0:-1]):
            return False
    for lo in range(0, top, h):
        hi = min(lo + h, top)
        lead = roots[(k * lo % m)[:, None] * j % m] * row
        p = np.multiply(step[:, :hi - lo], lead[:, None, :], out=buf[:, :hi - lo])
        p *= a[:, lo:hi, None]
        # at g = 1 the blocks are the rows of u, read as a view
        p -= u[lo:hi] if g == 1 else v[lo:hi, blocks, :, tau]
        p = p.view(np.float64)
        if not (-bound < p.min() and p.max() < bound):
            return False
        # the block's rows, still in cache, reversed into buf against their
        # mirrors, which then run forward
        s0, s1 = max(lo, 1), min(hi, mirrored + 1)
        if s0 < s1:
            mirror = buf[0, :s1 - s0]
            mirror[:, 0] = u[s1 - 1:s0 - 1:-1, 0]
            mirror[:, 1:] = u[s1 - 1:s0 - 1:-1, :0:-1]
            if not np.array_equal(mirror.view(np.int64),
                                  u[n + 1 - s1:n + 1 - s0].view(np.int64)):
                return False
    return True


@functools.lru_cache(maxsize=32)
def _roots(n: int, n_b: int) -> np.ndarray:
    """The (N, N_b) table, shared read-only by every build: e(k/4N)/sqrt(N_b)
    for k in [0, 4N), twice over, then 4N zeros."""
    t = e_frac_array(np.arange(4 * n), 4 * n) / math.sqrt(n_b)
    t = np.concatenate([t, t, np.zeros(4 * n)])
    t.flags.writeable = False
    return t


def _build_shear(u: np.ndarray, ms: list, ks: list, n: int) -> None:
    """Write U_N(A), A = ms[k] = (s, 0; m, s), into the zero u[k] for each
    k of ks: one phase per row."""
    q = np.arange(n, dtype=np.int64)
    two_n = 2 * n
    # row Q reads exponent 2 ((s*m) Q^2 mod 2N) of the (N, 1) table at
    # column s*Q mod N
    coef = np.array([(ms[k].a * ms[k].c) % two_n for k in ks])[:, None]
    sign = np.array([ms[k].a for k in ks])[:, None]
    evens = _roots(n, 1)[:4 * n:2]
    u[np.array(ks)[:, None], q, sign * q % n] = evens[coef * q * q % two_n]


# Entries per block of the general kernel: each of its temporaries is one
# block (64 KiB of int32 or 128 KiB of int64, 256 KiB of complex) that
# stays in cache.  On 2 cores with 4 MiB of L2, median build(A, 1024,
# check=False) times of the int64 kernel were flat from 2^13 to 2^17
# entries (general 12.6-16.5 ms, anti-shear 10.1-11.5 ms, two sweeps) and
# a little slower at 2^12.  A block holds _BLOCK // N^2 whole matrices of
# a stack while N <= 128, and rows of one matrix past that.
_BLOCK = 1 << 14


# The largest N of a stack that holds a b != 0 matrix.  build_many hands
# the general kernel |b| <= 4N only, so L = lcm(8, 4N, 2N|b|) <= 32 N^2.
# Its terms are reduced mod L, so a block holds values below L (N + 2)
# plus a Gauss exponent of at most 3L times the chunk's tables, and its
# largest int64 value is a term before its reduction, a coefficient below
# L times Q^2 < N^2, so below 32 N^4.  The bound is kept from the
# unreduced sums' 96 N^4, which is < 2^63 up to N = 17,605.
_MAX_N = 17_605


def _exponent_tables(ms: list, units: list, n: int, q: np.ndarray):
    """Integer exponent tables of the |b| >= 2 matrices ms, laid end to end.

    Matrix k's table holds, per r = (aQ' - Q) mod |b|, the exponent of
    h(a,b) G(N_b a, b', 2r/g) mod L, L = units[k], plus 3L times the
    number of its (N, N_b) table among the chunk's, so that (quadratic
    exponent mod L + table) / (L/4N) indexes those tables end to end.
    Where the entry vanishes it holds 2L - rho plus that offset, with
    rho = (L/2N|b|) (sgn(b) a^-1 r^2 mod |b|) the quadratic exponent mod
    L/4N (as a (dQ^2 - 2QQ' + aQ'^2) = (aQ' - Q)^2 + bcQ^2): its sum reads
    a zero, and every sum is a multiple of L/4N.

    Returns the tables, the row and column parts of each entry's index
    into them ((K, N), or (N,) for one matrix), and the roots.  A table
    runs over [0, 2|b|), 2|b| <= 8N entries for the lifted inputs of
    build_many, read at r_col[Q'] + r_row[Q] (r shifted by |b| to need no
    N x N `%`).
    """
    params, tables = [], {}
    for m, L in zip(ms, units):
        b_abs, s = abs(m.b), (1 if m.b > 0 else -1)
        g = math.gcd(b_abs, n)
        beta, n_b = b_abs // g, n // g
        jh, th = gauss._lead(m.a, m.b)  # h(a, b) = jh e(-th/8)
        # G's exponent over 2|b'| is c x^2, x = inv gamma/2 (gamma even) or
        # inv gamma (odd) mod |b'|
        jg, tg, inv, parity, c = gauss._branch(n_b * m.a, m.b // g)
        # |b|, a mod |b|, g, |b'|, inv, parity, c, the exponent of
        # h(a,b) and of G's lead, L/2|b'|, L/2N|b|, sgn(b) a^-1 mod |b|, L,
        # L/4N and the offset of the matrix's (N, N_b) table
        params.append((b_abs, m.a % b_abs, g, beta, inv, parity, c,
                       (tg - th + 4 * (jh < 0) + 4 * (jg < 0)) % 8 * L // 8,
                       L // (2 * beta), L // (2 * n * b_abs),
                       s * pow(m.a, -1, b_abs) % b_abs, L, L // (4 * n),
                       3 * L * tables.setdefault(n_b, len(tables))))
    counts = [2 * p[0] for p in params]
    one = len(ms) == 1
    p = params[0] if one else np.array(params, dtype=np.int64).T
    b_abs, a_mod = p[:2] if one else (p[0][:, None], p[1][:, None])
    r_row, r_col = b_abs - q % b_abs, a_mod * q % b_abs
    keys = np.arange(sum(counts))
    if not one:
        # each matrix reads its own run of the table
        start = np.array(list(itertools.accumulate(counts, initial=0))[:-1])
        keys -= np.repeat(start, counts)
        r_row = r_row + start[:, None]
        p = np.repeat(p, counts, axis=1)
    b_abs, _, g, beta, inv, parity, c, lead, per_beta, per_den, sa, L, step, offset = p
    gam2 = 2 * keys
    gam = gam2 // g
    x = inv * (gam >> (1 - parity)) % beta
    exps = (lead + c * (x * x % (2 * beta)) % (2 * beta) * per_beta) % L
    # at g = 1, gamma = 2r is even and b' = b, so alpha or b' is even: no
    # entry vanishes
    if any(f[2] > 1 for f in params):
        r = keys % b_abs
        rho = per_den * (sa * (r * r % b_abs) % b_abs) % step
        exps = np.where((gam * g != gam2) | ((gam & 1) != parity), 2 * L - rho, exps)
    roots = [_roots(n, n_b) for n_b in tables]
    return exps + offset, r_row, r_col, roots[0] if one else np.concatenate(roots)


def _build_general(u: np.ndarray, ms: list, groups: tuple, n: int) -> None:
    """Write U_N(A) of A = ms[k], b != 0, into u[k] for each k of the groups
    (the |b| = 1 members, the Gauss-table members).  Rows of one matrix
    (N > 128) are computed for Q <= N/2 only: U_N(A) commutes with the
    parity U_N(-I), so row Q > N/2 is row N - Q read at -Q'.  They meet every
    r = (aQ' - Q) mod |b|, so the exactness check reads every Gauss exponent.

    Raises ExponentError(k) at the first matrix ms[k] found with an entry
    off the 4N-th roots of unity; build_many names it.
    """
    # build_many has checked N <= _MAX_N and lifted every |b| > 4N
    q = np.arange(n, dtype=np.int64)
    powers = np.array([q * q, q, q * q])
    per_block = max(1, _BLOCK // (n * n))
    rows = max(1, _BLOCK // (per_block * n))
    for kind, group in enumerate(groups):
        for lo in range(0, len(group), per_block):
            idx = group[lo:lo + per_block]
            chunk = [ms[k] for k in idx]
            # per matrix the unit 1/L of its exponents, and the coefficients
            # of dQ^2, -2QQ' and aQ'^2 times sgn(b) in that unit; at |b| = 1,
            # h = G = 1 and N_b = N, so L = 2N and the entries are the even
            # exponents of the (N, N) table, with no Gauss exponent
            units = [2 * n if kind == 0 else math.lcm(8, 4 * n, 2 * n * abs(m.b))
                     for m in chunk]
            coef = [tuple((c if m.b > 0 else -c) % (2 * n * abs(m.b))
                          * (L // (2 * n * abs(m.b))) for c in (m.d, -2, m.a))
                    for m, L in zip(chunk, units)]
            if kind:
                exps, r_row, r_col, roots = _exponent_tables(chunk, units, n, q)
            else:
                roots = _roots(n, n)[:4 * n:2]
            # the row term dQ^2, the cross coefficient -2Q and the column
            # term aQ'^2, each mod L: a block sum is below L (N + 1), and
            # every later value below L plus the Gauss exponent, so a chunk
            # runs in int32 when L (N + 2) plus its largest Gauss exponent
            # is below 2^31 (every |b| = 1 chunk: L = 2N), else in int64
            terms = (np.array(coef, dtype=np.int64)[:, :, None] * powers
                     % np.array(units)[:, None, None])
            peak = max(units) * (n + 2) + (int(exps.max()) if kind else 0)
            width = np.int32 if peak < 2**31 else np.int64
            terms, qw = terms.astype(width), q.astype(width)
            if kind:
                exps = exps.astype(width)
            # (K, N) vectors, or for one matrix (N,) ones, so that its
            # blocks are 2-D and written to u[k] in place
            one = len(chunk) == 1
            row, cross, col = terms[0] if one else terms.swapaxes(0, 1)
            unit, step = (x[0] if len(set(x)) == 1
                          else np.array(x, dtype=width)[:, None, None]
                          for x in (units, [x // (4 * n) for x in units]))
            span, same = rows, None
            if kind and one and abs(chunk[0].b) <= rows < n:
                # the Gauss exponents of row Q depend on Q mod |b| only, so
                # every block of a multiple of |b| rows reads the same ones
                span -= rows % abs(chunk[0].b)
                same = exps[r_col + r_row[:span, None]]
            top = n // 2 + 1 if one and rows < n else n
            for r0 in range(0, top, span):
                r1 = min(r0 + span, top)
                num = cross[..., r0:r1, None] * qw
                num += row[..., r0:r1, None]
                num += col[..., None, :]
                # num mod L by floor division, which numpy runs by libdivide
                e = num // unit
                e *= -unit
                e += num
                if kind:
                    e += (same[:r1 - r0] if same is not None else
                          exps[r_col[..., None, :] + r_row[..., r0:r1, None]])
                    k = np.floor_divide(e, step, out=num)
                    e -= k * step
                    if e.any():
                        bad = e.reshape(len(chunk), -1).any(axis=1)
                        raise ExponentError(idx[int(np.flatnonzero(bad)[0])])
                    e = k
                if one:
                    # 0 <= e < len(roots), so "wrap" never wraps, and unlike
                    # "raise" it writes to out unbuffered: at |b| = 1, e is
                    # num floor-mod 2N and roots has 2N entries; for a Gauss
                    # table, e is the exact quotient by L/4N of a residue
                    # mod L plus the table's exponent, below 2L + 1, plus
                    # 3L times the number t of the matrix's (N, N_b) table,
                    # so 12N t <= e < 12N (t + 1), inside table t
                    np.take(roots, e, out=u[idx[0], r0:r1], mode="wrap")
                else:
                    # several members are scattered to their stack places
                    u[idx, r0:r1] = roots[e]
            if top < n:
                # parity symmetry: row Q > N/2 is row N - Q read at -Q'
                dest = u[idx[0]]
                dest[top:, 0] = dest[n - top:0:-1, 0]
                dest[top:, 1:] = dest[n - top:0:-1, :0:-1]


def build_many(ms, n: int, check: bool = True) -> np.ndarray:
    """Propagators U_N(A) of a stack of theta matrices at one dimension N.

    Returns the complex (K, N, N) array whose k-th matrix is
    build(ms[k], n, check) bit for bit; see build for the parameters.  An
    empty stack is a ValueError.  With check, the first matrix that is not
    unitary raises UnitarityError naming it and its place in the stack.
    """
    ms = [require_theta(m) for m in ms]
    n = require_dimension(n)
    if not ms:
        raise ValueError("build_many needs at least one matrix")
    # U_N(A) depends on A only mod 4N, and the lift is general too
    kernel = [lift_theta(reduce_mod(m, 4 * n)) if abs(m.b) > 4 * n else m
              for m in ms]
    # stack positions by kernel kind: shears, |b| = 1, the Gauss table
    shears, unit, table = kinds = ([], [], [])
    for k, m in enumerate(kernel):
        kinds[min(abs(m.b), 2)].append(k)
    if n > _MAX_N and len(shears) < len(ms):
        raise ValueError(f"N = {n} is too large for the int64 propagator "
                         f"kernel, which takes N <= {_MAX_N} when b != 0")

    def named(k: int) -> str:
        where = f" (stack member {k})" if len(ms) > 1 else ""
        return f"propagator of {ms[k]}{where} at N={n}"

    # the shear kernel writes only the nonzeros of its members
    u = (np.zeros if shears else np.empty)((len(ms), n, n), dtype=np.complex128)
    try:
        if shears:
            _build_shear(u, kernel, shears, n)
        if unit or table:
            _build_general(u, kernel, (unit, table), n)
    except ExponentError as err:
        k = err.args[0]
        lift = "" if kernel[k] is ms[k] else f", built from its lift {kernel[k]},"
        raise ExponentError(f"{named(k)}{lift} has an entry off the 4N-th "
                            "roots of unity") from None
    if check:
        tol = UNITARITY_TOL * math.sqrt(n)
        defects = (_gram_defects(u) if n <= _GRAM_BLOCK else
                   [0.0 if _certified(x) else unitarity_defect(x) for x in u])
        # not d < tol also catches a NaN defect
        failed = [k for k, d in enumerate(defects) if not d < tol]
        if failed:
            raise UnitarityError(f"{named(failed[0])} is not unitary "
                                 f"(defect {defects[failed[0]]:.3e})")
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
    return build_many([m], n, check)[0]


def verify_mult(a: Mat2, b: Mat2, n: int) -> Report:
    """Compare build(A @ B) against build(A) @ build(B) entrywise."""
    err = float(np.abs(build(a @ b, n) - build(a, n) @ build(b, n)).max())
    return _drive("multiplicativity", [(err, n)], MULT_TOL)


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
