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

h(a, b) and the lead of G's closed form are eighth roots of unity, and the
other phases have denominators 2|b'| and 2N|b|, so in units of 1/L,
L = lcm(8, 4N, 2N|b|), every phase is an integer, and each nonvanishing
entry is e(k/4N)/sqrt(N_b) (N_b = 1 for a shear).  The kernel computes k
in int64, checks on every entry that the division by L/4N is exact
(ExponentError otherwise), and reads the entry, or a zero, from the
(N, N_b) table of _roots.  Each entry is rounded once, and matrices
congruent mod 4N, having the same exponents, build the same bits.  So
every matrix with |b| > 4N is reduced mod 4N and built from its theta
lift (sl2.lift_theta), which has 1 <= b <= 4N, and no kernel input has
|b| > 4N.  Its int64 exponents then stay below 96 N^4 (L <= 8N|b|), so a
stack that holds a b != 0 matrix takes N <= 17,605 (_MAX_N); a stack of
shears has no bound.

h and G depend on (Q, Q') only through r = (a*Q' - Q) mod |b|, so their
exponents are one table over the 2|b| <= 8N shifted residues r.  At
|b| = 1, a is even, so h(a, b) = G(N*a, b, 2r) = 1 and every entry is
e(num/2N)/sqrt(N), an even exponent of the (N, N) table with no Gauss
term: the anti-shears (a = 0) and a third of the general matrices.

build_many builds a stack of matrices at one N, and build is the stack of
one.  Per matrix only scalars are made in Python (the theta check, the
lift, L, gcd(b, N), the signs, eighth roots and inverses of h and of the
Gauss branch).  The b != 0 kernel sorts a stack into two kinds (|b| = 1,
and the Gauss table over r) and fills each kind in blocks of at most
_BLOCK entries: _BLOCK // N^2 whole matrices while N^2 <= _BLOCK, each
step one numpy pass over all of them, and rows of one matrix past that,
which share its tables; while |b| is at most a block's rows, blocks of a
multiple of |b| rows share their Gauss exponents too.  Up to
N = _GRAM_BLOCK the guard is _gram_defects on the stack; past that,
_certified checks in O(N^2) that a matrix is gcd(b, N) blocks D_x F_k D_y
(F_k a DFT at a unit k) up to a permutation of residue classes, which
bounds its Gram defect by 5e-12, and the dense Gram decides the rest.

The special matrices S (Fourier transform) and P (parity) are the w = 0
anti-shear and m = 0 negative shear respectively.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import gauss
from .numtheory import NotCoprimeError, jacobi, sign
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
    jac, t = _h_eighths(a, b)
    return jac * e8(t)


def _h_eighths(a: int, b: int) -> tuple[int, int]:
    """h(a, b) = jac * e(t/8) as the Jacobi sign and eighth-root index
    (jac, t), on a valid top row."""
    if a % 2 == 0:
        return jacobi(abs(a), abs(b)), sign(a * b) * (abs(b) - 1)
    return jacobi(abs(b), abs(a)), -sign(a * b) * abs(a)


# Columns per block row of the Gram matrix in _gram_defects.  At N = 1024
# on 2 cores (OpenBLAS, 2 threads) the guard took a median 90 ms as one
# dense product, and 61, 58, 67 and 71 ms in blocks of 64, 128, 256 and
# 512, with bit-equal defects on the 4 matrices tried.  Every N <= 128 is
# one block, which is the dense product itself.
_GRAM_BLOCK = 128


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of u^dagger u from I by the dense Gram, NaN if u
    holds a NaN or inf; u must be a non-empty square matrix (ValueError)."""
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not len(u):
        raise ValueError(f"unitarity_defect needs a non-empty square matrix, not shape {u.shape}")
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
            # the diagonals, 1-D for one matrix (1 us faster than a (1, M) view),
            # through no named view, which would hold p past the next product
            shape = -1 if len(p) == 1 else (len(p), -1)
            p.reshape(shape)[..., ::p.shape[2] + 1] -= 1
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
    # e(t/M) for t < M; row lo + d of a row block is w^(k d j) times w^(k lo j)
    roots, j, h = _roots(n, 1)[:4 * n:4 * g], np.arange(m), max(1, _BLOCK // n)
    step = roots[(k[:, None, None] * np.arange(min(h, m))[:, None] % m) * j % m]
    a, bound = col / col[:, :1], _CERT_SLACK / math.sqrt(2 * m)
    for lo in range(0, m, h):
        p = step[:, :m - lo] * (roots[(k * lo % m)[:, None] * j % m] * row)[:, None, :]
        p *= a[:, lo:lo + h, None]
        p -= v[lo:lo + h, blocks, :, tau]
        p = p.view(np.float64)
        if not (-bound < p.min() and p.max() < bound):
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


def _build_shear(ms: list, n: int) -> np.ndarray:
    """Stack of U_N(A) for shears A = (s, 0; m, s): one phase per row."""
    q = np.arange(n, dtype=np.int64)
    two_n = 2 * n
    # row Q reads exponent 2 ((s*m) Q^2 mod 2N) of the (N, 1) table at
    # column s*Q mod N
    coef = np.array([(m.a * m.c) % two_n for m in ms])[:, None]
    sign = np.array([m.a for m in ms])[:, None]
    u = np.zeros((len(ms), n, n), dtype=np.complex128)
    evens = _roots(n, 1)[:4 * n:2]
    u[np.arange(len(ms))[:, None], q, sign * q % n] = evens[coef * q * q % two_n]
    return u


# Entries per block of the general kernel: each of its temporaries is one
# block (128 KiB of int64, 256 KiB of complex) that stays in cache.  On 2
# cores with 4 MiB of L2, median build(A, 1024, check=False) times were
# flat from 2^13 to 2^17 entries (general 12.6-16.5 ms, anti-shear
# 10.1-11.5 ms, two sweeps) and a little slower at 2^12.  A block holds
# _BLOCK // N^2 whole matrices of a stack while N <= 128, and rows of one
# matrix past that.
_BLOCK = 1 << 14


# The largest N of a stack that holds a b != 0 matrix.  The general
# kernel's int64 blocks hold quadratic exponents below 3 L N^2 in units of
# 1/L, L = lcm(8, 4N, 2N|b|) <= 8N|b|, and build_many hands it |b| <= 4N
# only, so below 96 N^4, which is < 2^63 up to N = 17,605.
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
        jh, th = _h_eighths(m.a, m.b)
        # G's exponent over 2|b'| is c x^2, x = inv gamma/2 (gamma even) or
        # inv gamma (odd) mod |b'|
        jg, tg, inv, parity, c = gauss._branch(n_b * m.a, m.b // g)
        # |b|, a mod |b|, g, |b'|, inv, parity, c, the exponent of
        # h(a,b) and of G's lead, L/2|b'|, L/2N|b|, sgn(b) a^-1 mod |b|, L,
        # L/4N and the offset of the matrix's (N, N_b) table
        params.append((b_abs, m.a % b_abs, g, beta, inv, parity, c,
                       (th + tg + 4 * (jh < 0) + 4 * (jg < 0)) % 8 * L // 8,
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


def _build_general(ms: list, n: int) -> np.ndarray:
    """Stack of U_N(A) for matrices A = ms[k] with b != 0.

    Raises ExponentError(k) at the first matrix ms[k] found with an entry
    off the 4N-th roots of unity; build_many names it.
    """
    # build_many has checked N <= _MAX_N and lifted every |b| > 4N
    q = np.arange(n, dtype=np.int64)
    qq = q * q
    powers = np.array([qq, q, qq])
    # by kind: |b| = 1, and Gauss exponents tabulated over 2|b| residues
    groups = ([], [])
    for k, m in enumerate(ms):
        groups[abs(m.b) > 1].append(k)
    u = np.empty((len(ms), n, n), dtype=np.complex128)
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
            # (K, N) vectors, or for one matrix (N,) ones, so that its
            # blocks are 2-D and written to u[k] in place
            if len(chunk) == 1:
                row, cross, col = (x * p for x, p in zip(coef[0], powers))
                dest = u[idx[0]]
            else:
                parts = np.array(coef, dtype=np.int64)[:, :, None] * powers
                row, cross, col = parts[:, 0], parts[:, 1], parts[:, 2]
                # a chunk that is a run of the stack is written in place,
                # any other chunk scattered to its places
                run = idx[-1] - idx[0] == len(idx) - 1
                dest = u[idx[0]:idx[-1] + 1] if run else None
            with_col = any(m.a for m in chunk)
            unit, step = (x[0] if len(set(x)) == 1 else np.array(x)[:, None, None]
                          for x in (units, [x // (4 * n) for x in units]))
            span, same = rows, None
            if kind and len(chunk) == 1 and abs(chunk[0].b) <= rows < n:
                # the Gauss exponents of row Q depend on Q mod |b| only, so
                # every block of a multiple of |b| rows reads the same ones
                span -= rows % abs(chunk[0].b)
                same = exps[r_col + r_row[:span, None]]
            for r0 in range(0, n, span):
                num = cross[..., r0:r0 + span, None] * q
                num += row[..., r0:r0 + span, None]
                if with_col:
                    num += col[..., None, :]
                # num mod L by floor division, which numpy runs by libdivide
                e = num // unit
                e *= -unit
                e += num
                if kind:
                    e += (same[:n - r0] if same is not None else
                          exps[r_col[..., None, :] + r_row[..., r0:r0 + span, None]])
                    k = np.floor_divide(e, step, out=num)
                    e -= k * step
                    if e.any():
                        bad = e.reshape(len(chunk), -1).any(axis=1)
                        raise ExponentError(idx[int(np.flatnonzero(bad)[0])])
                    e = k
                if dest is None:
                    u[idx, r0:r0 + span] = roots[e]
                else:
                    dest[..., r0:r0 + span, :] = roots[e]
    return u


def build_many(ms, n: int, check: bool = True) -> np.ndarray:
    """Propagators U_N(A) of a stack of theta matrices at one dimension N.

    Returns the complex (K, N, N) array whose k-th matrix is
    build(ms[k], n, check) bit for bit; see build for the parameters.  An
    empty stack is a ValueError.  With check, the first matrix that is not
    unitary raises UnitarityError naming it and its place in the stack.
    """
    ms = list(ms)
    for m in ms:
        require_theta(m)
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    if not ms:
        raise ValueError("build_many needs at least one matrix")
    shears = [k for k, m in enumerate(ms) if m.b == 0]
    general = [k for k, m in enumerate(ms) if m.b]
    if general and n > _MAX_N:
        raise ValueError(f"N = {n} is too large for the int64 propagator "
                         f"kernel, which takes N <= {_MAX_N} when b != 0")
    # U_N(A) depends on A only mod 4N, and the lift is general too
    kernel = [lift_theta(reduce_mod(m, 4 * n)) if abs(m.b) > 4 * n else m
              for m in ms]

    def named(k: int) -> str:
        where = f" (stack member {k})" if len(ms) > 1 else ""
        return f"propagator of {ms[k]}{where} at N={n}"

    try:
        if not general:
            u = _build_shear(kernel, n)
        elif not shears:
            u = _build_general(kernel, n)
        else:
            u = np.empty((len(kernel), n, n), dtype=np.complex128)
            u[shears] = _build_shear([kernel[k] for k in shears], n)
            u[general] = _build_general([kernel[k] for k in general], n)
    except ExponentError as err:
        k = general[err.args[0]]
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
