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

build_many builds a stack of matrices at one N, and build is the stack of
one.  Per matrix only scalars are made in Python: the theta check, the
lift, h(a, b), gcd(b, N) and the Gauss branch constants.  The b != 0
kernel sorts a stack by kind (|b| = 1; a table of the den = 2N|b| roots
of unity, which is kept, as in phases.e_frac_array, only when
den <= N^2; phases from exp with the Gauss factors over the 2|b|
residues r; or over the grid when 2|b| > N^2) and fills each kind in
blocks of at most _BLOCK entries: _BLOCK // N^2 whole matrices while
N^2 <= _BLOCK, and rows of one matrix past that, so every temporary is
block-sized.  For a block of whole matrices, the Gauss tables (with
h(a,b)/sqrt(N_b) folded in, or at |b| = 1 the 2N phases over sqrt(N)),
the phase numerators, the root tables and their gathers, and the
products are each one numpy pass over all its matrices; the row blocks
of one matrix share the tables made once for it, and the root-table
rule is applied to the whole grid, never to one block.  The result
equals the whole-grid kernels bit for bit.  The guard takes one stacked
Gram product per block of whole matrices up to N = _GRAM_BLOCK, and
unitarity_defect per matrix past that.

The special matrices S (Fourier transform) and P (parity) are the w = 0
anti-shear and m = 0 negative shear respectively.
"""

from __future__ import annotations

import itertools
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

    Past one Gram block, a u with one nonzero per row (a shear or parity)
    takes an O(N^2) path: u^dagger u is then diagonal, holding the column
    sums of |u|^2, so the defect is max |sum - 1|, with no approximation.

    Otherwise u^dagger u, Hermitian for any u, is formed only in its upper
    block triangle: for each block of _GRAM_BLOCK columns starting at lo,
    the block row u[:, lo:hi]^dagger u[:, lo:], whose leading square holds
    that block's diagonal.  Past one block no N x N product or conjugate
    copy is held.  A NaN block maximum stays the defect; a NaN or inf in a
    monomial u reaches its column sum, or makes u not monomial.
    """
    n = u.shape[0]
    if n > _GRAM_BLOCK and np.count_nonzero(u[0]) <= 1:
        nonzero = u != 0
        if (nonzero.sum(axis=1) == 1).all():
            cols = nonzero.argmax(axis=1)
            v = u[np.arange(n), cols]
            norms = np.bincount(cols, v.real**2 + v.imag**2, minlength=n)
            return float(np.abs(norms - 1).max())
    worst = 0.0
    for lo in range(0, n, _GRAM_BLOCK):
        p = u[:, lo:lo + _GRAM_BLOCK].conj().T @ u[:, lo:]
        # the block's diagonal runs down the leading square of p
        p.reshape(-1)[::n - lo + 1] -= 1
        block = np.abs(p).max()
        # not the builtin max, which drops a later NaN, nor np.max over a
        # list, which adds ~5 us to every single-block guard
        if block > worst or math.isnan(block):
            worst = block
    return float(worst)


def _build_shear(ms: list, n: int) -> np.ndarray:
    """Stack of U_N(A) for shears A = (s, 0; m, s): one phase per row."""
    q = np.arange(n, dtype=np.int64)
    two_n = 2 * n
    # row k reads the numerators ((s*m) mod 2N) Q^2 and the columns s*Q mod N
    coef = np.array([(m.a * m.c) % two_n for m in ms])[:, None]
    sign = np.array([m.a for m in ms])[:, None]
    u = np.zeros((len(ms), n, n), dtype=np.complex128)
    u[np.arange(len(ms))[:, None], q, sign * q % n] = e_frac_array(coef * q * q, two_n)
    return u


# Entries per block of the general kernel: each of its temporaries is one
# block (128 KiB of int64, 256 KiB of complex) that stays in cache.  On 2
# cores with 4 MiB of L2, median build(A, 1024, check=False) times were
# flat from 2^13 to 2^17 entries (general 12.6-16.5 ms, anti-shear
# 10.1-11.5 ms, two sweeps) and a little slower at 2^12.  A block holds
# _BLOCK // N^2 whole matrices of a stack while N <= 128, and rows of one
# matrix past that.
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


def _gauss_tables(ms: list, n: int, q: np.ndarray, on_grid: bool):
    """Gauss factors of the |b| >= 2 matrices ms, with h(a,b)/sqrt(N_b)
    folded in, laid end to end, and the row and column parts of each
    matrix's index into them: (K, N), or (N,) for one matrix.

    G depends on r = (aQ' - Q) mod |b| alone (zero unless g | 2r), shifted
    by |b| here to need no N x N `%`: it is tabulated over [0, 2|b|) and
    read at r_col[Q'] + r_row[Q], or, on_grid (every 2|b| > N^2), over
    each matrix's own r and read back by grid position.
    """
    # per matrix: g = gcd(b, N), |b|, a mod |b|, the alpha = N_b a and
    # beta = b' of its Gauss sums, and c = h(a,b)/sqrt(N_b)
    scalars = []
    for m in ms:
        g = math.gcd(m.b, n)
        scalars.append((g, abs(m.b), m.a % abs(m.b), n // g * m.a, m.b // g,
                        h_phase(m.a, m.b) / math.sqrt(n // g)))
    g, b_abs, a_mod, alphas, betas, c = zip(*scalars)
    one = len(ms) == 1
    b_col, a_col = ((b_abs[0], a_mod[0]) if one else
                    (np.array(b_abs)[:, None], np.array(a_mod)[:, None]))
    r_row, r_col = b_col - q % b_col, a_col * q % b_col
    if on_grid:
        keys = (r_col[..., None, :] + r_row[..., :, None]).ravel()
        r_row, r_col = n * q, q
        counts = [n * n] * len(ms)
    else:
        counts = [2 * x for x in b_abs]
        keys = np.arange(sum(counts))
    if one:
        c = c[0]
    else:
        # each matrix reads its own run of the table
        start = np.array(list(itertools.accumulate(counts, initial=0))[:-1])[:, None]
        if not on_grid:
            keys -= np.repeat(start, counts)
        r_row = r_row + start
        c = np.repeat(c, counts)
    keys *= 2
    if max(g) > 1:
        g_keys = g[0] if len(set(g)) == 1 else np.repeat(g, counts)
        vanish = keys % g_keys != 0
        keys //= g_keys
    gvals = gauss.gauss_closed_many(alphas, betas, keys, counts=counts)
    if max(g) > 1:
        gvals[vanish] = 0
    # c is folded into the table in the operand order of the whole-grid
    # product c * gvals[pos] * phases, which numpy computes in place as
    # gvals[pos] * c from 256 KiB (N >= 128) on: a complex product can
    # round differently with its operands swapped.
    return (gvals * c if n >= 128 else c * gvals), r_row, r_col


def _build_general(ms: list, n: int) -> np.ndarray:
    """Stack of U_N(A) for matrices A = ms[k] with b != 0."""
    # build_many has checked _fits_kernel(m.b, n) for every m
    q = np.arange(n, dtype=np.int64)
    qq = q * q
    powers = np.array([qq, q, qq])
    # by kind: |b| = 1; a table of the den = 2N|b| roots (den <= N^2);
    # phases from exp, with the Gauss factors tabulated over 2|b| <= N^2
    # residues, or over the grid
    groups = ([], [], [], [])
    for k, m in enumerate(ms):
        b_abs = abs(m.b)
        groups[0 if b_abs == 1 else 1 if 2 * b_abs <= n
               else 2 if 2 * b_abs <= n * n else 3].append(k)
    u = np.empty((len(ms), n, n), dtype=np.complex128)
    step = max(1, _BLOCK // (n * n))
    rows = max(1, _BLOCK // (step * n))
    for kind, group in enumerate(groups):
        for lo in range(0, len(group), step):
            idx = group[lo:lo + step]
            chunk = [ms[k] for k in idx]
            dens = [2 * n * abs(m.b) for m in chunk]
            # the parts d Q^2, -2 Q Q' and a Q'^2 of the phase numerator,
            # with their coefficients times sgn(b) reduced mod den
            coef = [((m.d if m.b > 0 else -m.d) % den, (-2 if m.b > 0 else 2) % den,
                     (m.a if m.b > 0 else -m.a) % den)
                    for m, den in zip(chunk, dens)]
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
            den = dens[0] if len(set(dens)) == 1 else np.array(dens)[:, None, None]
            if kind == 0:
                # h = G = 1: gather e(num/2N)/sqrt(N) from all 2N phases, of
                # which the grid reads N^2 >= 2N from N = 2 on
                roots = root_table(den, den) / math.sqrt(n)
            else:
                gauss_table, r_row, r_col = _gauss_tables(chunk, n, q, kind == 3)
                roots = root_table(den, n * n) if kind == 1 else None
            for r0 in range(0, n, rows):
                num = cross[..., r0:r0 + rows, None] * q
                num += row[..., r0:r0 + rows, None]
                if with_col:
                    num += col[..., None, :]
                phases = e_frac_array(num, den, roots)
                out = None if dest is None else dest[..., r0:r0 + rows, :]
                if kind:
                    phases = np.multiply(
                        gauss_table[r_col[..., None, :] + r_row[..., r0:r0 + rows, None]],
                        phases, out=out)
                if out is None:
                    u[idx, r0:r0 + rows] = phases
                elif not kind:
                    out[...] = phases
    return u


def _stack_defects(u: np.ndarray) -> list[float]:
    """unitarity_defect of every matrix of a stack, bit for bit.

    Up to one Gram block each (N <= _GRAM_BLOCK), the Gram matrices of
    _BLOCK // N^2 matrices are one stacked product, which runs each slice
    through the product unitarity_defect makes; past that, or for a stack
    of one, every matrix goes through unitarity_defect.
    """
    n = u.shape[-1]
    if n > _GRAM_BLOCK or len(u) == 1:
        return [unitarity_defect(x) for x in u]
    defects = []
    step = max(1, _BLOCK // (n * n))
    for lo in range(0, len(u), step):
        part = u[lo:lo + step]
        p = part.conj().transpose(0, 2, 1) @ part
        p.reshape(len(p), -1)[:, ::n + 1] -= 1
        defects += np.abs(p).max(axis=(1, 2)).tolist()
    return defects


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
    shears, general, kernel = [], [], []
    for k, m in enumerate(ms):
        if m.b == 0:
            shears.append(k)
        else:
            general.append(k)
            if not _fits_kernel(m.b, n):
                # U_N(A) depends on A only mod 4N, and the lift is general too
                m = lift_theta(reduce_mod(m, 4 * n))
                if not _fits_kernel(m.b, n):
                    raise ValueError(f"N = {n} is too large for the int64 "
                                     "propagator kernel")
        kernel.append(m)
    if not general:
        u = _build_shear(kernel, n)
    elif not shears:
        u = _build_general(kernel, n)
    else:
        u = np.empty((len(kernel), n, n), dtype=np.complex128)
        u[shears] = _build_shear([kernel[k] for k in shears], n)
        u[general] = _build_general([kernel[k] for k in general], n)
    if check:
        tol = UNITARITY_TOL * math.sqrt(n)
        defects = _stack_defects(u)
        # not d < tol also catches a NaN defect
        failed = [k for k, d in enumerate(defects) if not d < tol]
        if failed:
            k = failed[0]
            where = f" (stack member {k})" if len(ms) > 1 else ""
            raise UnitarityError(f"propagator of {ms[k]}{where} at N={n} is not "
                                 f"unitary (defect {defects[k]:.3e})")
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
