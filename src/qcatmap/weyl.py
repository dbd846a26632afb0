"""Weyl-Heisenberg translations, quantized observables, and exact conjugation.

States live on Z/NZ.  The elementary translations are

    [t1 f](Q) = f(Q) e(Q/N)          (momentum kick)
    [t2 f](Q) = f(Q + 1)             (position shift)

and the Weyl operator of an integer mode n = (n1, n2) is

    T_N(n) = e(-n1*n2/(2N)) t2^n2 t1^n1,

which satisfies T_N(m) T_N(n) = e(-omega(m, n)/(2N)) T_N(m + n) with the
symplectic form omega(m, n) = m1*n2 - m2*n1.  An observable is a finite
Fourier series f = sum_m fhat(m) e(q*m1 + p*m2); its quantization is
Op_N(f) = sum_m fhat(m) T_N(m).

Conjugation by a cat-map propagator transports modes exactly through the
transpose action n -> (a*n1 + c*n2, b*n1 + d*n2): for every theta matrix A,

    U_N(A)^-1 T_N(n) U_N(A) = T_N(A^t n)

holds to rounding error, with no extra phase.  (The convention was fixed by
checking the shear A = T2 at N = 4 over all modes and is used throughout.)

T_N(n) depends on the mode only mod 2N, so modes and matrix entries are
reduced mod 2N as Python integers before any array arithmetic; this keeps
every int64 small for modes of any size.  The per-mode sweep works in
blocks of whole n1 rows: the Weyl operators of a block's modes are
scattered into one stack of at most _BLOCK entries (one row of N modes when
a row alone is larger), which every matrix at that N conjugates by one
stacked product, and the image operators are subtracted at their nonzeros.
The phases and product order are those of the one-mode-at-a-time loop, so
the errors are the same bits while memory stays O(N^3).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .phases import e_frac_array
from .propagator import Report, _drive, build, build_many
from .sl2 import Mat2

Mode = tuple[int, int]
Observable = Mapping[Mode, complex]

EGOROV_TOL = 1e-8  # times N

# entries of one mode stack in _mode_errors: 4 rows of modes at N = 16,
# one row from N = 26 on
_BLOCK = 1 << 14


def _weyl_entries(n1: np.ndarray, n2: np.ndarray, n: int):
    """Index (k, Q, Q') and value of the one nonzero in each row Q of the
    stack of T_N(n1[k], n2[k]), for int64 modes already reduced mod 2N."""
    q = np.arange(n, dtype=np.int64)
    num = 2 * (n1 % n)[:, None] * q + ((n1 * n2) % (2 * n))[:, None]
    at = np.arange(len(n1))[:, None], q, (q + n2[:, None]) % n
    return at, e_frac_array(num, 2 * n)


def weyl_op(mode: Mode, n: int) -> np.ndarray:
    """Weyl operator T_N(mode) as an (N, N) matrix.

    Entry (Q, Q') is e((2*n1*Q + n1*n2)/(2N)) at Q' = Q + n2 mod N and zero
    elsewhere.  Accepts integer modes of any size: T_N(n) depends on n only
    mod 2N, and T_N(n + N*m) equals T_N(n) up to the sign
    (-1)^(n1*m2 + n2*m1 + N*m1*m2).
    """
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    n1, n2 = (np.array([x % (2 * n)], dtype=np.int64) for x in mode)
    at, vals = _weyl_entries(n1, n2, n)
    op = np.zeros((1, n, n), dtype=np.complex128)
    op[at] = vals
    return op[0]


def quantize(f: Observable, n: int) -> np.ndarray:
    """Op_N(f) = sum of fhat(m) T_N(m) over the support of f; N < 1 is a
    ValueError."""
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    op = np.zeros((n, n), dtype=np.complex128)
    for mode, coeff in f.items():
        op += coeff * weyl_op(mode, n)
    return op


def compose_classical(f: Observable, m: Mat2) -> dict[Mode, complex]:
    """Fourier coefficients of f composed with the torus map of m.

    Each mode is carried to its image under the transpose action, so the
    support size is preserved.
    """
    return {
        (m.a * n1 + m.c * n2, m.b * n1 + m.d * n2): coeff
        for (n1, n2), coeff in f.items()
    }


def verify_egorov(m: Mat2, n: int, f: Observable, tol_scale: float = 1.0) -> Report:
    """Check U^-1 Op_N(f) U = Op_N(f o A) for the propagator U of m."""
    u = build(m, n)
    lhs = u.conj().T @ quantize(f, n) @ u
    rhs = quantize(compose_classical(f, m), n)
    err = float(np.abs(lhs - rhs).max())
    return _drive("egorov", [(err, n)], EGOROV_TOL, tol_scale=tol_scale)


def _mode_errors(ms, n: int) -> np.ndarray:
    """(K, N^2) conjugation errors of every mode n1 * N + n2 for each of
    the matrices ms, as egorov_mode_errors computes them for one."""
    n1, n2 = np.divmod(np.arange(n * n, dtype=np.int64), n)
    conjugations = []
    for m, u in zip(ms, build_many(ms, n)):
        a, b, c, d = (x % (2 * n) for x in m.entries())
        conjugations.append((u.conj().T, u, (a * n1 + c * n2) % (2 * n),
                             (b * n1 + d * n2) % (2 * n)))
    step = n * max(1, _BLOCK // n**3)
    errs = np.empty((len(ms), n * n))
    for lo in range(0, n * n, step):
        blk = slice(lo, lo + step)
        at, vals = _weyl_entries(n1[blk], n2[blk], n)
        src = np.zeros((len(vals), n, n), dtype=np.complex128)
        src[at] = vals
        conj = np.empty_like(src)
        for k, (uh, u, im1, im2) in enumerate(conjugations):
            at, vals = _weyl_entries(im1[blk], im2[blk], n)
            np.matmul(uh @ src, u, out=conj)
            conj[at] -= vals
            errs[k, blk] = np.abs(conj).max(axis=(1, 2))
    return errs


def egorov_mode_errors(m: Mat2, n: int) -> np.ndarray:
    """Conjugation error of every single mode (n1, n2) in [0, N)^2.

    Entry (n1, n2) is max |U^-1 T_N(n) U - T_N(A^t n)|, computed in blocks
    of whole n1 rows, as many as keep a block's (modes, N, N) stack within
    _BLOCK entries (at least one), each by one stacked product.
    """
    return _mode_errors([m], n)[0].reshape(n, n)
