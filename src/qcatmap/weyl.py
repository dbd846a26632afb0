"""Weyl-Heisenberg translations, quantized observables, and exact conjugation.

States live on Z/NZ; the basis vector delta_nu takes the value sqrt(N) at nu
so that the inner product (1/N) * sum conj(phi) psi makes them orthonormal.
The elementary translations are

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
every int64 small for modes of any size.  The per-mode sweep works one n1
row at a time: the N Weyl operators of the row are scattered into one
(N, N, N) stack and conjugated by a single batched product, with the same
phases and product order as the one-mode-at-a-time loop, so the errors are
the same bits while memory stays O(N^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .phases import e_frac_array
from .propagator import Report, _drive, build
from .sl2 import Mat2

Mode = tuple[int, int]
Observable = Mapping[Mode, complex]

EGOROV_TOL = 1e-8  # times N


def delta_basis(nu: int, n: int) -> np.ndarray:
    """Basis vector with value sqrt(N) at position nu, 0 elsewhere."""
    if not 0 <= nu < n:
        raise IndexError(f"position {nu} outside 0..{n - 1}")
    v = np.zeros(n, dtype=np.complex128)
    v[nu] = math.sqrt(n)
    return v


def symplectic_form(m: Mode, n: Mode) -> int:
    return m[0] * n[1] - m[1] * n[0]


def _weyl_stack(n1: np.ndarray, n2: np.ndarray, n: int) -> np.ndarray:
    """Stack of T_N(n1[k], n2[k]) for int64 modes already reduced mod 2N."""
    q = np.arange(n, dtype=np.int64)
    num = 2 * (n1 % n)[:, None] * q + ((n1 * n2) % (2 * n))[:, None]
    stack = np.zeros((len(n1), n, n), dtype=np.complex128)
    k = np.arange(len(n1))[:, None]
    stack[k, q, (q + n2[:, None]) % n] = e_frac_array(num, 2 * n)
    return stack


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
    return _weyl_stack(n1, n2, n)[0]


def quantize(f: Observable, n: int) -> np.ndarray:
    """Op_N(f) = sum of fhat(m) T_N(m) over the support of f."""
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


def egorov_mode_errors(m: Mat2, n: int) -> np.ndarray:
    """Conjugation error of every single mode (n1, n2) in [0, N)^2.

    Entry (n1, n2) is max |U^-1 T_N(n) U - T_N(A^t n)|, computed one n1 row
    at a time as a batched product over the row's N modes.
    """
    u = build(m, n)
    uh = u.conj().T
    a, b, c, d = (x % (2 * n) for x in m.entries())
    n2 = np.arange(n, dtype=np.int64)
    errs = np.empty((n, n))
    for n1 in range(n):
        conj = uh @ _weyl_stack(np.full(n, n1, dtype=np.int64), n2, n) @ u
        conj -= _weyl_stack((a * n1 + c * n2) % (2 * n),
                            (b * n1 + d * n2) % (2 * n), n)
        errs[n1] = np.abs(conj).max(axis=(1, 2))
    return errs


@dataclass(frozen=True)
class BracketDeviation:
    """Distance of the scaled commutator from the quantized Poisson bracket."""

    absolute: float
    relative: float


def bracket_deviation(mode1: Mode, mode2: Mode, n: int) -> BracketDeviation:
    """Compare (N/2pi) [T(m), T(n)] with Op of the Poisson bracket.

    For single modes the bracket is {e_m, e_n} = 4 pi^2 omega(m, n) e_{m+n}.
    The two sides differ by a fixed normalization, so the absolute deviation
    does not shrink with N; the deviation relative to the commutator norm is
    the quantity that decreases toward its limit and is what trend tests
    should assert on.  Requires omega(mode1, mode2) != 0 mod N.
    """
    comm = weyl_op(mode1, n) @ weyl_op(mode2, n) - weyl_op(mode2, n) @ weyl_op(mode1, n)
    scaled = (n / (2 * math.pi)) * comm
    omega = symplectic_form(mode1, mode2)
    summed = (mode1[0] + mode2[0], mode1[1] + mode2[1])
    bracket_op = 4 * math.pi**2 * omega * weyl_op(summed, n)
    dev = float(np.abs(scaled - bracket_op).max())
    base = float(np.abs(scaled).max())
    rel = dev / base if base > 0 else math.inf
    return BracketDeviation(dev, rel)
