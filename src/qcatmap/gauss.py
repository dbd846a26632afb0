"""Normalized quadratic Gauss sums and their closed-form evaluation.

The sum studied here is

    G(alpha, beta, gamma) = |beta|^(-1/2) * sum_k e((alpha*k^2 + gamma*k) / (2*beta))

with e(x) = exp(2*pi*i*x) and integer parameters, beta != 0.  The summand has
period 2|beta| in k, and period |beta| exactly when alpha*beta + gamma is
even; gauss_direct averages over the full 2|beta| period, which reproduces
the |beta|-term sum whenever that one is well defined and vanishes
identically when alpha*beta + gamma is odd.

For coprime alpha, beta the nonzero values have unit modulus and a closed
form per parity branch, evaluated by gauss_closed through Jacobi symbols,
eighth roots of unity and one modular inverse, on Python ints for any
beta.  gauss_direct and gauss_closed_many work in int64 and raise
ValueError for |beta| > 10^6, where gauss_closed takes over.
gauss_closed_many takes rows of alphas at one beta (one alpha is a row of
one), and checks every pair in one pass before it lays their branch
constants out as columns.  _branch gives each branch's leading
constant as a Jacobi sign and an eighth-root index, which the propagator
kernel adds to its integer exponents and the values here multiply out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numtheory import NotCoprimeError, jacobi, sign
from .phases import e8, e_frac, e_frac_array

# Largest |beta| of the int64 array routines: at |beta| = 10^6 every
# numerator in gauss_direct and gauss_closed_many stays below
# (2|beta|)^3 + (2|beta|)^2 = 8.000004e18 < 2^63.
_MAX_ARRAY_BETA = 1_000_000


class VanishingError(ValueError):
    """Raised when the closed form is requested for a vanishing sum."""


class UnsupportedParityError(ValueError):
    """Raised when gauss_closed_many's alphas span two closed-form branches."""


@dataclass(frozen=True)
class GaussParams:
    """Integer parameters (alpha, beta, gamma) with beta != 0."""

    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        if self.beta == 0:
            raise ValueError("beta must be nonzero")


def is_nonvanishing(p: GaussParams) -> bool:
    """True iff gcd(alpha, beta) = 1 and alpha*beta + gamma is even.

    These are the conditions under which the period-averaged sum is nonzero
    for parameters arising from propagators (where alpha and beta are
    coprime by construction).
    """
    return math.gcd(p.alpha, p.beta) == 1 and (p.alpha * p.beta + p.gamma) % 2 == 0


def gauss_direct(p: GaussParams) -> complex:
    """Direct summation oracle, averaged over the full period 2|beta|.

    Equals the |beta|-term sum |beta|^(-1/2) * sum_{k=0}^{|beta|-1} whenever
    alpha*beta + gamma is even (the summand then has period |beta|), and is
    exactly zero when alpha*beta + gamma is odd.  Sums in int64 and
    raises ValueError for |beta| > 10^6; gauss_closed takes any beta.
    """
    beta_abs = abs(p.beta)
    if beta_abs > _MAX_ARRAY_BETA:
        raise ValueError(f"|beta| = {beta_abs} exceeds 10^6; use gauss_closed")
    n = 2 * beta_abs
    s = 1 if p.beta > 0 else -1
    a_r = (s * p.alpha) % n
    g_r = (s * p.gamma) % n
    k = np.arange(n, dtype=np.int64)
    total = e_frac_array(a_r * k * k + g_r * k, n).sum()
    return complex(total) / (2.0 * math.sqrt(beta_abs))


def _branch(alpha: int, beta: int) -> tuple[int, int, int, int]:
    """Closed-form branch selected by the parities of alpha and beta: the
    leading constant jac * e(t/8) as the Jacobi sign jac and the
    eighth-root index t in [0, 8), the modular inverse, and the required
    gamma parity."""
    beta_abs = abs(beta)
    if alpha % 2 == 0:
        # alpha even, beta odd, gamma even
        return (jacobi(abs(alpha), beta_abs), -sign(alpha * beta) * (beta_abs - 1) % 8,
                pow(alpha, -1, beta_abs), 0)
    if beta % 2 == 0:
        # alpha odd, beta even, gamma even
        return (jacobi(beta_abs, abs(alpha)), sign(alpha * beta) * abs(alpha) % 8,
                pow(alpha, -1, beta_abs), 0)
    # alpha odd, beta odd, gamma odd
    return (jacobi(abs(alpha), beta_abs), -sign(alpha * beta) * (beta_abs - 1) % 8,
            pow(4 * alpha, -1, beta_abs), 1)


def gauss_closed(p: GaussParams) -> complex:
    """Closed-form value of a nonvanishing sum.

    Dispatches on the parities of (alpha, beta, gamma):

      alpha even, beta odd, gamma even:
          jacobi(|a|,|b|) e(-sgn(ab)(|b|-1)/8) e(-(a*ainv^2/(2b))*(g/2)^2)
      alpha odd, beta even, gamma even:
          jacobi(|b|,|a|) e(+sgn(ab)|a|/8)     e(-(a*ainv^2/(2b))*(g/2)^2)
      alpha odd, beta odd, gamma odd:
          jacobi(|a|,|b|) e(-sgn(ab)(|b|-1)/8) e(-2a*w^2*g^2/b),  w = (4a)^-1 mod |b|

    with all inverses taken mod |beta|; the resulting value does not depend
    on the representative chosen.  Raises VanishingError if is_nonvanishing
    fails, the one case in which gamma lacks the parity of the branch.
    """
    if not is_nonvanishing(p):
        raise VanishingError(f"sum vanishes for {p}")
    jac, t, inv, gamma_parity = _branch(p.alpha, p.beta)
    lead = jac * e8(t)
    beta_abs = abs(p.beta)
    if gamma_parity == 0:
        x = (inv * (p.gamma // 2)) % beta_abs
        return lead * e_frac(-p.alpha * x * x, 2 * p.beta)
    x = (inv * p.gamma) % beta_abs
    return lead * e_frac(-2 * p.alpha * x * x, p.beta)


def gauss_closed_many(alpha, beta, gammas) -> np.ndarray:
    """Closed-form values for an array of gamma values at fixed alpha, beta.

    Requires gcd(alpha, beta) = 1.  Entries whose gamma has the wrong parity
    for the branch (so alpha*beta + gamma is odd) are returned as 0, matching
    the period-averaged direct sum.

    alpha may also be a 1-D integer array whose entries share one branch
    (at fixed beta, one parity of alpha).  The result then has one row per
    alpha, shape (len(alpha), *np.shape(gammas)), and each row equals the
    call with that alpha alone bit for bit: a single alpha is a row of one.

    One pass checks each pair in turn: |beta| <= 10^6, or ValueError (the
    values are int64; gauss_closed takes any beta), then gcd = 1, or
    NotCoprimeError, then takes its branch.  Rows of alpha spanning two
    branches, or none, then raise UnsupportedParityError.
    """
    gam = np.asarray(gammas, dtype=np.int64)
    rows = isinstance(alpha, np.ndarray)
    alphas = alpha.tolist() if rows else [alpha]
    branches = []
    for a in alphas:
        if abs(beta) > _MAX_ARRAY_BETA:
            raise ValueError(f"|beta| = {abs(beta)} exceeds 10^6; use gauss_closed")
        if math.gcd(a, beta) != 1:
            raise NotCoprimeError(f"alpha={a} and beta={beta} share a factor")
        branches.append(_branch(a, beta))
    if len({parity for *_, parity in branches}) != 1:
        raise UnsupportedParityError(
            f"alphas {alphas} do not share one branch at beta={beta}")
    # one row per alpha, broadcast against every gamma axis; beta is |beta|
    # from here on, and the values read alpha only mod 2|beta|, so it
    # enters the int64 rows reduced
    column = (-1,) + (1,) * gam.ndim
    jac, t, inv, (parity, *_) = zip(*branches)
    lead = np.array([j * e8(x) for j, x in zip(jac, t)]).reshape(column)
    inv = np.array(inv, dtype=np.int64).reshape(column)
    s, beta = (1 if beta > 0 else -1), abs(beta)
    alpha = np.array([a % (2 * beta) for a in alphas], dtype=np.int64).reshape(column)
    # the value has period 2|beta| in gamma
    gam = gam % (2 * beta)
    valid = (gam % 2) == parity
    # even gamma branch: e(-s (alpha mod 2|beta|) x^2 / (2|beta|)) with
    # x = inv * gamma/2; odd: e(-s 2 (alpha mod |beta|) x^2 / |beta|) with
    # x = inv * gamma, each over the den written here
    den = beta << (1 - parity)
    x = (inv * (gam >> (1 - parity))) % beta
    num = -(((alpha % den) << parity) * x * x) * s
    vals = e_frac_array(num, den)
    # lead * vals, rounded the same at every batch size: from 256 KiB on,
    # numpy would reuse the temporary in `lead * e_frac_array(...)` in place
    # as vals * lead, which rounds differently
    np.multiply(lead, vals, out=vals)
    vals = np.where(valid, vals, 0.0)
    return vals if rows else vals[0]
