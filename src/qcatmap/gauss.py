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
ValueError for |beta| > 10^6, and gauss_closed_many for a gamma outside
int64, where gauss_closed takes over; elsewhere the two agree bit for bit.
The closed form is derived once: _lead's leading constant jac e(t/8), whose
inverse is the propagator's h, and _branch's quadratic phase
e(c x^2 / (2|beta|)) with x = inv * (gamma >> (1 - parity)) mod |beta|.
gauss_closed evaluates it on Python ints, gauss_closed_many on int64 rows
of alphas at one beta, of any branches (one alpha is a row of one), and
the propagator kernel adds t and c x^2 to its integer exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numtheory import NotCoprimeError, jacobi, require_integer, sign
from .phases import e8, e_frac, e_frac_array

# Largest |beta| of the int64 array routines: at |beta| = 10^6 every
# numerator in gauss_direct and gauss_closed_many stays below
# (2|beta|)^3 + (2|beta|)^2 = 8.000004e18 < 2^63.
_MAX_ARRAY_BETA = 1_000_000


@dataclass(frozen=True)
class GaussParams:
    """Integer parameters (alpha, beta, gamma) with beta != 0, as Python ints."""

    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
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


def _lead(alpha: int, beta: int) -> tuple[int, int]:
    """G(alpha, beta, .)'s leading constant jac * e(t/8) as (jac, t), t in
    [0, 8), for coprime alpha, beta; it depends on the parity of beta only.
    On a theta top row (a, b), jac * e(-t/8) is h(a, b), its inverse."""
    if beta % 2:
        return jacobi(abs(alpha), abs(beta)), -sign(alpha * beta) * (abs(beta) - 1) % 8
    return jacobi(abs(beta), abs(alpha)), sign(alpha * beta) * abs(alpha) % 8


def _branch(alpha: int, beta: int) -> tuple[int, int, int, int, int]:
    """Closed-form branch of coprime alpha, beta: (jac, t, inv, parity, c).

    (jac, t) is _lead's; k = 4 if alpha and beta are odd (parity 1, gamma
    odd), else 1 (parity 0); inv = (k alpha)^-1 mod |beta| and
    c = -k sgn(beta) alpha mod 2|beta|, so that for every gamma of that parity

        G(alpha, beta, gamma) = jac e(t/8) e(c x^2 / (2|beta|)),
        x = inv * (gamma >> (1 - parity)) mod |beta|.
    """
    beta_abs, parity = abs(beta), alpha % 2 & beta % 2
    k = 4 if parity else 1
    return (*_lead(alpha, beta), pow(k * alpha, -1, beta_abs), parity,
            -k * sign(beta) * alpha % (2 * beta_abs))


def gauss_closed(p: GaussParams) -> complex:
    """Closed-form value of G(alpha, beta, gamma), for any beta.

    Per parity branch of (alpha, beta, gamma):

      alpha even, beta odd, gamma even:
          jacobi(|a|,|b|) e(-sgn(ab)(|b|-1)/8) e(-(a*ainv^2/(2b))*(g/2)^2)
      alpha odd, beta even, gamma even:
          jacobi(|b|,|a|) e(+sgn(ab)|a|/8)     e(-(a*ainv^2/(2b))*(g/2)^2)
      alpha odd, beta odd, gamma odd:
          jacobi(|a|,|b|) e(-sgn(ab)(|b|-1)/8) e(-2a*w^2*g^2/b),  w = (4a)^-1 mod |b|

    with all inverses taken mod |beta|; the resulting value does not depend
    on the representative chosen.  Each form is _branch's
    jac e(t/8) e(c x^2 / (2|beta|)), evaluated here on Python ints.
    As gauss_closed_many: NotCoprimeError if gcd(alpha, beta) > 1, and 0
    if gamma lacks the branch's parity (alpha*beta + gamma odd).
    """
    if math.gcd(p.alpha, p.beta) != 1:
        raise NotCoprimeError("closed form requires gcd(alpha, beta) = 1")
    jac, t, inv, parity, c = _branch(p.alpha, p.beta)
    if p.gamma % 2 != parity:
        return 0j
    x = inv * (p.gamma >> (1 - parity)) % abs(p.beta)
    return jac * e8(t) * e_frac(c * x * x, 2 * abs(p.beta))


def gauss_closed_many(alpha, beta, gammas) -> np.ndarray:
    """Closed-form values for an array of gamma values at fixed alpha, beta.

    Requires beta != 0 (ValueError) and gcd(alpha, beta) = 1.  Entries
    whose gamma has the wrong parity for the branch (so alpha*beta + gamma
    is odd) are returned as 0, matching the period-averaged direct sum.

    alpha may be an integer or a 1-D row of integers, of any branches; any
    other shape is a ValueError.  A row gives one row per alpha, shape
    (len(alpha), *np.shape(gammas)), and each row equals the call with
    that alpha alone bit for bit: a single alpha is a row of one.  numpy
    integers work as Python ints.

    One pass checks each pair in turn: |beta| <= 10^6, or ValueError (the
    values are int64; gauss_closed takes any beta), then gcd = 1, or
    NotCoprimeError, then takes its branch.  An empty row gives an empty
    result.  Gammas of a non-integer dtype (float, bool, or object, as of
    Python ints past int64) and a gamma outside int64 are ValueErrors too.
    """
    beta = require_integer(beta, "beta")
    if beta == 0:
        raise ValueError("beta must be nonzero")
    ndim = np.ndim(alpha)
    if ndim > 1:
        raise ValueError("alpha must be an integer or a 1-D row of integers, "
                         f"not shape {np.shape(alpha)}")
    if (dtype := np.asarray(gammas).dtype).kind not in "iu":
        raise ValueError("gammas must be integers within int64 (gauss_closed takes "
                         f"any), not of dtype {dtype}")
    try:
        gam = np.asarray(gammas, dtype=np.int64)
    except OverflowError:
        raise ValueError("gammas exceed int64; use gauss_closed") from None
    branches = []
    for a in (alpha if ndim else [alpha]):
        a = require_integer(a, "alpha")
        if abs(beta) > _MAX_ARRAY_BETA:
            raise ValueError(f"|beta| = {abs(beta)} exceeds 10^6; use gauss_closed")
        if math.gcd(a, beta) != 1:
            raise NotCoprimeError(f"alpha={a} and beta={beta} share a factor")
        branches.append(_branch(a, beta))
    if not branches:
        return np.zeros((0, *gam.shape), dtype=complex)
    # one row per alpha, broadcast against every gamma axis; beta is |beta|
    # from here on, and the value has period 2|beta| in gamma
    column = (-1,) + (1,) * gam.ndim
    jac, t, *ints = zip(*branches)
    lead = np.array([j * e8(x) for j, x in zip(jac, t)]).reshape(column)
    inv, parity, c = (np.array(v, dtype=np.int64).reshape(column) for v in ints)
    beta = abs(beta)
    gam = gam % (2 * beta)
    x = (inv * (gam >> (1 - parity))) % beta
    vals = e_frac_array(c * x * x, 2 * beta)
    # lead * vals, rounded the same at every batch size: from 256 KiB on,
    # numpy would reuse the temporary in `lead * e_frac_array(...)` in place
    # as vals * lead, which rounds differently
    np.multiply(lead, vals, out=vals)
    vals = np.where(gam % 2 == parity, vals, 0.0)
    return vals if ndim else vals[0]
