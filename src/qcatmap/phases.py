"""Exact evaluation of rational phases e(x) = exp(2*pi*i*x).

Phase arguments are kept as integer numerator/denominator pairs and reduced
mod 1 exactly before any trigonometric call, so precision does not degrade
with the size of the integers involved.  When an array holds at least as
many numerators as the denominator, e_frac_array gathers its phases from
the den roots of unity, computed with the same floating-point expression,
so the values equal those of the elementwise exp path bit for bit.

The propagator kernel evaluates no phase of its own: it reads every entry
of U_N(A) from the 4N roots e_frac_array(arange(4N), 4N), at an exponent
it computes in integers.  The Gauss sums and the Weyl operators call
e_frac_array on their numerators.

From _FLOOR_DIVIDE_FROM numerators on, e_frac_array takes num % den as
num - den * (num // den), in place: numpy's floor_divide by a scalar uses
libdivide and its remainder does not.
"""

from __future__ import annotations

import cmath

import numpy as np

TWO_PI = 2.0 * np.pi

# e(t/8) for t = 0..7, the only eighth-roots the closed forms need
_EIGHTH = tuple(cmath.exp(2j * cmath.pi * t / 8) for t in range(8))

# On 2 cores (numpy 2.4), % and the floor-division form took 0.7 and 1.7 us
# at 8 int64 numerators, 2.6 and 2.5 us at 512, and 62 and 24 us at 2^14.
# With no cutoff, 35 s verify-all runs (most calls are small) read
# op_cost.mean 3% above all-% runs, in 10 of 10 alternating pairs.
# It serves gauss_closed_many in gauss-oracle and weyl._weyl_entries in egorov.
_FLOOR_DIVIDE_FROM = 512


def e_frac(num: int, den: int) -> complex:
    """e(num/den) for integers with den != 0, reduced mod 1 exactly; for
    den < 0, num % den = -((-num) % -den), so r/den is the same float."""
    return cmath.exp(2j * cmath.pi * ((num % den) / den))


def e_frac_array(num, den: int) -> np.ndarray:
    """Vectorized e(num/den) for an int64 array of numerators, den != 0.

    From den numerators on, den exps and a gather cost less than one exp
    per numerator, so the phases are read from the den roots of unity.
    """
    if den < 0:
        num, den = -num, -den
    if np.size(num) < _FLOOR_DIVIDE_FROM:
        r = num % den
    else:
        r = num // den
        r *= -den
        r += num
    if den <= np.size(r):
        return np.exp(2j * np.pi * (np.arange(den) / den))[r]
    z = 2j * np.pi * (r / den)
    return np.exp(z, out=z)


def e8(t: int) -> complex:
    """e(t/8) from a fixed table of eighth roots of unity."""
    return _EIGHTH[t % 8]
