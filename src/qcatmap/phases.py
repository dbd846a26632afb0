"""Exact evaluation of rational phases e(x) = exp(2*pi*i*x).

Phase arguments are kept as integer numerator/denominator pairs and reduced
mod 1 exactly before any trigonometric call, so precision does not degrade
with the size of the integers involved.  When an array holds at least as
many numerators as the denominator, its phases are gathered from the den
roots of unity, computed with the same floating-point expression, so the
values equal those of the elementwise exp path bit for bit.

A caller that evaluates one large array in row blocks (the general
propagator kernel) makes that choice once for the whole array: it builds
root_table(den, whole size) and passes it to e_frac_array with every
block, so a block reads the table exactly when the whole array would.

From _FLOOR_DIVIDE_FROM numerators on, e_frac_array takes num % den as
num - den * (num // den), in place: numpy's floor_divide by a scalar uses
libdivide and its remainder does not.  The general propagator kernel
reads its phases here too, so one size rule holds for every caller.
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
_FLOOR_DIVIDE_FROM = 512


def e_frac(num: int, den: int) -> complex:
    """e(num/den) for integers with den != 0, reduced mod 1 exactly."""
    if den < 0:
        num, den = -num, -den
    return cmath.exp(2j * cmath.pi * ((num % den) / den))


def root_table(den: int, size: int) -> np.ndarray | None:
    """e(j/den) for j in [0, den), or None when den > size.

    size is the number of numerators the table would serve: from den on,
    den exps and a gather cost less than one exp per numerator.
    """
    if den <= size:
        return np.exp(2j * np.pi * (np.arange(den) / den))
    return None


def e_frac_array(num, den: int, roots: np.ndarray | None = None) -> np.ndarray:
    """Vectorized e(num/den) for an int64 array of numerators.

    roots, for den > 0, is root_table(den, size), or a multiple of it, of a
    whole array that num is one block of; without it the rule applies to
    num's own size, which takes the exp path for a block whose whole array
    has no table.
    """
    if den < 0:
        num, den = -num, -den
    if np.size(num) < _FLOOR_DIVIDE_FROM:
        r = num % den
    else:
        r = num // den
        r *= -den
        r += num
    if roots is None:
        roots = root_table(den, np.size(r))
    if roots is not None:
        return roots[r]
    return np.exp(2j * np.pi * (r / den))


def e8(t: int) -> complex:
    """e(t/8) from a fixed table of eighth roots of unity."""
    return _EIGHTH[t % 8]
