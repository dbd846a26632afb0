"""Exact evaluation of rational phases e(x) = exp(2*pi*i*x).

Phase arguments are kept as integer numerator/denominator pairs and reduced
mod 1 exactly before any trigonometric call, so precision does not degrade
with the size of the integers involved.  When an array holds at least as
many numerators as the denominator, its phases are gathered from the den
roots of unity, computed with the same floating-point expression, so the
values equal those of the elementwise exp path bit for bit.
"""

from __future__ import annotations

import cmath

import numpy as np

TWO_PI = 2.0 * np.pi

# e(t/8) for t = 0..7, the only eighth-roots the closed forms need
_EIGHTH = tuple(cmath.exp(2j * cmath.pi * t / 8) for t in range(8))


def e_frac(num: int, den: int) -> complex:
    """e(num/den) for integers with den != 0, reduced mod 1 exactly."""
    if den < 0:
        num, den = -num, -den
    return cmath.exp(2j * cmath.pi * ((num % den) / den))


def e_frac_array(num, den: int) -> np.ndarray:
    """Vectorized e(num/den) for an int64 array of numerators."""
    if den < 0:
        num, den = -num, -den
    r = num % den
    if den <= np.size(r):
        return np.exp(2j * np.pi * (np.arange(den) / den))[r]
    return np.exp(2j * np.pi * (r / den))


def e8(t: int) -> complex:
    """e(t/8) from a fixed table of eighth roots of unity."""
    return _EIGHTH[t % 8]
