"""Exact integer arithmetic: signs, Jacobi symbols and the dimension check.

All functions operate on arbitrary-precision Python ints.
"""

from __future__ import annotations

import operator


class NotCoprimeError(ValueError):
    """Raised when a formula that needs coprime arguments gets a shared factor."""


def require_dimension(n, what: str = "dimension") -> int:
    """N (or the count `what`) as a Python int; ValueError unless an integer >= 1."""
    if not hasattr(n, "__index__") or operator.index(n) < 1:
        raise ValueError(f"{what} must be a positive integer")
    return operator.index(n)


def require_integer(x, what: str) -> int:
    """x as a Python int (a bool or numpy int is one), else a ValueError
    naming `what`."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {x!r}") from None


def sign(x: int) -> int:
    """Signum: -1, 0 or 1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def jacobi(q: int, r: int) -> int:
    """Jacobi symbol (q/r) for odd positive r, extended multiplicatively from
    the Legendre symbol.  Returns 0 when gcd(q, r) > 1; jacobi(q, 1) = 1.
    """
    if type(q) is not int or type(r) is not int:
        q, r = require_integer(q, "q"), require_integer(r, "r")
    if r < 1:
        raise ValueError("jacobi modulus must be positive")
    if r % 2 == 0:
        raise ValueError("jacobi modulus must be odd")
    q %= r
    result = 1
    while q != 0:
        while q % 2 == 0:
            q //= 2
            # (2/r) = (-1)^((r^2-1)/8)
            if r % 8 in (3, 5):
                result = -result
        q, r = r, q
        # quadratic reciprocity flips the sign iff both are 3 mod 4
        if q % 4 == 3 and r % 4 == 3:
            result = -result
        q %= r
    return result if r == 1 else 0

