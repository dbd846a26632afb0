"""Exact integer arithmetic: modular inverses, Euler phi, Jacobi symbols, CRT.

All functions operate on arbitrary-precision Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class NotCoprimeError(ValueError):
    """Raised when a modular inverse is requested for non-coprime arguments."""


@dataclass(frozen=True)
class Residue:
    """A residue class value mod modulus, stored with 0 <= value < modulus."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        if not 0 <= self.value < self.modulus:
            object.__setattr__(self, "value", self.value % self.modulus)


def sign(x: int) -> int:
    """Signum: -1, 0 or 1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def mod_inverse(p: int, q: int) -> Residue:
    """Inverse of p modulo q (q >= 1) via the extended Euclidean algorithm."""
    if q < 1:
        raise ValueError("modulus must be a positive integer")
    try:
        r = pow(p, -1, q)
    except ValueError as exc:
        raise NotCoprimeError(f"{p} is not invertible mod {q}") from exc
    return Residue(r, q)


def euler_phi(q: int) -> int:
    """Euler totient of q >= 1 by trial-division factorization."""
    if q < 1:
        raise ValueError("euler_phi requires a positive integer")
    result = q
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def jacobi(q: int, r: int) -> int:
    """Jacobi symbol (q/r) for odd positive r, extended multiplicatively from
    the Legendre symbol.  Returns 0 when gcd(q, r) > 1; jacobi(q, 1) = 1.
    """
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


def crt_pair(r1: Residue, r2: Residue) -> Residue:
    """Combine two residues with coprime moduli into one mod the product."""
    m1, m2 = r1.modulus, r2.modulus
    if math.gcd(m1, m2) != 1:
        raise ValueError(f"moduli {m1} and {m2} are not coprime")
    # x = v1 + m1*t with m1*t = (v2 - v1) mod m2
    t = (pow(m1, -1, m2) * (r2.value - r1.value)) % m2
    return Residue(r1.value + m1 * t, m1 * m2)
