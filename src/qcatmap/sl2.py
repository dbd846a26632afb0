"""Integer 2x2 matrices, the theta group, and generator words.

The theta group consists of the matrices (a, b; c, d) in SL(2, Z) with
a*b and c*d both even.  It is generated by

    S  = (0, -1; 1, 0)       quarter turn
    P  = (-1, 0; 0, -1)      central point reflection, P = S^2
    T2 = (1, 0; 2, 1)        lower shear by 2

together with their inverses S- = S^-1 and T2- = T2^-1.  Words are ordered
lists of the tokens "S", "S-", "P", "T2", "T2-" and evaluate left to right.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


class NotThetaError(ValueError):
    """Raised when a matrix is outside the theta group."""


class LiftError(ValueError):
    """Raised for a residue matrix with determinant != 1 or bad parities."""


@dataclass(frozen=True)
class Mat2:
    """Integer 2x2 matrix (a, b; c, d) with arbitrary-precision entries."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        """Inverse in SL(2, Z); requires det = 1."""
        if self.det() != 1:
            raise ValueError("inverse is only defined for determinant 1")
        return Mat2(self.d, -self.b, -self.c, self.a)

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c},{self.d}"

    @classmethod
    def from_string(cls, text: str) -> "Mat2":
        """Parse 'a,b,c,d' into a matrix."""
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected 4 comma-separated integers, got {text!r}")
        return cls(*(int(p) for p in parts))


IDENTITY = Mat2(1, 0, 0, 1)
S_PLUS = Mat2(0, -1, 1, 0)
S_MINUS = Mat2(0, 1, -1, 0)
P_MAT = Mat2(-1, 0, 0, -1)
T2_PLUS = Mat2(1, 0, 2, 1)
T2_MINUS = Mat2(1, 0, -2, 1)

TOKENS = ("S", "S-", "P", "T2", "T2-")
TOKEN_MATRIX = {
    "S": S_PLUS,
    "S-": S_MINUS,
    "P": P_MAT,
    "T2": T2_PLUS,
    "T2-": T2_MINUS,
}
TOKEN_INVERSE = {"S": "S-", "S-": "S", "P": "P", "T2": "T2-", "T2-": "T2"}


def is_theta(m: Mat2) -> bool:
    """True iff m is in SL(2, Z) with a*b and c*d even."""
    return m.det() == 1 and (m.a * m.b) % 2 == 0 and (m.c * m.d) % 2 == 0


def require_theta(m: Mat2) -> Mat2:
    if m.det() != 1:
        raise NotThetaError(f"determinant of {m} is {m.det()}, not 1")
    if (m.a * m.b) % 2 or (m.c * m.d) % 2:
        raise NotThetaError(f"{m} fails the parity conditions ab, cd = 0 mod 2")
    return m


@dataclass(frozen=True)
class ModMatrix:
    """2x2 matrix of residues mod a fixed modulus."""

    a: int
    b: int
    c: int
    d: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        for name in "abcd":
            object.__setattr__(self, name, getattr(self, name) % self.modulus)

    def __matmul__(self, other: "ModMatrix") -> "ModMatrix":
        if self.modulus != other.modulus:
            raise ValueError("moduli differ")
        m = self.modulus
        return ModMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            m,
        )


def reduce_mod(m: Mat2, modulus: int) -> ModMatrix:
    """Entrywise reduction of an integer matrix mod modulus >= 1."""
    return ModMatrix(m.a, m.b, m.c, m.d, modulus)


def _solve_linear(a: int, b: int, k: int):
    """One solution (v, u) of a*v - b*u = k, or None."""
    if a == 0 and b == 0:
        return None
    # extended gcd: x*a + y*b = r, where r = +-gcd(a, b) takes its sign
    # from the floor divisions on signed arguments
    x0, x1, y0, y1, r0, r1 = 1, 0, 0, 1, a, b
    while r1:
        q, (r0, r1) = r0 // r1, (r1, r0 - (r0 // r1) * r1)
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if k % r0:
        return None
    scale = k // r0
    return x0 * scale, -y0 * scale


def _complete_lift(bm: ModMatrix, av: int, bv: int) -> Mat2 | None:
    """Lift of bm with top row (av, bv), or None when gcd(av, bv) rules it
    out; av and bv must be congruent to bm.a and bm.b."""
    m = bm.modulus
    k = 1 - av * bm.d + bv * bm.c
    sol = _solve_linear(av, bv, k // m)
    if sol is None:
        return None
    v0, u0 = sol
    # general solution: v = v0 + (bv/g) j, u = u0 + (av/g) j;
    # pick j to keep the free bottom-row entry small
    g = math.gcd(av, bv)
    if bv != 0:
        j = round(-(bm.d / m + v0) / (bv // g))
    else:
        j = round(-(bm.c / m + u0) / (av // g))
    v = v0 + (bv // g) * j
    u = u0 + (av // g) * j
    return require_theta(Mat2(av, bv, bm.c + m * u, bm.d + m * v))


def lift_theta(bm: ModMatrix, search_bound: int = 4) -> Mat2:
    """Integer theta-group matrix congruent to bm mod its even modulus m.

    Searches top-row representatives within search_bound moduli of the
    residues and solves the determinant exactly for the bottom row; the
    parity conditions hold automatically because the modulus is even.  When
    the search finds nothing, _coprime_lift always succeeds, so the lift
    exists and has |b| <= (search_bound + 1) * m for every residue with
    determinant 1 and theta parities; LiftError is raised for the others,
    ValueError for an odd modulus.
    """
    m = bm.modulus
    if m % 2:
        raise ValueError("lifting requires an even modulus")
    if (bm.a * bm.d - bm.b * bm.c) % m != 1:
        raise LiftError(f"{bm} has determinant != 1 mod {m}")
    if (bm.a * bm.b) % 2 or (bm.c * bm.d) % 2:
        # m even, so a lift has the same entry parities as the residues
        raise LiftError(f"{bm} violates the parity conditions")
    offsets = sorted(range(-search_bound, search_bound + 1), key=abs)
    for s in offsets:
        for t in offsets:
            cand = _complete_lift(bm, bm.a + m * s, bm.b + m * t)
            if cand is not None:
                return cand
    return _coprime_lift(bm)


def _coprime_lift(bm: ModMatrix) -> Mat2:
    """Lift of a valid residue with top row (a + t*m, b'), b' in [1, m].

    A prime p dividing b' either divides t, and then not a, or divides a,
    and then neither t (coprime to a by construction) nor m (p would divide
    a, b and m, against ad - bc = 1 mod m); either way p does not divide
    a + t*m, so the top row is coprime and, both entries being positive,
    the bottom row always solves.
    """
    m = bm.modulus
    bv = bm.b or m
    t = bv
    while (g := math.gcd(t, bm.a)) > 1:
        t //= g
    return _complete_lift(bm, bm.a + t * m, bv)


def evaluate(word: list[str]) -> Mat2:
    """Product of generator matrices, left to right; [] gives the identity."""
    m = IDENTITY
    for tok in word:
        m = m @ TOKEN_MATRIX[tok]
    return m


def parse_word(text: str) -> list[str]:
    """Parse a space-separated, case-insensitive token string."""
    word = []
    for raw in text.split():
        tok = raw.upper()
        if tok not in TOKEN_MATRIX:
            raise ValueError(f"unknown generator token {raw!r}")
        word.append(tok)
    return word


def format_word(word: list[str]) -> str:
    return " ".join(word)


def decompose(m: Mat2) -> list[str]:
    """Write a theta-group matrix as a generator word with evaluate(word) = m.

    Euclidean-style descent on the top row: while b != 0, either swap the
    top-row entries with an S, or shrink a with a power of T2.  The T2 power
    is chosen to minimize the resulting |a|, breaking ties toward the
    nonnegative representative, so the output word is deterministic.  Each
    T2 step leaves |a| < |b| and the S after it swaps them, so |b| falls at
    least every second step; near a/b = +-1 only by 1, so words can be long.
    """
    require_theta(m)
    work = m
    applied: list[str] = []
    while work.b != 0:
        if work.a == 0:
            # (0, +-1; -+1, w): one S multiplication clears b
            tok = "S" if work.b == 1 else "S-"
            work = work @ TOKEN_MATRIX[tok]
            applied.append(tok)
        elif abs(work.a) < abs(work.b):
            work = work @ S_PLUS
            applied.append("S")
        else:
            twob = 2 * abs(work.b)
            r = work.a % twob
            new_a = r if r <= abs(work.b) else r - twob
            k = (new_a - work.a) // (2 * work.b)
            # k = 0 would mean |a| <= |b|; equality is excluded by parity
            tok = "T2" if k > 0 else "T2-"
            work = work @ Mat2(1, 0, 2 * k, 1)
            applied.extend([tok] * abs(k))
    # work is now (s, 0; m, s) with s = +-1 and m even
    sgn, shear = work.a, work.c
    mm = shear if sgn == 1 else -shear
    tail = ["T2"] * (mm // 2) if mm >= 0 else ["T2-"] * ((-mm) // 2)
    if sgn == -1:
        tail.append("P")
    return tail + [TOKEN_INVERSE[t] for t in reversed(applied)]


def reduce_word(word: list[str]) -> list[str]:
    """Shorten a word without changing its evaluation.

    Uses that P is central with P^2 = 1, that S S = P (and S- S- = P), and
    cancels adjacent inverse pairs.  The result carries at most one trailing
    P and no adjacent inverse pairs.
    """
    p_parity = 0
    stack: list[str] = []
    for tok in word:
        if tok == "P":
            p_parity ^= 1
            continue
        if stack and stack[-1] == TOKEN_INVERSE[tok]:
            stack.pop()
            continue
        if tok in ("S", "S-") and stack and stack[-1] == tok:
            stack.pop()
            p_parity ^= 1
            continue
        stack.append(tok)
    if p_parity:
        stack.append("P")
    return stack


def random_word(rng: random.Random, max_word_len: int) -> list[str]:
    """Uniformly random word of length 0..max_word_len from a seeded stream."""
    length = rng.randint(0, max_word_len)
    return [rng.choice(TOKENS) for _ in range(length)]


def random_theta(seed: int, max_word_len: int) -> Mat2:
    """Deterministic random theta-group element from a seed."""
    return evaluate(random_word(random.Random(seed), max_word_len))


def random_theta_general(rng: random.Random, max_word_len: int) -> Mat2:
    """Random theta-group element with a != 0 and b != 0."""
    while True:
        m = evaluate(random_word(rng, max_word_len))
        if m.a != 0 and m.b != 0:
            return m
