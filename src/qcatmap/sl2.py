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
import operator
import random
from dataclasses import dataclass

from .numtheory import require_dimension, require_integer


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

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c},{self.d}"

    @classmethod
    def from_string(cls, text: str) -> "Mat2":
        """Parse 'a,b,c,d' into a matrix."""
        try:
            a, b, c, d = (int(p) for p in text.split(","))
        except ValueError:
            raise ValueError(f'matrix {text!r} is not 4 integers "a,b,c,d"') from None
        return cls(a, b, c, d)


IDENTITY = Mat2(1, 0, 0, 1)
S_PLUS = Mat2(0, -1, 1, 0)
S_MINUS = Mat2(0, 1, -1, 0)
P_MAT = Mat2(-1, 0, 0, -1)
T2_PLUS = Mat2(1, 0, 2, 1)
T2_MINUS = Mat2(1, 0, -2, 1)

TOKENS = ("S", "S-", "P", "T2", "T2-")
TOKEN_MATRIX = dict(zip(TOKENS, (S_PLUS, S_MINUS, P_MAT, T2_PLUS, T2_MINUS)))
TOKEN_INVERSE = {"S": "S-", "S-": "S", "P": "P", "T2": "T2-", "T2-": "T2"}
_UNKNOWN_TOKEN = "unknown generator token {!r}"
_NOT_A_WORD = "a word is a sequence of token strings, not {!r}"


def is_theta(m: Mat2) -> bool:
    """True iff m is in SL(2, Z) with a*b and c*d even."""
    return m.det() == 1 and (m.a * m.b) % 2 == 0 and (m.c * m.d) % 2 == 0


def require_theta(m: Mat2) -> Mat2:
    """m with Python-int entries if it is a theta matrix, else NotThetaError."""
    if not type(m.a) is type(m.b) is type(m.c) is type(m.d) is int:
        if not all(hasattr(x, "__index__") for x in m.entries()):
            raise NotThetaError(f"{m} has an entry that is not an integer")
        m = Mat2(*map(operator.index, m.entries()))
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
        object.__setattr__(self, "modulus", require_dimension(self.modulus, "modulus"))
        for name in "abcd":
            entry = require_integer(getattr(self, name), name)
            object.__setattr__(self, name, entry % self.modulus)

    @classmethod
    def _of_residues(cls, a: int, b: int, c: int, d: int, modulus: int) -> "ModMatrix":
        """The matrix of residues a, b, c, d, already in [0, modulus), taken
        as they are: no check and no second reduction, which were most of
        the cost of a large commutant."""
        x = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(x, "a", a)
        setattr_(x, "b", b)
        setattr_(x, "c", c)
        setattr_(x, "d", d)
        setattr_(x, "modulus", modulus)
        return x

    def __matmul__(self, other: "ModMatrix") -> "ModMatrix":
        if self.modulus != other.modulus:
            raise ValueError("moduli differ")
        return ModMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.modulus,
        )


def reduce_mod(m: Mat2, modulus: int) -> ModMatrix:
    """Entrywise reduction of an integer matrix mod modulus >= 1."""
    return ModMatrix(m.a, m.b, m.c, m.d, modulus)


def lift_theta(bm: ModMatrix) -> Mat2:
    """Integer theta-group matrix congruent to bm mod its even modulus m.

    For residues a, b, c, d in [0, m) the top row is (a + t*m, b'), with
    b' = b, or m when b = 0, and t the largest divisor of b' coprime to a.
    A prime dividing b' divides exactly one of a and t*m (it cannot divide
    a, b and m, as ad - bc = 1 mod m), so the top row is coprime and the
    bottom row (c + u*m, d + v*m), 0 <= v < b', solves the determinant
    exactly; the parities follow from the residues', m being even.  So every
    residue with determinant 1 and theta parities lifts, with 1 <= b <= m
    (|b| <= 4N at modulus 4N) and a >= m: never a shear or an anti-shear.
    LiftError is raised for the other residues, ValueError for an odd m.
    """
    m = bm.modulus
    if m % 2:
        raise ValueError("lifting requires an even modulus")
    if (bm.a * bm.d - bm.b * bm.c) % m != 1:
        raise LiftError(f"{bm} has determinant != 1 mod {m}")
    if (bm.a * bm.b) % 2 or (bm.c * bm.d) % 2:
        # m even, so a lift has the same entry parities as the residues
        raise LiftError(f"{bm} violates the parity conditions")
    bv = bm.b or m
    t = bv
    while (g := math.gcd(t, bm.a)) > 1:
        t //= g
    av = bm.a + t * m
    k = (1 - av * bm.d + bv * bm.c) // m
    v = k * pow(av, -1, bv) % bv
    u = (av * v - k) // bv
    return require_theta(Mat2(av, bv, bm.c + m * u, bm.d + m * v))


def evaluate(word: list[str]) -> Mat2:
    """Product of generator matrices, left to right; [] gives the identity."""
    # on plain ints, with one Mat2 at the end
    a, b, c, d = 1, 0, 0, 1
    try:
        for tok in word:
            x = TOKEN_MATRIX[tok]
            a, b, c, d = (a * x.a + b * x.c, a * x.b + b * x.d,
                          c * x.a + d * x.c, c * x.b + d * x.d)
    except KeyError as exc:
        raise ValueError(_UNKNOWN_TOKEN.format(exc.args[0])) from None
    except TypeError:
        raise ValueError(_NOT_A_WORD.format(word)) from None
    return Mat2(a, b, c, d)


def parse_word(text: str) -> list[str]:
    """Parse a space-separated, case-insensitive token string."""
    if not isinstance(text, str):
        raise ValueError(f"a word to parse is a string, not {text!r}")
    word = []
    for raw in text.split():
        tok = raw.upper()
        if tok not in TOKEN_MATRIX:
            raise ValueError(_UNKNOWN_TOKEN.format(raw))
        word.append(tok)
    return word


def format_word(word: list[str]) -> str:
    try:
        return " ".join(word)
    except TypeError:
        raise ValueError(_NOT_A_WORD.format(word)) from None


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
    try:
        for tok in word:
            if tok == "P":
                p_parity ^= 1
            elif stack[-1:] == [TOKEN_INVERSE[tok]]:
                stack.pop()
            elif tok in ("S", "S-") and stack[-1:] == [tok]:
                stack.pop()
                p_parity ^= 1
            else:
                stack.append(tok)
    except KeyError as exc:
        raise ValueError(_UNKNOWN_TOKEN.format(exc.args[0])) from None
    except TypeError:
        raise ValueError(_NOT_A_WORD.format(word)) from None
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
