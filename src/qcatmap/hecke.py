"""Congruence structure of propagators and commuting (Hecke-type) families.

The propagator at dimension N depends on the theta matrix only through its
residue mod 4N.  For matrices congruent mod 2N the two propagators agree up
to the sign jacobi(N, |a|), where a is the top-left entry of the connecting
matrix C = B^-1 A (congruent to the identity mod 2N); both signs occur.

For a fixed A, the matrices B with AB = BA mod 4N form a family whose lifted
propagators commute with U_N(A).  The family is enumerated over
SL(2, Z/4NZ) with the theta parity filter in (4N)^3 steps plus one per
member, and members are lifted back to genuine theta-group matrices by
sl2.lift_theta.  The lifted propagators are stacked, so their commutators
with U_N(A) and with each other are batched products; which pairs commute
mod 4N is decided by integer array arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import numpy as np

from .numtheory import jacobi
from .propagator import MULT_TOL, Report, _drive, build_many
from .sl2 import Mat2, ModMatrix, lift_theta


class NotCongruentError(ValueError):
    """Raised when two matrices fail the required congruence."""


class CapExceededError(ValueError):
    """Raised when a commutant enumeration would exceed the modulus cap."""


# members per batched commutator with U_N(A); bounds the temporaries for
# large families (a scalar A at 4N = 64 has 65,536 members)
_CHUNK = 1024


def _pair_errors(pairs, n: int, modulus: int) -> tuple[np.ndarray, list[int]]:
    """Errors max |U_N(A) - f U_N(B)| of pairs (A, B) congruent mod modulus,
    built as one stack [A, B, A, B, ...], and their signs f: 1 at modulus 4N
    (not applied), jacobi(N, |c_a|) for the top-left entry c_a of C = B^-1 A
    at 2N.  A pair that is not congruent is a NotCongruentError."""
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    for a, b in pairs:
        if any((x - y) % modulus for x, y in zip(a.entries(), b.entries())):
            raise NotCongruentError(f"{a} and {b} differ mod {modulus}")
    u = build_many([m for pair in pairs for m in pair], n)
    if modulus == 4 * n:
        return np.abs(u[0::2] - u[1::2]).max(axis=(1, 2)), [1] * len(pairs)
    signs = [jacobi(n, abs((b.inverse() @ a).a)) for a, b in pairs]
    other = np.array(signs)[:, None, None] * u[1::2]
    return np.abs(u[0::2] - other).max(axis=(1, 2)), signs


def verify_mod4N(a: Mat2, b: Mat2, n: int) -> Report:
    """Check build(A) = build(B) for A = B mod 4N."""
    errs, _ = _pair_errors([(a, b)], n, 4 * n)
    return _drive("mod4N", [(float(errs[0]), n)], MULT_TOL)


def mod2N_factor(a: Mat2, b: Mat2, n: int) -> tuple[int, Report]:
    """Sign relating propagators of matrices congruent mod 2N.

    Returns jacobi(N, |c_a|) for the top-left entry c_a of C = B^-1 A,
    with the report of the check build(A) = factor * build(B).  The factor
    is +1 whenever the congruence actually holds mod 4N, but genuinely -1
    for some pairs that agree only mod 2N.
    """
    errs, [factor] = _pair_errors([(a, b)], n, 2 * n)
    return factor, _drive("mod2N", [(float(errs[0]), n)], MULT_TOL)


def commutant_mod(a: Mat2, n: int, cap: int = 64) -> list[ModMatrix]:
    """All theta matrices mod 4N commuting with A mod 4N.

    Enumerates SL(2, Z/4NZ) with the parity filter ab = cd = 0 mod 2 in
    (4N)^3 steps plus one per member; refuses to run when 4N exceeds the
    cap.  The result is sorted by entries and closed under multiplication
    mod 4N.
    """
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    m = 4 * n
    if m > cap:
        raise CapExceededError(f"4N = {m} exceeds enumeration cap {cap}")
    aa, ab, ac, ad = (x % m for x in a.entries())
    g = np.arange(m, dtype=np.int64)
    tg, bg, cg = g[:, None, None], g[None, :, None], g[None, None, :]
    # X = (t + d, b; c, d) commutes with A mod m iff (t, b, c) passes these
    ok = ((ab * cg - bg * ac) % m == 0) & ((bg * (aa - ad) - ab * tg) % m == 0)
    ok &= (ac * tg - cg * (aa - ad)) % m == 0
    b0, c0 = np.nonzero(ok.any(axis=0))
    r0 = (1 + b0 * c0) % m
    members = []
    for xa in range(m):
        # det X = 1 reads xa d = 1 + bc mod m, solvable iff h = gcd(xa, m)
        # divides 1 + bc; its h solutions d0 + k m/h come out ascending
        h = math.gcd(xa, m)
        solvable = r0 % h == 0
        b, c, r = b0[solvable], c0[solvable], r0[solvable]
        d0 = (r // h) * pow(xa // h, -1, m // h) % (m // h)
        d = (d0[:, None] + m // h * g[:h]).ravel()
        b, c = np.repeat(b, h), np.repeat(c, h)
        keep = ok[(xa - d) % m, b, c] & ((xa * b) % 2 == 0) & ((c * d) % 2 == 0)
        # every entry is a residue in [0, m) already
        members += map(ModMatrix._of_residues, itertools.repeat(xa), b[keep].tolist(),
                       c[keep].tolist(), d[keep].tolist(), itertools.repeat(m))
    return members


# lifted members whose commuting pairs are checked against each other
_PAIRWISE_CAP = 40


def _max_commutator(x: np.ndarray, y: np.ndarray) -> float:
    """Largest entry of |xy - yx| over broadcast stacks of matrices."""
    return float(np.abs(x @ y - y @ x).max())


def verify_hecke(a: Mat2, n: int, samples: int | None = None, cap: int = 64,
                 seed: int = 0, tol_scale: float = 1.0) -> Report:
    """Lift commutant members and check operator commutation.

    Every lifted member must commute with U_N(A).  With samples=None all
    members are lifted; otherwise a seeded random subset of samples >= 1.
    Pairs among the first _PAIRWISE_CAP lifted members are checked against
    each other whenever their reductions already commute mod 4N.
    The report counts the lifted members as samples, takes the largest
    commutator error (a NaN counts as the worst) and names the commutant
    size in its note.
    """
    if samples is not None and samples < 1:
        raise ValueError("samples must be a positive integer or None")
    members = commutant_mod(a, n, cap=cap)
    if samples is None or samples >= len(members):
        picked = members
    else:
        picked = random.Random(seed).sample(members, samples)
    stack = build_many([a] + [lift_theta(bm) for bm in picked], n)
    u_a, lifts = stack[0], stack[1:]
    errs = [_max_commutator(u_a, lifts[k:k + _CHUNK])
            for k in range(0, len(lifts), _CHUNK)]
    # X Y = Y X mod 4N iff b_x c_y = c_x b_y, t_x b_y = b_x t_y and
    # t_x c_y = c_x t_y, with t = a - d
    ea, eb, ec, ed = np.array([(bm.a, bm.b, bm.c, bm.d)
                               for bm in picked[:_PAIRWISE_CAP]],
                              dtype=np.int64).reshape(-1, 4).T
    et = ea - ed
    commute = np.ones((len(et), len(et)), dtype=bool)
    for x, y in ((eb, ec), (et, eb), (et, ec)):
        commute &= (x[:, None] * y - y[:, None] * x) % (4 * n) == 0
    i, j = np.nonzero(np.triu(commute, 1))
    if len(i):
        errs.append(_max_commutator(lifts[i], lifts[j]))
    rep = _drive("hecke", [(err, n) for err in errs], MULT_TOL,
                 tol_scale=tol_scale)
    return replace(rep, samples=len(picked),
                   note=f"commutant size {len(members)}")


def congruent_companion(a: Mat2, modulus: int, rng: random.Random) -> Mat2:
    """Random theta matrix congruent to A mod an even modulus.

    Multiplies A on the right by a matrix C = 1 mod modulus.  C is drawn
    either as an elementary shear (top-left entry 1) or with top-left entry
    1 + modulus*t, which is what makes the mod-2N sign nontrivial.  Raises
    ValueError unless the modulus is even and at least 2.
    """
    m = modulus
    if m < 2 or m % 2:
        raise ValueError(f"modulus must be even and at least 2, got {m}")
    kind = rng.randrange(3)
    if kind == 0:
        return a @ Mat2(1, m * rng.randint(-3, 3), 0, 1)
    if kind == 1:
        return a @ Mat2(1, 0, m * rng.randint(-3, 3), 1)
    # ca = 1 + m*t is odd and 1 mod m, so a unit mod m*|cb| = m^2*|s|; then
    # m*cb divides ca*cd - 1, so cc is a multiple of m and det C = 1
    t = rng.choice([-2, -1, 1, 2])
    s = rng.choice([-2, -1, 1, 2])
    ca, cb = 1 + m * t, m * s
    cd = pow(ca, -1, m * abs(cb))
    return a @ Mat2(ca, cb, (ca * cd - 1) // cb, cd)
