import math
import random

import numpy as np
import pytest

from qcatmap import sl2
from qcatmap.sl2 import (IDENTITY, P_MAT, S_MINUS, S_PLUS, T2_MINUS, T2_PLUS,
                         Mat2, NotThetaError)


def test_matmul_and_inverse():
    rng = random.Random(3)
    for _ in range(100):
        m = sl2.evaluate(sl2.random_word(rng, 10))
        assert m.det() == 1
        assert m @ m.inverse() == IDENTITY
        assert m.inverse() @ m == IDENTITY
        assert m.transpose().transpose() == m


def test_inverse_needs_unit_determinant():
    with pytest.raises(ValueError):
        Mat2(2, 0, 0, 2).inverse()


def test_generator_matrix_relations():
    assert S_PLUS @ S_PLUS == P_MAT
    assert P_MAT @ P_MAT == IDENTITY
    assert S_PLUS @ S_MINUS == IDENTITY
    assert T2_PLUS @ T2_MINUS == IDENTITY
    assert S_PLUS @ S_PLUS @ S_PLUS @ S_PLUS == IDENTITY
    assert P_MAT @ S_PLUS == S_PLUS @ P_MAT
    assert P_MAT @ T2_PLUS == T2_PLUS @ P_MAT


def test_theta_membership():
    for m in (IDENTITY, S_PLUS, S_MINUS, P_MAT, T2_PLUS, T2_MINUS,
              Mat2(2, 1, 3, 2), Mat2(1, 2, 0, 1)):
        assert sl2.is_theta(m)
    assert not sl2.is_theta(Mat2(1, 1, 0, 1))   # parity
    assert not sl2.is_theta(Mat2(2, 1, 1, 1))   # parity (c*d odd)
    assert not sl2.is_theta(Mat2(1, 0, 0, 2))   # determinant
    with pytest.raises(NotThetaError):
        sl2.require_theta(Mat2(1, 1, 0, 1))


def test_string_roundtrip():
    m = Mat2(2, 1, 3, 2)
    assert Mat2.from_string(str(m)) == m
    assert Mat2.from_string("0,-1, 1, 0") == S_PLUS
    with pytest.raises(ValueError):
        Mat2.from_string("1,2,3")


def test_parse_word_case_insensitive():
    assert sl2.parse_word("t2 s- P") == ["T2", "S-", "P"]
    assert sl2.parse_word("") == []
    assert sl2.format_word(["T2", "S-"]) == "T2 S-"
    with pytest.raises(ValueError):
        sl2.parse_word("S X")


def test_evaluate_order():
    # words act left to right
    assert sl2.evaluate(["T2", "S"]) == T2_PLUS @ S_PLUS
    assert sl2.evaluate([]) == IDENTITY


def test_decompose_known_words():
    assert sl2.decompose(IDENTITY) == []
    assert sl2.decompose(S_PLUS) == ["S"]
    assert sl2.decompose(S_MINUS) == ["S-"]
    assert sl2.decompose(P_MAT) == ["P"]
    assert sl2.decompose(T2_PLUS) == ["T2"]
    assert sl2.decompose(T2_MINUS) == ["T2-"]
    assert sl2.decompose(Mat2(2, 1, 3, 2)) == ["T2", "S-", "T2"]


def test_decompose_roundtrip_random():
    rng = random.Random(7)
    for _ in range(400):
        m = sl2.evaluate(sl2.random_word(rng, 12))
        word = sl2.decompose(m)
        assert sl2.evaluate(word) == m
        assert all(tok in sl2.TOKENS for tok in word)


def test_decompose_deterministic():
    m = sl2.evaluate(["S", "T2", "T2", "S-", "T2-"])
    assert sl2.decompose(m) == sl2.decompose(m)


def test_decompose_cusp_one_family():
    # (a, a+1; -(a+1), -(a+2)) sits near a/b = 1, where each S-T2 step pair
    # shrinks |b| by only 1, so the word is about 2|a| tokens long
    for a in [*range(-70, 71), 999, 10**4]:
        m = Mat2(a, a + 1, -(a + 1), -(a + 2))
        assert sl2.evaluate(sl2.decompose(m)) == m


def test_decompose_rejects_nontheta():
    with pytest.raises(NotThetaError):
        sl2.decompose(Mat2(1, 1, 0, 1))


def test_reduce_word_cancellations():
    assert sl2.reduce_word(["S", "S-"]) == []
    assert sl2.reduce_word(["P", "P"]) == []
    assert sl2.reduce_word(["S", "S"]) == ["P"]
    assert sl2.reduce_word(["T2", "P", "T2-"]) == ["P"]


def test_reduce_word_preserves_value():
    rng = random.Random(9)
    for _ in range(300):
        w = sl2.random_word(rng, 12)
        r = sl2.reduce_word(w)
        assert sl2.evaluate(r) == sl2.evaluate(w)
        assert len(r) <= len(w)


def test_random_theta_deterministic():
    assert sl2.random_theta(17, 8) == sl2.random_theta(17, 8)
    assert sl2.is_theta(sl2.random_theta(17, 8))


def test_random_theta_general_avoids_degenerate_cases():
    rng = random.Random(23)
    for _ in range(100):
        m = sl2.random_theta_general(rng, 8)
        assert sl2.is_theta(m)
        assert m.a != 0 and m.b != 0


def test_top_row_has_exactly_one_even_entry():
    # det = 1 forbids a common factor of a, b; the parity constraint makes
    # a*b even, so exactly one of them is
    rng = random.Random(29)
    for _ in range(200):
        m = sl2.random_theta_general(rng, 10)
        assert (m.a % 2 == 0) != (m.b % 2 == 0)


def _theta_residues(modulus):
    """Every theta residue mod the modulus, by brute force."""
    r = np.arange(modulus)
    a, b, c, d = (x.ravel() for x in np.meshgrid(r, r, r, r, indexing="ij"))
    ok = ((a * d - b * c) % modulus == 1) & ((a * b) % 2 == 0) & ((c * d) % 2 == 0)
    return [sl2.ModMatrix(*map(int, e), modulus)
            for e in zip(a[ok], b[ok], c[ok], d[ok])]


def _random_residues(modulus, count, rng):
    """Seeded theta residues from random products of S and even shears."""
    out = []
    for _ in range(count):
        x = sl2.reduce_mod(IDENTITY, modulus)
        for _ in range(12):
            k = rng.randrange(modulus)
            x = x @ sl2.reduce_mod(S_PLUS, modulus) @ sl2.ModMatrix(1, 0, 2 * k, 1, modulus)
        out.append(x)
    return out


def _check_lift(lifted, bm):
    assert sl2.is_theta(lifted)
    assert sl2.reduce_mod(lifted, bm.modulus) == bm
    assert abs(lifted.b) <= 5 * bm.modulus  # |b| <= 20N at modulus 4N


def test_lift_theta_is_total_exhaustive():
    for modulus in range(4, 33, 4):
        residues = _theta_residues(modulus)
        assert residues
        for bm in residues:
            _check_lift(sl2.lift_theta(bm), bm)
            _check_lift(sl2._coprime_lift(bm), bm)


def test_lift_theta_is_total_random():
    rng = random.Random(31)
    for modulus in (244, 4096):
        for bm in _random_residues(modulus, 300, rng):
            _check_lift(sl2.lift_theta(bm), bm)
            _check_lift(sl2._coprime_lift(bm), bm)


def test_lift_theta_without_search_uses_coprime_shift():
    # (3, 6; 0, 3) mod 8: at bound 0 the search tries only the top row
    # (3, 6), whose common factor 3 admits no determinant-1 completion
    bm = sl2.ModMatrix(3, 6, 0, 3, 8)
    assert sl2._complete_lift(bm, 3, 6) is None
    lifted = sl2.lift_theta(bm, search_bound=0)
    assert lifted == sl2._coprime_lift(bm)
    _check_lift(lifted, bm)


def test_solve_linear_signed_arguments():
    rng = random.Random(13)
    args = [(a, b, k) for a in range(-9, 10) for b in range(-9, 10)
            for k in range(-9, 10)]
    args += [tuple(rng.randint(-10**6, 10**6) for _ in range(3))
             for _ in range(2000)]
    for a, b, k in args:
        sol = sl2._solve_linear(a, b, k)
        if sol is None:
            assert (a, b) == (0, 0) or k % math.gcd(a, b)
        else:
            v, u = sol
            assert a * v - b * u == k


def test_lift_theta_takes_first_coprime_top_row():
    # a top row completes to determinant 1 exactly when it is coprime, so
    # the search must stop at the first coprime candidate in its order
    offsets = sorted(range(-4, 5), key=abs)
    for modulus in range(4, 33, 4):
        for bm in _theta_residues(modulus):
            first = next((bm.a + modulus * s, bm.b + modulus * t)
                         for s in offsets for t in offsets
                         if math.gcd(bm.a + modulus * s, bm.b + modulus * t) == 1)
            lifted = sl2.lift_theta(bm)
            assert (lifted.a, lifted.b) == first
