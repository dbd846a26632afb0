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
    for text in ("1,2,3", "1,2,3,4,5", "2,1,x,2", ""):
        with pytest.raises(ValueError, match='4 integers "a,b,c,d"'):
            Mat2.from_string(text)


def test_parse_word_case_insensitive():
    assert sl2.parse_word("t2 s- P") == ["T2", "S-", "P"]
    assert sl2.parse_word("") == []
    assert sl2.format_word(["T2", "S-"]) == "T2 S-"
    with pytest.raises(ValueError):
        sl2.parse_word("S X")


@pytest.mark.parametrize("fn", [sl2.evaluate, sl2.reduce_word])
@pytest.mark.parametrize("word", [["X"], ["S", "x"], ["T2", "T2-", "t3"],
                                  ["P", "Q"]])
def test_unknown_token_raises_parse_word_error(fn, word):
    # the typed error and message of parse_word, wherever the token sits
    with pytest.raises(ValueError) as info:
        fn(word)
    with pytest.raises(ValueError) as parsed:
        sl2.parse_word(word[-1])
    assert str(info.value) == str(parsed.value) == (
        f"unknown generator token {word[-1]!r}")


def test_evaluate_order():
    # words act left to right
    assert sl2.evaluate(["T2", "S"]) == T2_PLUS @ S_PLUS
    assert sl2.evaluate([]) == IDENTITY


def test_evaluate_equals_the_product_of_token_matrices():
    # evaluate multiplies plain ints; Mat2 products give the same matrices
    rng = random.Random(31)
    for _ in range(500):
        word = sl2.random_word(rng, 16)
        want = IDENTITY
        for tok in word:
            want = want @ sl2.TOKEN_MATRIX[tok]
        assert sl2.evaluate(word) == want


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
    assert 1 <= lifted.b <= bm.modulus  # |b| <= 4N at modulus 4N
    assert lifted.a != 0  # never a shear or an anti-shear


def test_lift_theta_is_total_exhaustive():
    for modulus in range(4, 33, 4):
        residues = _theta_residues(modulus)
        assert residues
        for bm in residues:
            _check_lift(sl2.lift_theta(bm), bm)


def test_lift_theta_is_total_random():
    rng = random.Random(31)
    for modulus in (244, 4096):
        for bm in _random_residues(modulus, 300, rng):
            _check_lift(sl2.lift_theta(bm), bm)
