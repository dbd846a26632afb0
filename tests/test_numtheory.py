import random

import pytest

from qcatmap import numtheory as nt
from _oracles import jacobi_reference


def test_sign_values():
    assert nt.sign(5) == 1
    assert nt.sign(-3) == -1
    assert nt.sign(0) == 0


@pytest.mark.parametrize("q, r, name", [(2.5, 3, "q"), (2, 3.0, "r"), ("2", 3, "q")])
def test_jacobi_needs_integers(q, r, name):
    # jacobi(2.5, 3) used to return 0
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        nt.jacobi(q, r)


def test_jacobi_known_values():
    assert nt.jacobi(2, 7) == 1
    assert nt.jacobi(3, 13) == 1
    assert nt.jacobi(1, 15) == 1
    assert nt.jacobi(21, 39) == 0  # shared factor 3
    assert nt.jacobi(1, 1) == 1
    assert nt.jacobi(0, 1) == 1
    assert nt.jacobi(0, 3) == 0
    assert nt.jacobi(-1, 3) == -1
    assert nt.jacobi(5, 5) == 0


def test_jacobi_rejects_bad_bottom():
    with pytest.raises(ValueError):
        nt.jacobi(3, 4)
    with pytest.raises(ValueError):
        nt.jacobi(3, 0)
    with pytest.raises(ValueError):
        nt.jacobi(3, -5)


def test_jacobi_matches_factorization_small():
    for r in range(1, 140, 2):
        for q in range(-60, 61):
            assert nt.jacobi(q, r) == jacobi_reference(q, r), (q, r)


def test_jacobi_multiplicative_in_bottom():
    rng = random.Random(11)
    for _ in range(300):
        q = rng.randint(-400, 400)
        r1 = 2 * rng.randint(1, 200) - 1
        r2 = 2 * rng.randint(1, 200) - 1
        assert nt.jacobi(q, r1 * r2) == nt.jacobi(q, r1) * nt.jacobi(q, r2)


def test_jacobi_multiplicative_in_top():
    rng = random.Random(12)
    for _ in range(300):
        q1 = rng.randint(-400, 400)
        q2 = rng.randint(-400, 400)
        r = 2 * rng.randint(1, 300) - 1
        assert nt.jacobi(q1 * q2, r) == nt.jacobi(q1, r) * nt.jacobi(q2, r)


def test_jacobi_periodic_in_top():
    rng = random.Random(13)
    for _ in range(300):
        q = rng.randint(-400, 400)
        r = 2 * rng.randint(1, 300) - 1
        k = rng.randint(-5, 5)
        assert nt.jacobi(q + k * r, r) == nt.jacobi(q, r)


def test_jacobi_minus_one_and_two():
    # (-1/r) = (-1)^((r-1)/2) and (2/r) = (-1)^((r^2-1)/8)
    for r in range(1, 400, 2):
        assert nt.jacobi(-1, r) == (-1) ** ((r - 1) // 2)
        assert nt.jacobi(2, r) == (-1) ** ((r * r - 1) // 8)


def test_even_top_sign_tracks_power_of_two_parity():
    # for even tops the sign comes from the parity of the 2-adic exponent,
    # not from the residue of the top mod 4: 8 = 2^3 has odd exponent
    assert nt.jacobi(8, 3) == -1
    assert nt.jacobi(24, 11) == -1
    # even exponents kill the sign regardless of the bottom mod 8
    assert nt.jacobi(4, 3) == 1
    assert nt.jacobi(16, 5) == 1
