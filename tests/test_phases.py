import numpy as np
import pytest

from qcatmap import suites
from qcatmap.phases import e_frac, e_frac_array
from _oracles import e_frac_array_reference, gauss_oracle_sweep_reference

BIG = 2**62

# (numerators, den): the root table serves den <= size, exp the rest
CASES = {
    "table-1d": (np.arange(-50, 50, dtype=np.int64), 7),
    "table-den-equals-size": (np.arange(64, dtype=np.int64) * 5, 64),
    "table-den-one": (np.arange(-3, 4, dtype=np.int64), 1),
    "table-den-one-scalar": (np.int64(-5), 1),
    "table-negative-den": (np.arange(-40, 40, dtype=np.int64), -12),
    "table-2d": (np.outer(np.arange(-9, 9), np.arange(-9, 9)), 26),
    "table-near-2^62": (BIG - np.arange(1000, dtype=np.int64) * 977, 999),
    "table-near-minus-2^62": (-BIG + np.arange(500, dtype=np.int64) * 31, -250),
    "exp-1d": (np.arange(-50, 50, dtype=np.int64), 101),
    "exp-negative-den": (np.arange(-40, 40, dtype=np.int64), -999),
    "exp-2d": (np.outer(np.arange(-9, 9), np.arange(-9, 9)), 2 * 61 * 1220),
    "exp-near-2^62": (BIG - np.arange(100, dtype=np.int64) * 977, 2**40 + 3),
    "exp-near-minus-2^62": (-BIG + np.arange(100, dtype=np.int64), -(2**33 + 1)),
}


@pytest.mark.parametrize("num, den", CASES.values(), ids=CASES.keys())
def test_e_frac_array_bit_equal_to_exp_path(num, den):
    got = e_frac_array(num, den)
    want = e_frac_array_reference(num, den)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.complex128
    assert np.array_equal(got, want)


@pytest.mark.parametrize("den", [7, 200, 2 * 61 * 1220])
def test_blocks_given_the_whole_table_equal_the_whole_array(den):
    # 18 x 18 numerators in blocks of 5 rows, each read from the den roots
    # e_frac_array(arange(den), den) at its residues, as the propagator
    # kernel reads the 4N roots: the bits of the whole array, which takes
    # the same table at den = 7 and 200, and exp at den = 148840
    num = np.outer(np.arange(-9, 9), np.arange(-9, 9))
    table = e_frac_array(np.arange(den), den)
    blocks = [table[num[lo:lo + 5] % den] for lo in range(0, 18, 5)]
    assert np.array_equal(np.concatenate(blocks), e_frac_array(num, den))


@pytest.mark.parametrize("n, b", [(1, 1), (2, 1), (127, 3), (1024, 1),
                                  (1024, 4096), (24898, 4 * 24898)])
def test_remainder_by_floor_division_equals_percent(n, b):
    # numerators up to 6 N^3 |b| over den = 2N|b|, the phase numerators of
    # a propagator's quadratic form at dimension N
    bound, den = 6 * n**3 * b, 2 * n * b
    rng = np.random.default_rng(n)
    num = np.concatenate([rng.integers(1 - bound, bound, 3000),
                          [1 - bound, -den - 1, -den, -1, 0, 1, den - 1, den,
                           bound - 1]])
    for part in (num[-9:], num):  # either side of _FLOOR_DIVIDE_FROM
        assert np.array_equal(e_frac_array(part, den),
                              e_frac_array_reference(part, den))


def test_e_frac_array_matches_scalar_phase():
    num = np.arange(-30, 30, dtype=np.int64) * 7 + BIG
    for den in (1, 3, -8, 60, 61, 10**6):
        got = e_frac_array(num, den)
        want = [e_frac(int(v), den) for v in num]
        assert np.abs(got - want).max() < 1e-15


@pytest.mark.parametrize("max_abs", [1, 5, 12])
def test_gauss_oracle_sweep_equals_exp_reference(max_abs):
    assert (suites.gauss_oracle_sweep(max_abs=max_abs)
            == gauss_oracle_sweep_reference(max_abs=max_abs))
