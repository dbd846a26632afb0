import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qcatmap import gauss
from qcatmap.gauss import GaussParams
from qcatmap.numtheory import NotCoprimeError
from qcatmap.phases import e8, e_frac
from _oracles import branch_reference, gauss_reference, h_eighths_reference


def e(t):
    return cmath.exp(2j * cmath.pi * t)


# hand-evaluated sums, |value| = 1 on the coprime even-parity domain
KNOWN_VALUES = [
    ((2, 3, 0), 1j),
    ((1, 2, 2), e(-1 / 8)),
    ((3, 5, 1), e(1 / 5)),
    ((1, 3, 1), e(1 / 12)),
    ((2, -3, 0), -1j),
    ((-2, 3, 0), -1j),
    ((1, -2, 2), e(1 / 8)),
]


@pytest.mark.parametrize("params,value", KNOWN_VALUES)
def test_known_values(params, value):
    p = GaussParams(*params)
    assert gauss.is_nonvanishing(p)
    assert abs(gauss.gauss_closed(p) - value) < 1e-12
    assert abs(gauss.gauss_direct(p) - value) < 1e-9


def test_direct_matches_reference():
    rng = random.Random(5)
    for _ in range(200):
        alpha = rng.randint(-30, 30)
        beta = rng.choice([b for b in range(-20, 21) if b])
        gamma = rng.randint(-30, 30)
        p = GaussParams(alpha, beta, gamma)
        assert abs(gauss.gauss_direct(p) - gauss_reference(alpha, beta, gamma)) < 1e-12


def test_closed_matches_direct_coprime():
    rng = random.Random(6)
    done = 0
    while done < 300:
        alpha = rng.randint(-60, 60)
        beta = rng.choice([b for b in range(-40, 41) if b])
        gamma = rng.randint(-80, 80)
        if math.gcd(alpha, beta) != 1:
            continue
        p = GaussParams(alpha, beta, gamma)
        if not gauss.is_nonvanishing(p):
            continue
        closed = gauss.gauss_closed(p)
        assert abs(abs(closed) - 1.0) < 1e-12
        assert abs(closed - gauss.gauss_direct(p)) < 1e-9
        done += 1


def test_odd_parity_vanishes_exactly():
    rng = random.Random(7)
    done = 0
    while done < 300:
        alpha = rng.randint(-60, 60)
        beta = rng.choice([b for b in range(-40, 41) if b])
        gamma = rng.randint(-80, 80)
        if (alpha * beta + gamma) % 2 == 0:
            continue
        assert abs(gauss.gauss_direct(GaussParams(alpha, beta, gamma))) < 1e-12
        done += 1


def test_shared_factor_does_not_imply_vanishing():
    # gcd(alpha, beta) > 1 with even parity can still give a nonzero sum
    p = GaussParams(2, 4, 0)
    assert not gauss.is_nonvanishing(p)
    val = gauss.gauss_direct(p)
    assert abs(val - (1 + 1j)) < 1e-12
    # ... and can also vanish; both happen, so no closed form is offered,
    # by gauss_closed as by gauss_closed_many
    assert abs(gauss.gauss_direct(GaussParams(2, 4, 2))) < 1e-12
    with pytest.raises(NotCoprimeError):
        gauss.gauss_closed(p)


def test_gamma_periodicity():
    rng = random.Random(8)
    for _ in range(200):
        alpha = rng.randint(-40, 40)
        beta = rng.choice([b for b in range(-25, 26) if b])
        gamma = rng.randint(-50, 50)
        k = rng.randint(-3, 3)
        a = gauss.gauss_direct(GaussParams(alpha, beta, gamma))
        b = gauss.gauss_direct(GaussParams(alpha, beta, gamma + 2 * beta * k))
        assert abs(a - b) < 1e-12


def test_closed_representative_independence():
    # shifting gamma by full periods must not move the closed form at all
    rng = random.Random(9)
    done = 0
    while done < 200:
        alpha = rng.randint(-40, 40)
        beta = rng.choice([b for b in range(-25, 26) if b])
        gamma = rng.randint(-50, 50)
        if math.gcd(alpha, beta) != 1 or (alpha * beta + gamma) % 2:
            continue
        k = rng.randint(-4, 4)
        a = gauss.gauss_closed(GaussParams(alpha, beta, gamma))
        b = gauss.gauss_closed(GaussParams(alpha, beta, gamma + 2 * beta * k))
        assert abs(a - b) < 1e-14
        done += 1


def test_conjugation_symmetry():
    rng = random.Random(10)
    for _ in range(150):
        alpha = rng.randint(-30, 30)
        beta = rng.choice([b for b in range(-20, 21) if b])
        gamma = rng.randint(-30, 30)
        a = gauss.gauss_direct(GaussParams(alpha, beta, gamma))
        b = gauss.gauss_direct(GaussParams(-alpha, beta, -gamma))
        assert abs(a.conjugate() - b) < 1e-12


def test_closed_many_matches_scalar():
    gammas = np.arange(-25, 26)
    for alpha, beta in [(3, 5), (2, 7), (-3, 8), (5, -6), (1, 1), (7, 2)]:
        many = gauss.gauss_closed_many(alpha, beta, gammas)
        for g, v in zip(gammas, many):
            p = GaussParams(alpha, beta, int(g))
            want = gauss.gauss_closed(p) if gauss.is_nonvanishing(p) else 0.0
            assert abs(v - want) < 1e-13, (alpha, beta, g)


def test_closed_many_bits_do_not_depend_on_batch_size():
    # one batch of 40000 values (640 KiB, where numpy starts to reuse
    # temporaries, and more than 2|beta|, where the phases come from a
    # table) against the same gammas 100 at a time
    gammas = np.arange(40000)
    for alpha, beta in [(7, 9973), (4, -9973), (11, 15000)]:
        whole = gauss.gauss_closed_many(alpha, beta, gammas)
        parts = np.concatenate([gauss.gauss_closed_many(alpha, beta, gammas[i:i + 100])
                                for i in range(0, gammas.size, 100)])
        assert np.array_equal(whole.view(np.float64), parts.view(np.float64))


@pytest.mark.parametrize("beta", [1, -1, 2, 3, -3, 8, -8, 15, 64, -97, 100, -100])
def test_closed_many_alpha_rows_bit_equal_to_single_calls(beta):
    # rows of one parity of alpha, and rows of every coprime alpha, which
    # mix both branches at odd beta
    gammas = np.arange(-100, 101)
    alphas = np.arange(-120, 121)
    alphas = alphas[np.gcd(alphas, beta) == 1]
    for group in (alphas[alphas % 2 == 0], alphas[alphas % 2 == 1], alphas):
        if not group.size:
            continue
        rows = gauss.gauss_closed_many(group, beta, gammas)
        want = np.stack([gauss.gauss_closed_many(int(a), beta, gammas)
                         for a in group])
        assert rows.shape == (group.size, gammas.size)
        assert np.array_equal(rows.view(np.float64), want.view(np.float64))


# |beta| past the int64 bound and a factor shared with alpha: the bound is
# checked first, so the error names gauss_closed
BOTH_RULES_BROKEN = (2, 2 * (10**6 + 1))


def test_closed_many_alpha_rows_past_the_vectorized_cutoff():
    # |beta| = 10^6 is the last beta of the int64 path; past it both forms
    # of alpha raise and point to the scalar gauss_closed
    gammas = np.arange(-3, 4).reshape(7, 1)
    alphas = np.array([3, -7, 11])
    for beta in (10**6, -10**6):
        rows = gauss.gauss_closed_many(alphas, beta, gammas)
        assert rows.shape == (3, 7, 1)
        for row, alpha in zip(rows, alphas.tolist()):
            want = gauss.gauss_closed_many(alpha, beta, gammas)
            assert np.array_equal(row.view(np.float64), want.view(np.float64))
    for beta in (10**6 + 1, -10**6 - 1):
        with pytest.raises(ValueError, match="gauss_closed"):
            gauss.gauss_closed_many(2, beta, gammas)
        with pytest.raises(ValueError, match="gauss_closed"):
            gauss.gauss_closed_many(np.array([2, -4]), beta, gammas)
    alpha, beta = BOTH_RULES_BROKEN
    for alphas in (alpha, np.array([alpha, -alpha])):
        with pytest.raises(ValueError, match="gauss_closed") as caught:
            gauss.gauss_closed_many(alphas, beta, gammas)
        assert caught.type is ValueError


def test_direct_matches_reference_at_beta_500001():
    # the first beta that the int64 sum takes past its former 500,000 limit
    p = GaussParams(3, 500_001, 1)
    assert abs(gauss.gauss_direct(p) - gauss_reference(3, 500_001, 1)) < 1e-9


@pytest.mark.parametrize("beta", [10**6, -10**6])
def test_direct_at_the_int64_bound(beta):
    p = GaussParams(7, beta, 4)
    assert abs(gauss.gauss_direct(p) - gauss.gauss_closed(p)) < 1e-9


@pytest.mark.parametrize("beta", [10**6 + 1, -10**6 - 1])
def test_direct_past_the_int64_bound_raises(beta):
    with pytest.raises(ValueError, match="gauss_closed"):
        gauss.gauss_direct(GaussParams(1, beta, 1))


@pytest.mark.parametrize("alphas, error", [
    ([1, 2], None), ([1, 3], NotCoprimeError),
], ids=["two-branches", "shared-factor"])
def test_closed_many_alpha_rows_need_one_coprime_branch(alphas, error):
    # every alpha of a row must be coprime to beta; the row carries parity,
    # inv and c per alpha, so it may mix both branches (alpha = 1 and 2 at
    # beta = 3 used to raise UnsupportedParityError)
    gammas = np.arange(4)
    row = np.array(alphas, dtype=np.int64)
    if error is not None:
        with pytest.raises(error):
            gauss.gauss_closed_many(row, 3, gammas)
        return
    assert len({gauss._branch(a, 3)[3] for a in alphas}) == 2
    rows = gauss.gauss_closed_many(row, 3, gammas)
    want = np.stack([gauss.gauss_closed_many(a, 3, gammas) for a in alphas])
    assert np.array_equal(rows.view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("alpha", [1, 2, np.array([1, 2])], ids=["odd", "even", "row"])
def test_closed_many_needs_a_nonzero_beta(alpha):
    # beta = 0 used to raise pow()'s "3rd argument cannot be 0" (alpha = 1)
    # or a NotCoprimeError (alpha = 2)
    with pytest.raises(ValueError, match="beta must be nonzero") as caught:
        gauss.gauss_closed_many(alpha, 0, np.arange(4))
    assert caught.type is ValueError


def test_params_take_numpy_integers_as_python_ints():
    # gauss_closed used to raise a bare TypeError from pow in _branch
    p = GaussParams(np.int64(3), np.int64(5), np.int64(1))
    assert p == GaussParams(3, 5, 1)
    assert all(type(x) is int for x in (p.alpha, p.beta, p.gamma))
    assert gauss.gauss_closed(p) == gauss.gauss_closed(GaussParams(3, 5, 1))


@pytest.mark.parametrize("params", [(3.5, 5, 1), (3, 5.0, 1), (3, 5, 1.0)],
                         ids=["alpha", "beta", "gamma"])
def test_params_must_be_integers(params):
    # gauss_direct(GaussParams(3.5, 5, 1)) used to raise IndexError
    name = ("alpha", "beta", "gamma")[[type(x) for x in params].index(float)]
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        GaussParams(*params)


@pytest.mark.parametrize("alpha, beta, name", [
    (2.5, 3, "alpha"), ([2.5], 3, "alpha"), (2, 3.0, "beta"), (np.float64(2), 3, "alpha"),
], ids=["alpha", "alpha-row", "beta", "numpy-float"])
def test_closed_many_alpha_and_beta_must_be_integers(alpha, beta, name):
    # these used to raise a bare TypeError from operator.index
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        gauss.gauss_closed_many(alpha, beta, [1])


@pytest.mark.parametrize("gammas", [[2.7], [True], np.array([1.0, 2.0]),
                                    np.array([Fraction(5, 2)], dtype=object)],
                         ids=["float", "bool", "float-array", "object"])
def test_closed_many_gammas_must_be_integers(gammas):
    # [2.7] used to return G(2, 3, 2), and [True] was taken as gamma = 1
    with pytest.raises(ValueError, match="gammas must be integers"):
        gauss.gauss_closed_many(2, 3, gammas)


def test_closed_many_takes_numpy_integers_as_python_ints():
    # values[i] of an int64 array used to raise a bare TypeError from pow
    gammas = np.arange(-9, 10)
    for a, beta in [(3, 5), (2, -7), (5, 8), (-1, 1)]:
        want = gauss.gauss_closed_many(a, beta, gammas)
        for alpha in (np.int64(a), np.int32(a)):
            for b in (beta, np.int64(beta)):
                got = gauss.gauss_closed_many(alpha, b, gammas)
                assert np.array_equal(got.view(np.float64), want.view(np.float64))
    row = gauss.gauss_closed_many([3, 4], np.int64(5), gammas)
    assert np.array_equal(row, gauss.gauss_closed_many(np.array([3, 4]), 5, gammas))


@pytest.mark.parametrize("alpha", [np.array([[1, 3]]), [[1], [3]], np.ones((2, 2, 2), dtype=int)],
                         ids=["1x2", "2x1-list", "2x2x2"])
def test_closed_many_alpha_must_be_a_scalar_or_a_row(alpha):
    # a 2-D alpha used to raise "'list' object cannot be interpreted as an
    # integer"
    with pytest.raises(ValueError, match="an integer or a 1-D row") as caught:
        gauss.gauss_closed_many(alpha, 4, np.arange(4))
    assert caught.type is ValueError


@pytest.mark.parametrize("gammas", [np.arange(4), 5, np.zeros((2, 3), dtype=np.int64)],
                         ids=["row", "scalar", "grid"])
def test_closed_many_of_an_empty_alpha_row_is_empty(gammas):
    # one row per alpha: no alphas, no rows, at any beta
    for beta in (3, 4, 10**6 + 1):
        got = gauss.gauss_closed_many(np.array([], dtype=np.int64), beta, gammas)
        assert got.shape == (0, *np.shape(gammas))
        assert got.dtype == complex


@pytest.mark.parametrize("gammas", [[2**70], 2**70, [0, -2**63 - 1], [[4], [2**64]], [2**63]],
                         ids=["row", "scalar", "below", "grid", "uint64"])
def test_closed_many_gamma_outside_int64_names_gauss_closed(gammas):
    with pytest.raises(ValueError, match="gauss_closed"):
        gauss.gauss_closed_many(1, 2, gammas)
    with pytest.raises(ValueError, match="gauss_closed"):
        gauss.gauss_closed_many(np.array([1, 3]), 2, gammas)
    # gauss_closed takes these parameters
    big = GaussParams(1, 2, 2**70)
    assert abs(gauss.gauss_closed(big) - gauss_reference(1, 2, 2**70 % 4)) < 1e-12


def test_closed_many_rejects_shared_factor():
    with pytest.raises(NotCoprimeError):
        gauss.gauss_closed_many(2, 4, np.arange(4))


def test_closed_of_the_wrong_parity_is_zero():
    # the period-averaged sum vanishes there, as gauss_closed_many returns it
    for params in [(1, 1, 0), (2, 3, 1), (3, 4, -5), (-5, 7, 2**70)]:
        got = gauss.gauss_closed(GaussParams(*params))
        assert type(got) is complex and got == 0 and math.copysign(1, got.real) == 1
        assert abs(gauss_reference(*params[:2], params[2] % (2 * params[1]))) < 1e-12


def _bits(z: complex) -> bytes:
    return np.array([z], dtype=complex).tobytes()


def test_closed_agrees_with_closed_many_on_the_box():
    # one contract and one value: NotCoprimeError for a shared factor, 0
    # for the wrong parity (where gauss_closed raised VanishingError), and
    # the same bits everywhere else
    for alpha in range(-20, 21):
        for beta in range(-20, 21):
            if beta == 0:
                continue
            if math.gcd(alpha, beta) != 1:
                for gamma in (0, 1):
                    for call in (lambda: gauss.gauss_closed(GaussParams(alpha, beta, gamma)),
                                 lambda: gauss.gauss_closed_many(alpha, beta, [gamma])):
                        with pytest.raises(NotCoprimeError):
                            call()
                continue
            for gamma in range(-20, 21):
                want = gauss.gauss_closed_many(alpha, beta, [gamma])[0]
                got = gauss.gauss_closed(GaussParams(alpha, beta, gamma))
                assert _bits(got) == _bits(want), (alpha, beta, gamma)


def test_branch_gives_the_lead_as_a_sign_and_an_eighth_root():
    # the propagator kernel adds t (and 4 for a sign of -1) to its integer
    # exponents; gauss_closed multiplies the lead out as jac * e8(t)
    for alpha, beta in [(2, 3), (-4, 7), (3, 8), (-5, -2), (3, 5), (-7, 9),
                        (1, 1), (10**30 + 1, 10**6), (-(10**30) + 2, 10**6 + 1)]:
        jac, t, inv, parity, c = gauss._branch(alpha, beta)
        assert all(type(x) is int for x in (jac, t, inv, parity, c))
        assert jac in (1, -1) and 0 <= t < 8 and 0 <= c < 2 * abs(beta)
        # at x = 0 the closed form is the lead itself
        gamma = 0 if parity == 0 else abs(beta)
        assert gauss.gauss_closed(GaussParams(alpha, beta, gamma)) == jac * e8(t)


BIG = [2**64 + 1, 2**70 + 3, 3**45]


def test_lead_and_branch_equal_the_three_branch_formulas():
    # _branch takes its lead from _lead, which reads the parity of beta
    # only, and its inverse and coefficient from k = 4 or 1
    pairs = [(a, b) for a in range(-60, 61) for b in range(-60, 61)
             if b and math.gcd(a, b) == 1]
    pairs += [(a, b) for a in (*BIG, 2**66, -(2**65) - 1, 7)
              for b in (*BIG, -(2**64) - 2, 2**65, 3) if math.gcd(a, b) == 1]
    for alpha, beta in pairs:
        want = branch_reference(alpha, beta)
        assert gauss._branch(alpha, beta) == want, (alpha, beta)
        assert gauss._lead(alpha, beta) == want[:2], (alpha, beta)


def test_h_is_the_inverse_lead():
    # on every theta top row the two-branch h formula is jac e(-t/8) of
    # _lead, also on (+-1, 0) and (0, +-1), where h = 1
    rows = [(a, b) for a in range(-60, 61) for b in range(-60, 61)
            if (a + b) % 2 and math.gcd(a, b) == 1]
    rows += [(a, b) for a in (2**64 + 1, -(3**45), 2**66) for b in (2**70 + 2, 3**41, 7)
             if (a + b) % 2 and math.gcd(a, b) == 1]
    assert {(1, 0), (-1, 0), (0, 1), (0, -1)} <= set(rows)
    for a, b in rows:
        jac, t = gauss._lead(a, b)
        h_jac, h_t = h_eighths_reference(a, b)
        assert (jac, -t % 8) == (h_jac, h_t % 8), (a, b)


def test_branch_coefficient_equals_the_per_branch_formulas():
    # c mod 2|beta| is -sgn(beta) alpha on the even-gamma branches and
    # -4 sgn(beta) alpha on the odd one: the kernel's former
    # -s ((alpha mod 2|beta| >> parity) << 2 parity), and over 2|beta| the
    # phases of the former scalar forms e(-alpha x^2 / 2beta) and
    # e(-2 alpha x^2 / beta), bit for bit
    alphas = [*range(-30, 31), *BIG, *(-x for x in BIG)]
    betas = [*range(-30, 31), *BIG, *(-x - 2 for x in BIG)]
    for alpha in alphas:
        for beta in betas:
            if beta == 0 or math.gcd(alpha, beta) != 1:
                continue
            *_, parity, c = gauss._branch(alpha, beta)
            b, s = abs(beta), (1 if beta > 0 else -1)
            assert c == -s * (alpha % (2 * b >> parity) << 2 * parity) % (2 * b)
            for x in (1, 2, 7, b - 1, 2**40 + 5):
                seed = (e_frac(-alpha * x * x, 2 * beta) if parity == 0
                        else e_frac(-2 * alpha * x * x, beta))
                assert e_frac(c * x * x, 2 * b) == seed, (alpha, beta, x)


def test_nonvanishing_gamma_has_the_parity_of_its_branch():
    # so gauss_closed needs no parity check after is_nonvanishing
    for alpha in range(-40, 41):
        for beta in range(-40, 41):
            if beta == 0 or math.gcd(alpha, beta) != 1:
                continue
            parity = gauss._branch(alpha, beta)[3]
            for gamma in range(-41, 42):
                if (alpha * beta + gamma) % 2 == 0:
                    assert parity == gamma % 2, (alpha, beta, gamma)


def test_params_validation():
    with pytest.raises(ValueError):
        GaussParams(1, 0, 0)


def test_huge_beta_scalar_path():
    # closed form stays exact far beyond the vectorized-grid cutoff
    p = GaussParams(3, 10**7 + 1, 1)
    closed = gauss.gauss_closed(p)
    assert abs(abs(closed) - 1.0) < 1e-12
