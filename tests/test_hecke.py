import random
import tracemalloc

import numpy as np
import pytest
from _oracles import (commutant_mod_reference, congruent_companion_reference,
                      verify_hecke_reference)

from qcatmap import hecke
from qcatmap.hecke import (CapExceededError, NotCongruentError, commutant_mod,
                           congruent_companion, mod2N_factor, verify_hecke,
                           verify_mod4N)
from qcatmap.propagator import build
from qcatmap.sl2 import (IDENTITY, LiftError, Mat2, ModMatrix, NotThetaError,
                         evaluate, is_theta, lift_theta, random_theta_general,
                         random_word, reduce_mod)


def test_reduce_mod_normalizes():
    m = reduce_mod(Mat2(7, 6, 36, 31), 6)
    assert (m.a, m.b, m.c, m.d, m.modulus) == (1, 0, 0, 1, 6)
    assert reduce_mod(Mat2(-1, 0, 0, -1), 4) == ModMatrix(3, 0, 0, 3, 4)
    with pytest.raises(ValueError):
        ModMatrix(1, 0, 0, 1, 0)


@pytest.mark.parametrize("modulus", [8.0, 2.5, np.float64(8)], ids=str)
def test_mod_matrix_needs_an_integer_modulus(modulus):
    # a float modulus used to give float residues, on which lift_theta
    # raised a bare TypeError from pow
    with pytest.raises(ValueError, match="modulus must be a positive integer"):
        reduce_mod(Mat2(2, 1, 3, 2), modulus)
    with pytest.raises(ValueError, match="modulus must be a positive integer"):
        ModMatrix(2, 1, 3, 2, modulus)


def test_numpy_integers_are_integers_for_modulus_and_samples():
    bm = reduce_mod(Mat2(2, 1, 3, 2), np.int64(8))
    assert lift_theta(bm) == lift_theta(reduce_mod(Mat2(2, 1, 3, 2), 8))
    a = Mat2(2, 1, 3, 2)
    assert verify_hecke(a, 4, samples=np.int64(6), seed=1) == verify_hecke(a, 4, samples=6, seed=1)


@pytest.mark.parametrize("entry", [2.5, 2.0, np.float64(2), "2"], ids=repr)
def test_mod_matrix_needs_integer_entries(entry):
    # ModMatrix(2.5, 1, 3, 2, 8) used to hold 2.5 as a residue
    with pytest.raises(ValueError, match="a must be an integer"):
        ModMatrix(entry, 1, 3, 2, 8)


@pytest.mark.parametrize("cap", ["64", 64.0, 2.5], ids=repr)
def test_commutant_cap_must_be_an_integer(cap):
    # verify_hecke(A, 2, cap="64") used to raise a bare TypeError at m > cap
    with pytest.raises(ValueError, match="cap must be an integer"):
        verify_hecke(Mat2(2, 1, 3, 2), 2, cap=cap)


def test_mod_matrix_product():
    a = ModMatrix(1, 2, 3, 4, 5)
    b = ModMatrix(2, 0, 1, 3, 5)
    c = a @ b
    assert (c.a, c.b, c.c, c.d) == ((2 + 2) % 5, 6 % 5, (6 + 4) % 5, 12 % 5)
    with pytest.raises(ValueError):
        a @ ModMatrix(1, 0, 0, 1, 7)


def test_verify_mod4N_equal_pair():
    a = Mat2(2, 1, 3, 2)
    b = a @ Mat2(1, 24, 0, 1)  # right factor congruent to 1 mod 4N at N = 6
    rep = verify_mod4N(a, b, 6)
    assert rep.passed and rep.max_error < rep.tol


def test_verify_mod4N_rejects_incongruent():
    with pytest.raises(NotCongruentError):
        verify_mod4N(Mat2(2, 1, 3, 2), IDENTITY, 2)


@pytest.mark.parametrize("n", [0, -1])
def test_congruence_checks_reject_nonpositive_dimension(n):
    a = Mat2(2, 1, 3, 2)
    for check in (verify_mod4N, mod2N_factor):
        with pytest.raises(ValueError, match="positive"):
            check(a, a, n)
    with pytest.raises(ValueError, match="positive"):
        commutant_mod(a, n)
    with pytest.raises(ValueError, match="positive"):
        verify_hecke(a, n)


def test_commutant_needs_an_integer_dimension():
    # this used to raise a bare TypeError
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        commutant_mod(Mat2(2, 1, 3, 2), 2.0)


def test_hecke_check_needs_an_integer_dimension():
    # this used to raise a bare TypeError
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        verify_hecke(Mat2(2, 1, 3, 2), 2.0)


def test_shear_parameter_periodic_mod_4N():
    # shifting the shear power by 4N leaves the propagator unchanged,
    # in both shear orientations
    for n in (1, 2, 3, 5):
        for m in (0, 2, 6):
            lower = build(Mat2(1, 0, m, 1), n)
            lower_shift = build(Mat2(1, 0, m + 4 * n, 1), n)
            assert np.abs(lower - lower_shift).max() < 1e-15
            upper = build(Mat2(1, m, 0, 1), n)
            upper_shift = build(Mat2(1, m + 4 * n, 0, 1), n)
            assert np.abs(upper - upper_shift).max() < 1e-12


def test_mod2N_sign_minus_one():
    # (7, 6; 36, 31) = 1 mod 6 but its propagator at N = 3 is -1 times
    # the identity; the connecting factor is the Jacobi symbol (3|7) = -1
    a = Mat2(7, 6, 36, 31)
    assert is_theta(a)
    factor, rep = mod2N_factor(a, IDENTITY, 3)
    assert factor == -1
    assert rep.passed and rep.max_error < rep.tol
    u = build(a, 3)
    assert np.abs(u + np.eye(3)).max() < 1e-12


def test_mod2N_sign_plus_one_for_mod4N_pairs():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 8)
        a = evaluate(random_word(rng, 6))
        b = congruent_companion(a, 4 * n, rng)
        factor, rep = mod2N_factor(a, b, n)
        assert factor == 1 and rep.passed


def test_congruent_companion_is_congruent_theta():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 10)
        modulus = 2 * n * rng.choice([1, 2])
        a = evaluate(random_word(rng, 6))
        b = congruent_companion(a, modulus, rng)
        assert is_theta(b)
        assert all((x - y) % modulus == 0
                   for x, y in zip(a.entries(), b.entries()))


@pytest.mark.parametrize("modulus", [2, 4, 6, 12, 64, 998])
def test_congruent_companion_draws_as_the_retry_loop_did(modulus):
    # the straight-line draw consumes the generator exactly as the old loop
    # did on its first pass, so the two stay in step over 1,000 draws
    rng, ref_rng = random.Random(modulus), random.Random(modulus)
    a = evaluate(random_word(random.Random(7), 6))
    for _ in range(1000):
        assert (congruent_companion(a, modulus, rng)
                == congruent_companion_reference(a, modulus, ref_rng))
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("modulus", [3, 1, 0, -2, 8.0, 2.5, "8"])
def test_congruent_companion_rejects_odd_or_small_modulus(modulus):
    # modulus 8.0 used to give the non-integer matrix 26.0,1,51.0,2, and
    # "8" a bare TypeError
    with pytest.raises(ValueError):
        congruent_companion(IDENTITY, modulus, random.Random(0))


def test_commutant_contains_expected_members():
    a = Mat2(2, 1, 3, 2)
    n = 3
    members = commutant_mod(a, n)
    m = 4 * n
    assert reduce_mod(IDENTITY, m) in members
    assert reduce_mod(Mat2(-1, 0, 0, -1), m) in members
    assert reduce_mod(a, m) in members
    assert reduce_mod(a @ a, m) in members
    # every member commutes with a and is unimodular with theta parity
    am = reduce_mod(a, m)
    for bm in members:
        assert am @ bm == bm @ am
        assert (bm.a * bm.d - bm.b * bm.c) % m == 1
        assert (bm.a * bm.b) % 2 == 0 and (bm.c * bm.d) % 2 == 0


def test_commutant_closed_under_product():
    a = Mat2(2, 1, 3, 2)
    members = commutant_mod(a, 2)
    index = set(members)
    rng = random.Random(7)
    for _ in range(60):
        x = rng.choice(members)
        y = rng.choice(members)
        assert x @ y in index


def test_commutant_sorted_and_deterministic():
    a = Mat2(2, 1, 3, 2)
    members = commutant_mod(a, 2)
    keys = [(m.a, m.b, m.c, m.d) for m in members]
    assert keys == sorted(keys)
    assert members == commutant_mod(a, 2)


def test_commutant_cap():
    with pytest.raises(CapExceededError):
        commutant_mod(IDENTITY, 17, cap=64)


def test_lift_theta_roundtrip():
    rng = random.Random(9)
    for n in (1, 2, 3, 4, 6, 8):
        a = evaluate(random_word(rng, 5))
        members = commutant_mod(a, n)
        sample = members if len(members) <= 20 else rng.sample(members, 20)
        for bm in sample:
            lifted = lift_theta(bm)
            assert is_theta(lifted)
            assert reduce_mod(lifted, bm.modulus) == bm


def test_lift_theta_rejects_bad_residues():
    with pytest.raises(LiftError):
        lift_theta(ModMatrix(0, 2, 2, 0, 4))  # determinant 0 mod 4
    with pytest.raises(ValueError):
        lift_theta(ModMatrix(1, 0, 0, 1, 3))  # odd modulus


def test_verify_hecke_family():
    rep = verify_hecke(Mat2(2, 1, 3, 2), 3)
    assert rep.passed
    assert rep.note == f"commutant size {rep.samples}" and rep.samples > 0
    assert rep.max_error < rep.tol * 3


def test_verify_hecke_sampled():
    rep = verify_hecke(Mat2(2, 1, 3, 2), 4, samples=6, seed=1)
    assert rep.samples == 6
    assert rep.passed


@pytest.mark.parametrize("n", range(1, 17))
def test_commutant_matches_loop_enumeration(n):
    # every 4N up to the default cap, with both scalar matrices, whose
    # commutant is every theta matrix mod 4N (65,536 of them at 4N = 64)
    rng = random.Random(100 + n)
    for a in [random_theta_general(rng, 5), IDENTITY, Mat2(-1, 0, 0, -1)]:
        assert commutant_mod(a, n) == commutant_mod_reference(a, n), a


def test_commutant_of_the_identity_peaks_below_12_mb():
    # the members are found one top-left entry at a time, so the 65,536
    # ModMatrix members themselves (about 8 MB) are most of the peak
    tracemalloc.start()
    try:
        members = commutant_mod(IDENTITY, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(members) == 65536
    assert peak < 12 * 2**20


@pytest.mark.parametrize("kwargs", [
    {}, {"samples": 5, "seed": 3}, {"samples": 1},
], ids=["all", "seeded-subset", "one-sample"])
def test_verify_hecke_matches_per_member_loop(kwargs):
    rng = random.Random(23)
    for n in range(1, 9):
        a = random_theta_general(rng, 5)
        want = verify_hecke_reference(a, n, **kwargs)
        assert verify_hecke(a, n, **kwargs) == want, (a, n)
    assert int(want.note.removeprefix("commutant size ")) > 5


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_verify_hecke_pairs_of_scalar_commutant(n):
    # the commutant of -I is the whole theta group mod 4N, so many sampled
    # pairs do not commute mod 4N and the pair mask must skip exactly those
    a = Mat2(-1, 0, 0, -1)
    kwargs = {"samples": 40, "seed": n}
    assert verify_hecke(a, n, **kwargs) == verify_hecke_reference(a, n, **kwargs)


@pytest.mark.parametrize("kwargs, match", [
    ({"samples": 0}, "samples"), ({"samples": -2}, "samples"),
    ({"samples": 2.5}, "samples must be a positive integer"),
    ({"samples": np.float64(3)}, "samples must be a positive integer"),
])
def test_verify_hecke_rejects_vacuous_requests(kwargs, match):
    with pytest.raises(ValueError, match=match):
        verify_hecke(Mat2(2, 1, 3, 2), 3, **kwargs)


@pytest.mark.parametrize("nan_call", [0, 1, 3],
                         ids=["first-chunk", "later-chunk", "pairs"])
def test_verify_hecke_reports_a_nan_commutator(monkeypatch, nan_call):
    # a NaN in a later chunk or in the pair check used to be dropped by
    # max(), so the report named a finite error
    real = hecke._max_commutator
    calls = []

    def nan_at_one_call(x, y):
        calls.append(None)
        return float("nan") if len(calls) - 1 == nan_call else real(x, y)

    monkeypatch.setattr(hecke, "_CHUNK", 16)
    monkeypatch.setattr(hecke, "_max_commutator", nan_at_one_call)
    rep = verify_hecke(Mat2(2, 1, 3, 2), 3)
    # 48 members in three chunks of 16, then one batch of commuting pairs
    assert len(calls) == 4
    assert np.isnan(rep.max_error) and not rep.passed
    assert rep.samples == 48


@pytest.mark.parametrize("a", [Mat2(2.5, 1, 3, 2), Mat2(2.0, 1, 3, 2), Mat2(2, 1, 3, 3)],
                         ids=["float", "integral-float", "det-3"])
def test_commutant_and_companion_take_theta_matrices_only(a):
    # these used to enumerate 16 members from float residues and return
    # 26.5,1.0,51,2; the determinant-3 matrix gave 4 members and 26,1,75,3
    with pytest.raises(NotThetaError):
        commutant_mod(a, 2)
    with pytest.raises(NotThetaError):
        congruent_companion(a, 8, random.Random(0))
