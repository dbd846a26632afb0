import cmath
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcatmap import gauss, propagator, suites
from qcatmap.numtheory import NotCoprimeError
from qcatmap.propagator import (InvalidParityError, build, classify, h_phase,
                                propagator_json, unitarity_defect, verify_mult)
from qcatmap.sl2 import (IDENTITY, P_MAT, S_MINUS, S_PLUS, T2_MINUS, T2_PLUS,
                         Mat2, NotThetaError, evaluate, is_theta, lift_theta,
                         random_theta_general, random_word, reduce_mod)
from _oracles import (build_antishear_reference, build_general_reference,
                      delta_basis, exponent_reference, gauss_reference,
                      projective_phase, propagator_from_exponents,
                      propagator_reference, unitarity_defect_reference)


def e(t):
    return cmath.exp(2j * cmath.pi * t)


def test_fourier_case_matches_dft():
    # (0, 1; -1, 0) acts as the normalized discrete Fourier transform
    for n in (1, 2, 3, 5, 8):
        f = np.fft.fft(np.eye(n)) / math.sqrt(n)
        assert np.abs(build(S_MINUS, n) - f).max() < 1e-12
        assert np.abs(build(S_PLUS, n) - f.conj()).max() < 1e-12


def test_fourier_hand_value():
    want = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.abs(build(S_PLUS, 2) - want).max() < 1e-12


def test_parity_case_is_reflection():
    for n in (1, 2, 3, 6):
        u = build(P_MAT, n)
        want = np.zeros((n, n))
        for q in range(n):
            want[q, (-q) % n] = 1.0
        assert np.abs(u - want).max() < 1e-12


def test_shear_case_is_diagonal_phase():
    for n in (1, 2, 3, 4, 7):
        u = build(T2_PLUS, n)
        q = np.arange(n)
        want = np.diag(np.exp(2j * np.pi * (q * q % n) / n))
        assert np.abs(u - want).max() < 1e-12


def test_general_case_hand_value():
    # the nonzero entries sit where a*Q' - Q is odd, not where it is even
    want = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.abs(build(Mat2(1, 2, 0, 1), 2) - want).max() < 1e-12


def test_antishear_from_generator_product():
    m = Mat2(0, 1, -1, 2)
    assert m == T2_PLUS @ S_MINUS
    for n in (2, 3, 5, 8):
        prod = build(T2_PLUS, n) @ build(S_MINUS, n)
        assert np.abs(build(m, n) - prod).max() < 1e-10


def test_dimension_one_is_trivial():
    rng = random.Random(2)
    for _ in range(50):
        m = evaluate(random_word(rng, 10))
        u = build(m, 1)
        assert u.shape == (1, 1)
        assert abs(u[0, 0] - 1.0) < 1e-12


def test_classify_cases():
    assert str(classify(S_PLUS)) == "fourier(+)"
    assert str(classify(S_MINUS)) == "fourier(-)"
    assert str(classify(P_MAT)) == "parity"
    assert str(classify(T2_PLUS)) == "shear(m=2,+)"
    assert str(classify(Mat2(-1, 0, 2, -1))) == "shear(m=2,-)"
    assert str(classify(Mat2(0, 1, -1, 2))) == "antishear(w=2,+)"
    assert str(classify(Mat2(2, 1, 3, 2))) == "general"
    with pytest.raises(NotThetaError):
        classify(Mat2(1, 1, 0, 1))


def test_h_phase_values():
    assert abs(h_phase(1, 2) - e(-1 / 8)) < 1e-12
    assert abs(h_phase(-1, 2) - e(1 / 8)) < 1e-12
    assert abs(h_phase(3, 2) - e(1 / 8)) < 1e-12
    assert abs(h_phase(2, 1) - 1.0) < 1e-12
    assert abs(h_phase(2, 3) - (-1j)) < 1e-12
    # the top rows of the anti-shears and the shears
    for a, b in [(0, 1), (0, -1), (1, 0), (-1, 0)]:
        assert h_phase(a, b) == 1


def test_h_phase_rejects():
    with pytest.raises(InvalidParityError):
        h_phase(1, 3)
    with pytest.raises(InvalidParityError):
        h_phase(2, 4)
    with pytest.raises(InvalidParityError):
        h_phase(0, 0)
    with pytest.raises(NotCoprimeError):
        h_phase(0, 3)
    # these used to raise a bare TypeError from math.gcd
    for a, b, name in [(2.5, 3, "a"), (2, 3.0, "b"), ("2", 3, "a")]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            h_phase(a, b)


def test_entries_against_reference_formula():
    # independent scalar reconstruction: entry (Q, Q') is
    # h(a,b)/sqrt(N_b) * G(N_b a, b', 2(aQ'-Q)/g) * e((dQ^2-2QQ'+aQ'^2)/(2Nb))
    # with the sum evaluated by the slow reference average
    rng = random.Random(13)
    checked = 0
    while checked < 25:
        word = random_word(rng, 8)
        m = evaluate(word)
        if m.a == 0 or m.b == 0:
            continue
        n = rng.randint(1, 10)
        u = build(m, n)
        g = math.gcd(abs(m.b), n)
        n_b = n // g
        bp = m.b // g
        h = h_phase(m.a, m.b)
        for _ in range(6):
            q = rng.randrange(n)
            qp = rng.randrange(n)
            t = 2 * (m.a * qp - q)
            if t % g:
                want = 0.0
            else:
                quad = m.d * q * q - 2 * q * qp + m.a * qp * qp
                den = 2 * n * m.b
                # reduce before exponentiating to keep the argument small
                frac = ((quad if den > 0 else -quad) % abs(den)) / abs(den)
                want = (h / math.sqrt(n_b)
                        * gauss_reference(n_b * m.a, bp, t // g)
                        * cmath.exp(2j * math.pi * frac))
            assert abs(u[q, qp] - want) < 1e-10, (m, n, q, qp)
        checked += 1


def test_delta_probe_value():
    # applying U to the basis vector concentrated at 0 probes the (0, 0)
    # entry: component 0 must equal sqrt((b,N)) * h(a,b) * G(N_b a, b', 0)
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        shear = T2_PLUS if rng.random() < 0.5 else T2_MINUS
        m = shear @ evaluate(random_word(rng, 8))
        if m.a == 0 or m.b == 0:
            continue
        n = rng.randint(1, 12)
        g = math.gcd(abs(m.b), n)
        probe = (build(m, n) @ delta_basis(0, n))[0]
        want = (math.sqrt(g) * h_phase(m.a, m.b)
                * gauss_reference((n // g) * m.a, m.b // g, 0))
        assert abs(probe - want) < 1e-10, (m, n)
        checked += 1


def test_inverse_gives_adjoint():
    rng = random.Random(17)
    for _ in range(60):
        m = evaluate(random_word(rng, 10))
        n = rng.randint(1, 16)
        u = build(m, n)
        v = build(m.inverse(), n)
        assert np.abs(v - u.conj().T).max() < 1e-10 * n


def test_unitarity_random():
    rng = random.Random(19)
    for _ in range(60):
        m = evaluate(random_word(rng, 10))
        n = rng.randint(1, 32)
        assert unitarity_defect(build(m, n, check=False)) < 1e-9 * math.sqrt(n)


def test_unitarity_defect_equals_full_identity_difference():
    # the identity is subtracted from the diagonal in place; the value must
    # be the one the full difference gives, off the diagonal as well
    rng = np.random.default_rng(5)
    mats = [np.array([[1, 1], [0, 0]], dtype=complex), 2 * np.eye(3, dtype=complex)]
    for n in (1, 2, 7, 64):
        mats.append(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        mats.append(build(random_theta_general(random.Random(n), 8), n))
    for u in mats:
        before = u.copy()
        want = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
        assert unitarity_defect(u) == want
        assert np.array_equal(u, before)


B = propagator._GRAM_BLOCK
GRAM_DIMS = [1, 2, B - 1, B, B + 1, 2 * B + 3, 300]


@pytest.mark.parametrize("n", GRAM_DIMS)
def test_blocked_unitarity_defect_equals_dense_product(n):
    # built propagators, and random matrices far from unitary whose columns
    # have unit norm on average, so the entries of u^dagger u are O(1)
    rng = np.random.default_rng(n)
    mats = [build(random_theta_general(random.Random(n + k), 8), n, check=False)
            for k in range(2)]
    for _ in range(2):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mats.append(z / math.sqrt(2 * n))
    for k, u in enumerate(mats):
        before = u.copy()
        want = unitarity_defect_reference(u)
        assert abs(unitarity_defect(u) - want) <= 1e-15 * n
        # the certificate accepts the builds and rejects the random matrices
        assert propagator._certified(u) == (k < 2)
        assert np.array_equal(u, before)


@pytest.mark.parametrize("row, col", [(2 * B + 2, 0), (B + 5, B - 1)],
                         ids=["corner", "below-diagonal-block"])
def test_blocked_unitarity_defect_sees_a_lower_left_entry(row, col):
    # the upper block triangle of u^dagger u still holds every column of u
    n = 2 * B + 3
    u = build(Mat2(2, 1, 3, 2), n)
    u[row, col] += 1e-3
    got = unitarity_defect(u)
    assert got > propagator.UNITARITY_TOL * math.sqrt(n)
    assert abs(got - unitarity_defect_reference(u)) <= 1e-15 * n


def _peak_bytes(guard, u):
    tracemalloc.start()
    try:
        guard(u)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_unitarity_defect_holds_no_square_temporary():
    # the dense product held an N x N conjugate copy and an N x N product;
    # (1, 2; 2, 5) has g = 2 blocks
    n = 4 * B
    for m in (Mat2(2, 1, 3, 2), Mat2(1, 2, 2, 5)):
        u = build(m, n)
        assert _peak_bytes(unitarity_defect, u) < u.nbytes


def test_block_guard_holds_no_more_than_the_half_gram():
    # the certificate works in row blocks of _BLOCK entries; for g > 1 it
    # also holds the (re, im) flags of u, an eighth of its bytes
    for m in (Mat2(2, 1, 3, 2), Mat2(1, 2, 2, 5)):
        u = build(m, 4 * B)
        dense = _peak_bytes(unitarity_defect, u)
        assert propagator._certified(u)
        assert _peak_bytes(propagator._certified, u) <= dense


# One guard, the certificate or the dense Gram, at N = 2048 in a fresh
# process, after a warm-up of both; prints the growth of ru_maxrss across
# the call.
_RSS_GROWTH = """
import resource, sys
from qcatmap import propagator
from qcatmap.sl2 import Mat2
guard = getattr(propagator, sys.argv[1])
for m in (Mat2(2, 1, 3, 2), Mat2(1, 2, 2, 5)):
    propagator.unitarity_defect(propagator.build(m, 256))
    propagator._certified(propagator.build(m, 256))
u = propagator.build(Mat2(*map(int, sys.argv[2:])), 2048, check=False)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
result = guard(u)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, result)
"""


def _guard_rss_growth(guard, m):
    # Linux carries a process's resident peak across exec into ru_maxrss,
    # so a child of this test process would start from its peak: the guard
    # runs in a grandchild, through a small launcher
    src = str(Path(__file__).resolve().parents[1] / "src")
    launch = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
    argv = [sys.executable, "-c", launch,
            sys.executable, "-c", _RSS_GROWTH, guard, *map(str, m.entries())]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    growth, result = proc.stdout.split()
    return int(growth), result


def test_block_guard_resident_growth_stays_below_the_dense_guards():
    # tracemalloc does not see the buffers numpy's matmul takes, but the
    # resident set does: the dense guard rose about 11 MB at N = 2048, the
    # certificate 0 MB at g = 1 and 8 MB (the (re, im) flags of u) at g = 2
    for m in (Mat2(2, 1, 3, 2), Mat2(1, 2, 2, 5)):
        growth, certified = _guard_rss_growth("_certified", m)
        dense, _ = _guard_rss_growth("unitarity_defect", m)
        assert certified == "True"
        assert growth < dense


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_strided_block_guard_keeps_a_nan_past_its_first_product(monkeypatch, value):
    # g = 2 at N = 1024: an entry of the last row, which the certificate
    # reaches in its last row block, fails it, and the dense Gram, which
    # decides, reads NaN
    def edit(u):
        u[1023, _first_nonzero(u, 1023) + 2] = value

    u = build(Mat2(1, 2, 2, 5), 1024)
    edit(u)
    assert not propagator._certified(u)
    assert math.isnan(unitarity_defect(u))
    _edit_builds(monkeypatch, edit)
    with pytest.raises(propagator.UnitarityError, match="defect nan"):
        build(Mat2(1, 2, 2, 5), 1024)
    # at B00 or B11 of block 0, which k is read from, it fails with no
    # warning
    for row, col in ((0, 0), (2, 2)):
        v = build(Mat2(1, 2, 2, 5), 1024, check=False)
        v[row, _first_nonzero(v, row) + col] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not propagator._certified(v)


@pytest.mark.parametrize("at", [(0, 0), (2 * B + 2, 2 * B + 2)],
                         ids=["first-block", "last-block"])
def test_unitarity_guard_rejects_a_nan(monkeypatch, at):
    n = 2 * B + 3
    real = propagator._build_general

    def nan_at_one_entry(u, ms, groups, n):
        real(u, ms, groups, n)
        u[(0, *at)] = np.nan

    monkeypatch.setattr(propagator, "_build_general", nan_at_one_entry)
    m = Mat2(2, 1, 3, 2)
    assert math.isnan(unitarity_defect(build(m, n, check=False)))
    with pytest.raises(propagator.UnitarityError, match="defect nan"):
        build(m, n)


def _monomials(n):
    """Shears, parity, and seeded permutation x phase matrices, two of them
    with moduli off 1 so that the defect is O(1)."""
    rng = np.random.default_rng(n)
    mats = [build(m, n) for m in (Mat2(1, 0, 6, 1), Mat2(-1, 0, -4, -1),
                                  P_MAT, T2_PLUS, T2_MINUS)]
    for scale in (1.0, rng.uniform(0.5, 1.5, n), rng.uniform(0.9, 1.1, n)):
        u = np.zeros((n, n), dtype=complex)
        u[np.arange(n), rng.permutation(n)] = scale * np.exp(2j * np.pi * rng.random(n))
        mats.append(u)
    return mats


@pytest.mark.parametrize("n", [B + 1, 300, 1024])
def test_monomial_guard_equals_dense_product(n):
    for u in _monomials(n):
        before = u.copy()
        assert abs(unitarity_defect(u) - unitarity_defect_reference(u)) <= 1e-15 * n
        assert np.array_equal(u, before)


def test_monomial_within_one_block_keeps_the_gram_bits():
    for u in _monomials(B):
        assert unitarity_defect(u) == unitarity_defect_reference(u)


def _repeat_a_column(u):
    u[5] = 0
    u[5, np.flatnonzero(u[6])] = 1


def _share_the_last_column(u):
    # two half-weight entries fill column N - 2 exactly, and the last
    # column is empty
    u[-2:] = 0
    u[-2:, -2] = math.sqrt(0.5)


def _empty_row(row):
    def edit(u):
        u[row] = 0
    return edit


def _set_entry(value, nonzero):
    # row 9's nonzero entry, or the entry next to it, which is zero
    def edit(u):
        col = np.flatnonzero(u[9])[0]
        u[9, col if nonzero else (col + 1) % len(u)] = value
    return edit


DEFECTIVE_MONOMIALS = {
    "repeated-column": _repeat_a_column,
    "shared-last-column": _share_the_last_column,
    "empty-row": _empty_row(7),
    "empty-first-row": _empty_row(0),
    "nan-at-nonzero": _set_entry(np.nan, True),
    "nan-at-zero": _set_entry(np.nan, False),
    "inf-at-nonzero": _set_entry(np.inf, True),
    "inf-at-zero": _set_entry(np.inf, False),
}


@pytest.mark.parametrize("edit", DEFECTIVE_MONOMIALS.values(),
                         ids=DEFECTIVE_MONOMIALS.keys())
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
def test_unitarity_guard_rejects_a_defective_shear(monkeypatch, edit):
    n = 2 * B + 3
    real = propagator._build_shear

    def defective(u, ms, ks, n):
        real(u, ms, ks, n)
        edit(u[0])

    monkeypatch.setattr(propagator, "_build_shear", defective)
    m = Mat2(1, 0, 6, 1)
    u = build(m, n, check=False)
    got, want = unitarity_defect(u), unitarity_defect_reference(u)
    if math.isfinite(want):
        # an empty column, or a column of norm 2 next to an empty one
        assert abs(want - 1) < 1e-12
        assert abs(got - want) <= 1e-15 * n
    else:
        assert math.isnan(got)
    assert not propagator._certified(u)
    with pytest.raises(propagator.UnitarityError, match=_dense_message(u)):
        build(m, n)


def _dense_message(u):
    """The end of the UnitarityError message that the dense Gram of u
    gives."""
    return re.escape(f"is not unitary (defect {unitarity_defect(u):.3e})")


def test_dense_matrix_with_a_monomial_first_row_takes_the_gram():
    n = 2 * B + 3
    rng = np.random.default_rng(3)
    u = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2 * n)
    u[0] = 0
    u[0, 4] = 1
    assert abs(unitarity_defect(u) - unitarity_defect_reference(u)) <= 1e-15 * n


@pytest.mark.parametrize("u", [np.eye(3, 2), np.eye(2, 3), np.ones(4),
                               np.zeros((2, 2, 2)), np.array(1.0),
                               np.zeros((0, 0)), [[1]], np.array([["1"]]),
                               np.array([[True]]), np.array([[1]], dtype=object)],
                         ids=["tall", "wide", "1-d", "3-d", "0-d", "empty", "list",
                              "str", "bool", "object"])
def test_unitarity_defect_rejects_a_non_square_array(u):
    # eye(3, 2) is an isometry, u^dagger u = I exactly, but had read 1.0
    # from a diagonal stride taken from the row count; a 0 x 0 array had
    # raised a ZeroDivisionError, the list an AttributeError and the
    # arrays of no numeric dtype a TypeError
    with pytest.raises(ValueError, match="square"):
        unitarity_defect(u)


def _with_b(a, b):
    """The theta matrix (a, b; c, d) with the least d >= 0 (a, b coprime,
    one of them even)."""
    d = pow(a, -1, abs(b)) if abs(b) > 1 else 0
    m = Mat2(a, b, (a * d - 1) // b, d)
    # a shift by (a, b) flips the parity of c d
    return m if is_theta(m) else Mat2(a, b, m.c + a, d + b)


# (N, top rows (a, b)): g = gcd(b, N) from 2 to N, with N/g nonzeros per
# row, in blocks of N/g <= B or N/g > B; a != 1 mod g permutes the column
# classes, and b = N (g = N) is a general monomial
BLOCK_CASES = [(129, (2, 3)), (129, (5, 6)), (129, (2, 129)),
               (256, (1, 2)), (256, (3, 4)), (256, (3, 8)), (256, (1, 256)),
               (300, (1, 2)), (300, (7, 2)), (300, (2, 3)), (300, (3, 4)),
               (300, (2, 5)), (300, (5, 6)), (300, (7, 20)), (300, (1, 300)),
               (1024, (1, 2)), (1024, (3, -4)), (1024, (3, 8)), (1024, (5, 64))]


@pytest.mark.parametrize("n, top", BLOCK_CASES,
                         ids=[f"{n}-{a},{b}" for n, (a, b) in BLOCK_CASES])
def test_block_guard_equals_dense_product(n, top):
    m = _with_b(*top)
    g = math.gcd(m.b, n)
    u = build(m, n, check=False)
    before = u.copy()
    # g blocks of N/g x N/g entries hold every nonzero, and the certificate
    # accepts them
    assert np.count_nonzero(u) == n * n // g
    assert propagator._certified(u)
    assert abs(unitarity_defect(u) - unitarity_defect_reference(u)) <= 1e-15 * n
    assert np.array_equal(u, before)


def test_shear_is_the_case_of_one_by_one_blocks():
    n = 2 * B + 3
    for m in (Mat2(1, 0, 6, 1), P_MAT):
        u = build(m, n)
        assert np.count_nonzero(u) == n
        assert propagator._certified(u)


def _first_nonzero(u, row):
    return int(np.flatnonzero(u[row])[0])


def _move_off_block(u, g):
    col = _first_nonzero(u, 9)
    u[9, col + 1], u[9, col] = u[9, col], 0


def _set_block_entry(value, inside):
    # row 9's first nonzero, or the zero next to it, in another class
    def edit(u, g):
        u[9, _first_nonzero(u, 9) + (not inside)] = value
    return edit


def _empty_column(first):
    # a column of row class 1's column class, which misses row 0; among
    # the first g columns the guard reads the classes from, or past them
    def edit(u, g):
        u[:, _first_nonzero(u, 1) + (0 if first else g)] = 0
    return edit


def _two_column_classes_in_one_row_class(u, g):
    # row class 2's block moves into row class 1, which then meets two
    # column classes, and row class 2 is empty
    c = _first_nonzero(u, 2) % g
    u[1::g, c::g] = u[2::g, c::g]
    u[2::g] = 0


def _two_row_classes_in_one_column_class(u, g):
    # row class 2 takes a copy of row class 1's block, in its column
    # class: each block alone is unitary, but that column class has norm 2
    # and row class 2's own column class is empty
    c1, c2 = (_first_nonzero(u, r) % g for r in (1, 2))
    u[2::g, c1::g] = u[1::g, c1::g]
    u[2::g, c2::g] = 0


DEFECTIVE_BLOCKS = {
    "moved-off-block": _move_off_block,
    "nan-in-block": _set_block_entry(np.nan, True),
    "nan-off-block": _set_block_entry(np.nan, False),
    "inf-in-block": _set_block_entry(np.inf, True),
    "inf-off-block": _set_block_entry(np.inf, False),
    "emptied-column": _empty_column(False),
    "emptied-first-column": _empty_column(True),
    "two-column-classes-in-one-row-class": _two_column_classes_in_one_row_class,
    "two-row-classes-in-one-column-class": _two_row_classes_in_one_column_class,
}


# g = 3 blocks of 130 columns, past one Gram block, and g = 6 blocks of 50
@pytest.mark.parametrize("n, m", [(390, Mat2(2, 3, 1, 2)), (300, _with_b(5, 6))],
                         ids=["views", "stack"])
@pytest.mark.parametrize("edit", DEFECTIVE_BLOCKS.values(),
                         ids=DEFECTIVE_BLOCKS.keys())
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
def test_unitarity_guard_rejects_a_defective_block_pattern(monkeypatch, edit, n, m):
    g = math.gcd(m.b, n)
    real = propagator._build_general

    def defective(u, ms, groups, n):
        real(u, ms, groups, n)
        edit(u[0], g)

    monkeypatch.setattr(propagator, "_build_general", defective)
    u = build(m, n, check=False)
    got, want = unitarity_defect(u), unitarity_defect_reference(u)
    if math.isfinite(want):
        assert abs(got - want) <= 1e-15 * n
    else:
        assert math.isnan(got)
    assert not propagator._certified(u)
    with pytest.raises(propagator.UnitarityError, match=_dense_message(u)):
        build(m, n)


def _edit_builds(monkeypatch, edit):
    """Make build apply edit to the first stack member once a kernel has
    written its members."""
    for name in ("_build_general", "_build_shear"):
        def edited(u, ms, ks, n, real=getattr(propagator, name)):
            real(u, ms, ks, n)
            edit(u[0])
        monkeypatch.setattr(propagator, name, edited)


# g = 1, and g > 1 with blocks of M > 1 entries (g = 3, 2 and 2)
MUTANT_CASES = [(129, Mat2(2, 1, 3, 2)), (129, Mat2(2, 3, 1, 2)),
                (300, Mat2(2, 1, 3, 2)), (300, Mat2(1, 2, 2, 5)),
                (1024, Mat2(2, 1, 3, 2)), (1024, Mat2(1, 2, 2, 5))]
MUTANT_IDS = [f"{n}-{m}" for n, m in MUTANT_CASES]


def _non_unit_block(u):
    # row class 1's block becomes e(p i j / M) / sqrt(M), p the least prime
    # factor of M: moduli and form right, k = p no unit mod M
    n, m = len(u), np.count_nonzero(u[0])
    g, r = n // m, 1 % (n // m)
    p = next(q for q in range(2, m + 1) if m % q == 0)
    i = np.arange(m)
    u[r::g, _first_nonzero(u, r)::g] = np.exp(2j * np.pi * (p * np.outer(i, i) % m) / m) / math.sqrt(m)


def _turn_an_entry(u):
    u[9, _first_nonzero(u, 9)] *= cmath.exp(2j * cmath.pi / (4 * len(u)))


@pytest.mark.parametrize("edit", [_non_unit_block, _turn_an_entry],
                         ids=["non-unit-k", "turned-by-a-4N-th-root"])
@pytest.mark.parametrize("n, m", MUTANT_CASES, ids=MUTANT_IDS)
def test_certificate_and_build_reject_a_block_form_mutant(monkeypatch, edit, n, m):
    u = build(m, n)
    edit(u)
    assert not propagator._certified(u)
    assert unitarity_defect_reference(u) > 1e-6
    _edit_builds(monkeypatch, edit)
    with pytest.raises(propagator.UnitarityError, match=_dense_message(u)):
        build(m, n)


@pytest.mark.parametrize("n, m", MUTANT_CASES, ids=MUTANT_IDS)
def test_guard_is_never_stricter_than_the_dense_gram(monkeypatch, n, m):
    # an entry moved by 1e-10 of itself fails the certificate, but the
    # dense Gram passes it, so build returns it as built
    def edit(u):
        u[9, _first_nonzero(u, 9)] *= 1 + 1e-10

    _edit_builds(monkeypatch, edit)
    u = build(m, n, check=False)
    assert not propagator._certified(u)
    assert unitarity_defect(u) < propagator.UNITARITY_TOL * math.sqrt(n)
    assert _same_bits(build(m, n), u)


def _decision_matrices(n, rng):
    """|b| = 1, an anti-shear, S, parity and a shear, and general matrices
    with |b| >= 2 and g = gcd(b, N) = 1, 2, 4 where g divides N."""
    ms = [Mat2(2, 1, 3, 2), Mat2(0, 1, -1, 4), S_PLUS, P_MAT, Mat2(1, 0, 6, 1)]
    for g in (1, 2, 4):
        if n % g:
            continue
        while True:
            b = g * rng.randrange(1, 40)
            a = rng.randrange(1, 40)
            if (b > 2 and math.gcd(b, n) == g and math.gcd(a, b) == 1
                    and (a + b) % 2):
                ms.append(_with_b(a, b))
                break
    return ms


def _random_edit(rng):
    """One seeded entry edit: a relative move of a nonzero entry or a
    value at a zero, of a size from 1e-14 to 1, or a NaN or inf."""
    kind = rng.choice(["move", "move", "move", "zero", "nan", "inf"])
    size = 10 ** rng.uniform(-14, 0)
    turn = cmath.exp(2j * cmath.pi * rng.random())
    row, pick = rng.randrange(10**6), rng.randrange(10**6)

    def edit(u):
        nz = u[row % len(u)] != 0
        cols = np.flatnonzero(nz if kind != "zero" else ~nz)
        if not len(cols):
            return
        at = row % len(u), cols[pick % len(cols)]
        if kind == "move":
            u[at] *= 1 + size * turn
        elif kind == "zero":
            u[at] = size * turn / math.sqrt(len(u))
        else:
            u[at] = np.nan if kind == "nan" else np.inf
    return edit


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@pytest.mark.parametrize("n", [129, 256, 300, 390, 512, 1024])
def test_guard_decides_as_the_dense_reference(monkeypatch, n):
    # the certificate accepts every build, and under seeded entry edits
    # build raises exactly when the dense reference defect reaches the
    # tolerance
    rng = random.Random(n)
    tol = propagator.UNITARITY_TOL * math.sqrt(n)
    for m in _decision_matrices(n, rng):
        assert propagator._certified(build(m, n, check=False)), m
        for _ in range(2):
            with monkeypatch.context() as patch:
                _edit_builds(patch, _random_edit(rng))
                u = build(m, n, check=False)
                fails = not unitarity_defect_reference(u) < tol
                try:
                    got = build(m, n)
                except propagator.UnitarityError:
                    assert fails, m
                else:
                    assert not fails, m
                    assert _same_bits(got, u)


def _general_kernel_cases():
    """General matrices at N = 1..32, 61, 64, 127, 128, 129, 200, 256, 1024:
    random words, which reach b < 0 and gcd(b, N) > 1, lifts mod 4N, which
    reach |b| > N, and matrices with 2|b| > N^2, which build lifts mod 4N
    to a Gauss table of 2|b| <= 8N entries, and which the kernel, called
    on them directly, tabulates over their 2|b| residues.  N = 129 and 200
    end in a partial row block, and N = 256 and 1024 take several full
    ones."""
    rng = random.Random(41)
    # a lift mod 1024, and |b| = 40000 and 59049, past N^2 / 2
    cases = [(Mat2(875, 558, -96722, -61681), 256),
             (Mat2(3, 40000, 2, 26667), 256), (Mat2(-3, -40000, -2, -26667), 256),
             (Mat2(2, 59049, -1, -29524), 243)]
    for n in [*range(1, 33), 61, 64, 127, 128, 129, 200, 256, 1024]:
        for _ in range(8 if n <= 64 else 3):
            cases.append((random_theta_general(rng, 10), n))
        for _ in range(3):
            k = lift_theta(reduce_mod(random_theta_general(rng, 14), 4 * n))
            if k.a != 0 and k.b != 0:
                cases.append((k, n))
    return cases


def _exact(m, n):
    """U_N(A) read from the table e(k/4N)/sqrt(N_b) at the exponents of the
    exact formula."""
    return propagator_from_exponents(*exponent_reference(m, n), n)


def _same_bits(u, v):
    return np.array_equal(u.view(np.float64), v.view(np.float64))


# The float unique kernel multiplies h/sqrt(N_b), the Gauss value and the
# quadratic phase, each rounded; build reads each entry rounded once.  Their
# largest difference over _general_kernel_cases was 1.3e-15.
FLOAT_REFERENCE_ROUNDING = 4e-15


def test_general_kernel_bit_equal_to_unique_kernel():
    # the exact unique kernel: exponent_reference takes each Gauss phase
    # once per distinct gamma of the grid (np.unique), in exact arithmetic;
    # the float unique kernel, build_general_reference, is an oracle within
    # rounding
    cases = _general_kernel_cases()
    assert any(abs(m.b) == 1 and m.a != 0 for m, _ in cases)
    assert any(m.b < 0 for m, _ in cases)
    assert any(math.gcd(m.b, n) > 1 for m, n in cases)
    assert any(abs(m.b) > n for m, n in cases)
    assert any(2 * abs(m.b) > n * n for m, n in cases if n >= 128)
    for m, n in cases:
        got = np.empty((n, n), dtype=complex)
        kinds = ([0], []) if abs(m.b) == 1 else ([], [0])
        propagator._build_general(got[None], [m], kinds, n)
        assert _same_bits(got, _exact(m, n)), (m, n)
        err = np.abs(got - build_general_reference(m, n)).max()
        assert err <= FLOAT_REFERENCE_ROUNDING, (m, n)


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 1024])
def test_build_bit_equal_to_whole_grid_general_formula(n):
    # the exact formula over the whole grid, with `%`, against the kernel's
    # row blocks and floor division
    rng = random.Random(n)
    unit_b, wide_b = [Mat2(2, 1, 3, 2), Mat2(2, -1, -3, 2)], [Mat2(2, 3, 1, 2)]
    while len(unit_b) < 4 or len(wide_b) < 4:
        m = random_theta_general(rng, 10)
        (unit_b if abs(m.b) == 1 else wide_b).append(m)
    for m in unit_b[:4] + wide_b[:4]:
        assert _same_bits(build(m, n, check=False), _exact(m, n)), m


@pytest.mark.parametrize("n", [*range(1, 65), 128, 129, 200, 1024])
def test_antishear_kernel_bit_equal_to_whole_grid_kernel(n):
    rng = random.Random(n)
    for s in (1, -1):
        for w in (0, 2 * rng.randint(-8, 8)):
            got = build(Mat2(0, s, -s, w), n, check=False)
            want = build_antishear_reference(s, w, n)
            assert np.array_equal(got.view(np.float64),
                                  want.view(np.float64)), (s, w)


@pytest.mark.parametrize("n", [*range(1, 65), 128, 129, 200, 1024])
def test_general_kernel_covers_antishears(n):
    # the whole-grid general formula, with its h(0, +-1) and Gauss factors,
    # gives the anti-shears the bits of their |b| = 1 gather, so 1 is the
    # value of h there and not just a value
    rng = random.Random(n)
    for s in (1, -1):
        for w in (0, 2 * rng.randint(-8, 8)):
            m = Mat2(0, s, -s, w)
            got = build(m, n, check=False)
            want = build_general_reference(m, n)
            assert np.array_equal(got.view(np.float64),
                                  want.view(np.float64)), (s, w)


@pytest.mark.parametrize("n", [*range(1, 65), 1024])
def test_unit_b_has_unit_h_and_gauss_factors(n):
    # why the kernel gathers e(num/2N)/sqrt(N) at |b| = 1: a is even there,
    # and h(a, +-1) and G(N*a, +-1, 2r) are exactly 1 for both r mod 1
    for b in (1, -1):
        for a in (*range(-16, 17, 2), 2 * 10**9, -2 * 10**9 + 4):
            assert h_phase(a, b) == 1 + 0j
            got = gauss.gauss_closed_many(n * a, b, [0, 2])
            assert got.tolist() == [1 + 0j, 1 + 0j], (a, b)


def _small_b(n):
    """Generators, shears and anti-shears of both signs, and general
    matrices with |b| = 2..18, either side of the 16 rows of a block at
    N = 1024."""
    rng = random.Random(7 * n)
    ms = [P_MAT, T2_PLUS, T2_MINUS, S_PLUS, S_MINUS, Mat2(1, 0, 6, 1),
          Mat2(-1, 0, -4, -1), Mat2(0, 1, -1, 4), Mat2(0, -1, 1, -6)]
    wanted = set(range(2, 19))
    while wanted:
        m = random_theta_general(rng, 12)
        if abs(m.b) in wanted:
            wanted.discard(abs(m.b))
            ms.append(m)
    return ms


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 61, 129, 135, 200, 255, 257,
                               1024, 1025])
def test_build_bit_equal_to_exponent_reference(n):
    # every entry is one gather from the (N, N_b) table: shears, the |b| = 1
    # gather and the Gauss exponents, in blocks whose rows share them.  Past
    # N = 128 the rows past N/2 are parity copies: odd N, the middle row of
    # even N, and gcd(b, N) > 1 (135, 255 and 1025) against the exact formula
    for m in _small_b(n):
        assert _same_bits(build(m, n, check=False), _exact(m, n)), m


def _units(n, b):
    return math.lcm(8, 4 * n, 2 * n * abs(b))


@pytest.mark.parametrize("n", [1024, 1025])
def test_build_bit_equal_to_exponent_reference_across_the_int32_bound(n):
    # a chunk runs in int32 when L (N + 2) plus its largest Gauss exponent,
    # at most 2L for one matrix, is below 2^31: the widest |b| surely below
    # that bound, the narrowest surely above it, and a lift with |b| = 4N
    below = max(b for b in range(2, 4 * n) if _units(n, b) * (n + 4) < 2**31)
    above = min(b for b in range(2, 4 * n) if _units(n, b) * (n + 2) >= 2**31)
    widths = [_units(n, b) * (n + 2) / 2**31 for b in (below, above)]
    assert 0.99 < widths[0] < 1 <= widths[1] < 1.01
    lifted = Mat2(1, 8 * n, 2, 16 * n + 1)
    assert lift_theta(reduce_mod(lifted, 4 * n)).b == 4 * n
    for m in (_with_b(1 + below % 2, below), _with_b(1 + above % 2, above), lifted):
        assert _same_bits(build(m, n, check=False), _exact(m, n)), m


def test_a_chunk_of_int32_and_int64_widths_is_bit_equal_to_exponent_reference():
    # every lifted input at N <= 128 fits int32 (L (N + 2) < 2^26), so the
    # kernel is handed an unlifted |b| here: one chunk of the stack at N = 64
    # holds narrow members first and, last, one whose sums pass 2^31 (L N
    # is 3 times that), and runs in the width of its widest member
    n = 64
    ms = [Mat2(2, 3, 1, 2), Mat2(1, 2, 2, 5), _with_b(5, 1_000_002)]
    assert _units(n, ms[-1].b) * n >= 3 * 2**31 > 400 * _units(n, ms[0].b) * (n + 2)
    assert len(ms) <= propagator._BLOCK // (n * n)
    got = np.empty((len(ms), n, n), dtype=complex)
    propagator._build_general(got, ms, ([], [0, 1, 2]), n)
    for m, u in zip(ms, got):
        assert _same_bits(u, _exact(m, n)), m


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 61, 64, 127, 128])
def test_whole_matrix_stacks_commute_with_parity_bit_for_bit(n):
    # U_N(A)[-Q, -Q'] = U_N(A)[Q, Q'], which the kernel uses to copy the
    # rows past N/2 of one matrix; stacks of whole matrices (N <= 128)
    # compute every entry, so here the identity is the formula's own
    rng = random.Random(29 * n)
    ms = [Mat2(1, 0, 6, 1), Mat2(-1, 0, -4, -1), P_MAT, S_PLUS,
          Mat2(1, 2 * n, 2, 4 * n + 1), _power(Mat2(2, 1, 3, 2), 39)]
    ms += [evaluate(random_word(rng, 14)) for _ in range(30)]
    assert any(m.b == 0 and m.c for m in ms)
    assert any(abs(m.b) > 4 * n for m in ms)
    assert n == 1 or any(m.b and math.gcd(m.b, n) > 1 for m in ms)
    idx = (-np.arange(n)) % n
    stack = propagator.build_many(ms, n)
    mirrored = stack[:, idx][:, :, idx].copy()
    for m, u, v in zip(ms, stack, mirrored):
        assert _same_bits(v, u), m


def _mutant_eighths(monkeypatch, where):
    """Move one eighth-root index by 1: of h(a, b), or of the Gauss lead.

    h(a, b) is the inverse of gauss._lead(a, b), and G's lead is _lead of
    other arguments, so a _lead moved on every call moves both and cancels
    out; the h mutant moves only the propagator's own call, the one with
    the kernel matrix's (a, b), by -1, which moves h's index by +1.
    """
    if where == "h":
        real = gauss._lead

        def lead(a, b):
            jac, t = real(a, b)
            return jac, t - 1

        monkeypatch.setattr(propagator, "gauss",
                            types.SimpleNamespace(**{**vars(gauss), "_lead": lead}))
    else:
        real = gauss._branch

        def branch(alpha, beta):
            jac, t, inv, parity, c = real(alpha, beta)
            return jac, t + 1, inv, parity, c

        monkeypatch.setattr(gauss, "_branch", branch)


@pytest.mark.parametrize("where", ["h", "gauss"])
@pytest.mark.parametrize("n", [3, 5, 129])
def test_an_eighth_root_off_by_one_raises(monkeypatch, where, n):
    # at odd N, e(1/8) is no 4N-th root of unity, so an entry's exponent is
    # not a whole number of steps; the check runs without the guard too.
    # The error names the caller's matrix, not the lift it is built from
    # ((2, 1; 3, 2)^14 lifts to |b| = 4, 4 and 316).
    _mutant_eighths(monkeypatch, where)
    power = _power(Mat2(2, 1, 3, 2), 14)
    assert abs(power.b) > 4 * n
    for m in (Mat2(2, 3, 1, 2), Mat2(1, 2, 2, 5), power):
        with pytest.raises(propagator.ExponentError, match=f"propagator of {m} at N={n}"):
            build(m, n, check=False)
    ms = [Mat2(2, 1, 3, 2), T2_PLUS, Mat2(1, -2, 2, -3), Mat2(2, 3, 1, 2)]
    with pytest.raises(propagator.ExponentError,
                       match=r"propagator of 1,-2,2,-3 \(stack member 2\) "):
        propagator.build_many(ms, n)
    with pytest.raises(propagator.ExponentError,
                       match=rf"propagator of {power} \(stack member 1\) at N={n}, "
                             rf"built from its lift {lift_theta(reduce_mod(power, 4 * n))},"):
        propagator.build_many([T2_PLUS, power], n)
    # |b| = 1 and the shears read no eighth root
    assert _same_bits(build(Mat2(2, 1, 3, 2), n), _exact(Mat2(2, 1, 3, 2), n))


@pytest.mark.parametrize("n", [3, 5, 129])
def test_a_lead_moved_on_every_call_cancels(monkeypatch, n):
    # h(a, b) subtracts _lead(a, b)'s index and G adds its own _lead's, so
    # both read the one lead: moving it everywhere leaves every build as is
    ms = [Mat2(2, 3, 1, 2), Mat2(1, 2, 2, 5), _power(Mat2(2, 1, 3, 2), 14)]
    want = propagator.build_many(ms, n)
    real = gauss._lead
    monkeypatch.setattr(gauss, "_lead", lambda a, b: (real(a, b)[0], real(a, b)[1] + 3))
    assert _same_bits(propagator.build_many(ms, n), want)


def test_every_propagator_at_n_1_is_one():
    # U_1(A) = h(a, b) G(a, b, 0): h is the inverse of G's lead, exactly
    rng = random.Random(31)
    ms = [evaluate(random_word(rng, 20)) for _ in range(500)]
    ms.append(_power(Mat2(2, 1, 3, 2), 40))
    assert abs(ms[-1].b) > 2**64
    ones = np.ones((len(ms), 1, 1), dtype=complex)
    assert propagator.build_many(ms, 1).tobytes() == ones.tobytes()


@pytest.mark.parametrize("m, n", [
    *((Mat2(2, 3, 1, 2), n) for n in (5, 8, 61, 256)),
    *((Mat2(1, 2, 2, 5), n) for n in (3, 5, 61, 129)),
], ids=str)
def test_a_gauss_coefficient_off_by_one_fails(monkeypatch, m, n):
    # gauss_closed_many and the kernel both read _branch's c, so one mutant
    # fails the gauss-oracle sweep and the build; |b'| = |b|/gcd(b, N) >= 2
    # here, as at |b'| = 1 every x is 0 and c is never read
    real = gauss._branch

    def branch(alpha, beta):
        *lead, c = real(alpha, beta)
        return *lead, (c + 1) % (2 * abs(beta))

    monkeypatch.setattr(gauss, "_branch", branch)
    assert abs(m.b) // math.gcd(m.b, n) >= 2
    assert not suites.gauss_oracle_sweep(5).passed
    with pytest.raises((propagator.ExponentError, propagator.UnitarityError)):
        build(m, n)


@pytest.mark.parametrize("m", [Mat2(2, 3, 1, 2), Mat2(1, 2, 2, 5),
                               Mat2(0, 1, -1, 6), Mat2(2, 1, 3, 2)],
                         ids=["general-odd-b", "general-even-b", "antishear",
                              "general-unit-b"])
def test_build_holds_little_more_than_its_output(m):
    # the whole-grid kernels held 3 (general) and 2 (anti-shear) N x N grids
    tracemalloc.start()
    try:
        u = build(m, 1024, check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * u.nbytes


def test_general_kernel_memory_is_bounded_by_the_lift():
    # |b| = 2 * 999999 is lifted at N = 2 to |b| <= 8; a Gauss table over
    # all residues mod |b| would take tens of megabytes
    tracemalloc.start()
    try:
        build(Mat2(1, 2 * 999_999, 0, 1), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_build_validates_input():
    with pytest.raises(NotThetaError):
        build(Mat2(1, 1, 0, 1), 4)
    with pytest.raises(ValueError):
        build(S_PLUS, 0)


def test_verify_mult_report():
    rep = verify_mult(Mat2(2, 1, 3, 2), T2_PLUS, 6)
    assert rep.passed and rep.max_error < rep.tol
    assert rep.tol == propagator.MULT_TOL


@pytest.mark.parametrize("trials", [
    [(math.nan, 1)], [(1e-20, 1), (math.nan, 1)], [(math.nan, 1), (1e-20, 1)],
], ids=["nan-only", "nan-last", "nan-first"])
def test_drive_reports_a_nan_error(trials):
    # max() would keep the earlier worst and report 0.0 or 1e-20
    rep = propagator._drive("x", trials, 1e-8)
    assert math.isnan(rep.max_error)
    assert not rep.passed


def test_huge_b_builds_from_its_lift_mod_4n():
    # b = 2000002 shares only its residue mod 8 with b = 2; at N = 2 the
    # propagator depends on the matrix mod 8 only, so the two must agree
    big = Mat2(1, 2000002, 0, 1)
    small = Mat2(1, 2, 0, 1)
    assert np.abs(build(big, 2) - build(small, 2)).max() < 1e-10


def _power(base, t):
    m = IDENTITY
    for _ in range(t):
        m = m @ base
    return m


@pytest.mark.parametrize("n", [61, 12, 7])
def test_huge_powers_match_exact_reference(n):
    # hyperbolic powers past 2^64, built from their lift mod 4N; at N = 12
    # every one of them has gcd(b, N) > 1, and at N = 7 a lift taken only
    # mod 2N would be off by the sign jacobi(N, .) for (2, 1; 3, 2)^39
    for base, t in ((Mat2(2, 1, 3, 2), 34), (Mat2(2, 1, 3, 2), 39),
                    (Mat2(1, 2, 2, 5), 26), (Mat2(1, 2, 2, 5), 27)):
        m = _power(base, t)
        assert max(abs(x) for x in m.entries()) > 2**64
        assert abs(m.b) > 4 * n
        assert n != 12 or math.gcd(m.b, n) > 1
        u = build(m, n)
        assert np.abs(u - propagator_reference(m, n)).max() < 1e-10
        # the exact exponents of m itself, not of its lift
        assert _same_bits(u, _exact(m, n))


def test_every_lift_fits_the_kernel_up_to_its_dimension_bound():
    # a kernel input has |b| <= 4N, so its exponents stay below
    # 24 N^3 (4N) = 96 N^4, which is < 2^63 up to N = 17,605
    assert propagator._MAX_N == 17_605
    assert 96 * 17_605**4 < 2**63 <= 96 * 17_606**4
    # past it even |b| = 1 is refused, before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            build(Mat2(2, 1, 3, 2), 17_606)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_huge_b_divisible_by_4n_lifts_to_b_equal_4n():
    n = 12
    m = Mat2(1, 0, 6, 1) @ Mat2(1, 4 * n * (2**64 + 3), 0, 1)
    assert lift_theta(reduce_mod(m, 4 * n)).b == 4 * n
    # A and P A, whose a = -1 mod 4N, both build from a lift with b = 4N
    for mm in (m, P_MAT @ m):
        assert np.abs(build(mm, n) - propagator_reference(mm, n)).max() < 1e-10


def _straddle(m, n):
    """The partner of a lift m with 1 <= b < 4N: the same residues mod 4N
    and b - 4N, a' = a + 4N t for the first t >= 0 with gcd(a', b - 4N) = 1,
    and c', d' solved as lift_theta does."""
    mod = 4 * n
    b = m.b - mod
    a = next(x for x in itertools.count(m.a, mod) if math.gcd(x, b) == 1)
    k = (1 - a * m.d + b * m.c) // mod
    v = k * pow(a, -1, -b) % -b
    return Mat2(a, b, m.c + mod * ((a * v - k) // b), m.d + mod * v)


@pytest.mark.parametrize("n", [1, 2, 7, 12, 61])
def test_congruent_pair_straddling_the_lift_window_keeps_two_kernel_inputs(
        monkeypatch, n):
    # A has 1 <= b < 4N and B = A mod 4N has b - 4N, so neither is lifted
    # and a congruence check compares two kernel inputs, not one with itself
    seen = []
    real = propagator._build_general

    def spy(u, ms, groups, n):
        seen.append([ms[k] for k in sorted(itertools.chain(*groups))])
        real(u, ms, groups, n)

    monkeypatch.setattr(propagator, "_build_general", spy)
    rng = random.Random(n)
    pairs = 0
    while pairs < 6:
        a = lift_theta(reduce_mod(random_theta_general(rng, 12), 4 * n))
        if a.b == 4 * n:
            continue
        b = _straddle(a, n)
        assert reduce_mod(b, 4 * n) == reduce_mod(a, 4 * n) and b != a
        seen.clear()
        u = propagator.build_many([a, b], n)
        assert seen == [[a, b]]
        assert _same_bits(u[0], u[1])
        assert _same_bits(u[0], _exact(a, n)) and _same_bits(u[1], _exact(b, n))
        pairs += 1


def test_dimension_beyond_kernel_budget_is_value_error():
    # N > 17,605 with b != 0, so build refuses before allocating
    with pytest.raises(ValueError, match="too large"):
        build(Mat2(2, 1, 3, 2), 2**21)


def test_projective_phase_paper_is_trivial():
    rng = random.Random(23)
    for _ in range(40):
        a = evaluate(random_word(rng, 8))
        b = evaluate(random_word(rng, 8))
        n = rng.randint(1, 12)
        lam = projective_phase(a, b, n, variant="paper")
        assert abs(lam - 1.0) < 1e-9


def test_projective_phase_rescaled_cocycle():
    # rescaling to sqrt(i) U / h makes the multiplier an eighth root of
    # unity; at the identity pair it is exactly 1/sqrt(i)
    lam = projective_phase(IDENTITY, IDENTITY, 5, variant="hannay_berry")
    assert abs(lam - e(-1 / 8)) < 1e-9
    rng = random.Random(29)
    for _ in range(25):
        a = evaluate(random_word(rng, 6))
        b = evaluate(random_word(rng, 6))
        n = rng.randint(1, 8)
        lam = projective_phase(a, b, n, variant="hannay_berry")
        assert abs(lam**8 - 1.0) < 1e-8
    with pytest.raises(ValueError):
        projective_phase(IDENTITY, IDENTITY, 2, variant="weird")


def test_propagator_json_schema():
    payload = propagator_json(S_PLUS, 3)
    assert payload["N"] == 3
    assert payload["A"] == [0, -1, 1, 0]
    assert payload["case"] == "fourier(+)"
    mat = payload["matrix"]
    assert len(mat) == 3 and all(len(row) == 3 for row in mat)
    z = mat[1][2]
    assert isinstance(z, list) and len(z) == 2
    u = build(S_PLUS, 3)
    assert abs(complex(z[0], z[1]) - u[1, 2]) < 1e-12


def _stack_cases(n):
    """One mixed stack at N: shears and parity, anti-shears and the Fourier
    matrices, general matrices with |b| = 1 and |b| >= 2 (random words and
    lifts mod 4N, which reach |b| > N and 2|b| > N^2), and hyperbolic
    powers with entries past 2^64; every |b| > 4N builds from its lift."""
    rng = random.Random(1000 + n)
    ms = [Mat2(1, 0, 6, 1), Mat2(-1, 0, -4, -1), P_MAT, T2_PLUS, T2_MINUS,
          S_PLUS, S_MINUS, Mat2(0, 1, -1, 4), Mat2(0, -1, 1, -6),
          Mat2(2, 1, 3, 2), Mat2(2, -1, -3, 2), Mat2(2, 3, 1, 2),
          _power(Mat2(2, 1, 3, 2), 39), _power(Mat2(1, 2, 2, 5), 27)]
    for _ in range(6):
        ms.append(random_theta_general(rng, 10))
        ms.append(evaluate(random_word(rng, 8)))
        ms.append(lift_theta(reduce_mod(random_theta_general(rng, 14), 4 * n)))
    rng.shuffle(ms)
    return ms


STACK_DIMS = [1, 2, 3, 7, 16, 21, 61, 64, 128, 129]


@pytest.mark.parametrize("n", STACK_DIMS)
def test_build_many_bit_equal_to_build_and_whole_grid_reference(n):
    # N = 64 holds 4 whole matrices per block and N = 21 37, so the stack
    # spans several blocks of each kind; N = 129 takes rows of one matrix
    ms = _stack_cases(n)
    assert any(m.b == 0 for m in ms) and any(abs(m.b) == 1 for m in ms)
    assert any(abs(m.b) > 4 * n for m in ms)
    stack = propagator.build_many(ms, n)
    assert stack.shape == (len(ms), n, n) and stack.dtype == np.complex128
    for m, u in zip(ms, stack):
        assert _same_bits(u, build(m, n)), m
        # the exact formula on m itself, past 2^64 too
        assert _same_bits(u, _exact(m, n)), m


def test_no_kernel_input_has_b_past_4n(monkeypatch):
    # every |b| > 4N is lifted, so a Gauss table has 2|b| <= 8N entries;
    # the cases reach |b| > 4N and 2|b| > N^2
    widest = []
    real = propagator._exponent_tables

    def spy(ms, units, n, q):
        widest.append((max(abs(m.b) for m in ms), n))
        return real(ms, units, n, q)

    monkeypatch.setattr(propagator, "_exponent_tables", spy)
    cases = [(_stack_cases(n), n) for n in STACK_DIMS]
    cases += [([m], n) for m, n in _general_kernel_cases()]
    assert any(2 * abs(m.b) > n * n for ms, n in cases if n >= 128 for m in ms)
    for ms, n in cases:
        propagator.build_many(ms, n, check=False)
    assert widest and all(b <= 4 * n for b, n in widest)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_build_many_of_one_kind_spans_blocks(n):
    # a stack of one kind only is filled in place, block by block
    rng = random.Random(n)
    for pick in (lambda m: abs(m.b) == 1, lambda m: abs(m.b) >= 2):
        ms = []
        while len(ms) < 12:
            m = random_theta_general(rng, 10)
            if pick(m):
                ms.append(m)
        stack = propagator.build_many(ms, n)
        for m, u in zip(ms, stack):
            assert _same_bits(u, _exact(m, n)), m


@pytest.mark.parametrize("n", [1, 5, 16, 64, 128, 129])
def test_stack_guard_equals_unitarity_defect(n):
    # built propagators and random matrices far from unitary, stacked past
    # one block of whole matrices
    rng = np.random.default_rng(n)
    ms = _stack_cases(n)
    stack = propagator.build_many(ms, n, check=False)
    z = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
    stack = np.concatenate([stack, z / math.sqrt(2 * n)])
    before = stack.copy()
    got = propagator._gram_defects(stack)
    assert got.tolist() == [unitarity_defect(u) for u in stack]
    # past one Gram block build_many certifies each matrix, and the built
    # ones pass
    if n > B:
        assert [propagator._certified(u) for u in stack] == [True] * len(ms) + [False] * 6
    assert np.array_equal(stack, before)


@pytest.mark.parametrize("n", [6, 129])
def test_build_many_names_a_corrupted_member(monkeypatch, n):
    real = propagator._build_general

    def corrupt_third(u, ms, groups, n):
        real(u, ms, groups, n)
        u[2, 1, 1] += 1e-3

    monkeypatch.setattr(propagator, "_build_general", corrupt_third)
    ms = [Mat2(2, 1, 3, 2), Mat2(2, 3, 1, 2), Mat2(0, 1, -1, 4), Mat2(2, -1, -3, 2)]
    with pytest.raises(propagator.UnitarityError,
                       match=r"propagator of 0,1,-1,4 \(stack member 2\) at N="):
        propagator.build_many(ms, n)
    assert propagator.build_many(ms, n, check=False).shape == (4, n, n)


def test_build_many_names_a_corrupted_shear_in_a_mixed_stack(monkeypatch):
    real = propagator._build_shear

    def corrupt_first(u, ms, ks, n):
        real(u, ms, ks, n)
        u[ks[0]] *= 2

    monkeypatch.setattr(propagator, "_build_shear", corrupt_first)
    ms = [Mat2(2, 1, 3, 2), T2_PLUS, Mat2(1, 0, 6, 1)]
    with pytest.raises(propagator.UnitarityError, match=r"\(stack member 1\)"):
        propagator.build_many(ms, 5)


def test_build_many_empty_stack_is_value_error():
    with pytest.raises(ValueError, match="at least one matrix"):
        propagator.build_many([], 4)
    with pytest.raises(ValueError, match="dimension"):
        propagator.build_many([IDENTITY], 0)
    with pytest.raises(NotThetaError):
        propagator.build_many([IDENTITY, Mat2(1, 1, 0, 1)], 4)


def test_a_mixed_stack_holds_no_second_stack():
    # the kernels write their members into the one (K, N, N) result; a
    # shear sub-stack and a general one, copied into a third array, peaked
    # at 1.71 times its bytes
    rng = random.Random(64)
    ms = [Mat2(s, 0, 2 * rng.randint(-20, 20), s) for s in rng.choices((1, -1), k=28)]
    ms += [random_theta_general(rng, 10) for _ in range(32)]
    rng.shuffle(ms)
    propagator.build_many(ms, 64, check=False)  # fills the root tables' cache
    tracemalloc.start()
    try:
        u = propagator.build_many(ms, 64, check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.shape == (60, 64, 64)
    assert peak < 1.5 * u.nbytes


def _power_lifted_to_unit_b(n):
    """The least power of (2, 1; 3, 2) with |b| > 4N whose lift mod 4N has
    |b| = 1."""
    base = m = Mat2(2, 1, 3, 2)
    while abs(m.b) <= 4 * n or abs(lift_theta(reduce_mod(m, 4 * n)).b) != 1:
        m = m @ base
    return m


@pytest.mark.parametrize("n", [1, 2, 7, 61, 64, 128, 129, 300])
def test_a_stack_of_every_kind_equals_its_builds(n):
    # build_many sorts a stack into shears, |b| = 1 and Gauss-table members
    # once, and each kernel writes its members at their stack positions
    ms = [Mat2(1, 0, 6, 1), Mat2(2, -1, -3, 2), P_MAT,
          _power_lifted_to_unit_b(n), Mat2(0, 1, -1, 4), Mat2(2, 3, 1, 2)]
    if n > 1:
        # g = gcd(b, N) > 1: b the least prime factor of N
        p = next(q for q in range(2, n + 1) if n % q == 0)
        ms.insert(3, _with_b(1 if p == 2 else 2, p))
        assert math.gcd(ms[3].b, n) > 1
    u = propagator.build_many(ms, n)
    for m, x in zip(ms, u):
        assert _same_bits(x, build(m, n)), m


def test_build_takes_numpy_integer_entries_as_python_ints():
    # these used to raise "tuple indices must be integers or slices, not
    # numpy.bool" where the general kernel sorted its stack
    for a in ((2, 1, 3, 2), (2, 3, 1, 2), (1, 0, 6, 1)):
        m = Mat2(*map(np.int64, a))
        assert _same_bits(build(m, 5), build(Mat2(*a), 5))


def test_a_float_entry_is_not_a_theta_matrix():
    # this used to raise numpy's UFuncTypeError in the kernel
    with pytest.raises(NotThetaError, match="not an integer"):
        build(Mat2(2.0, 1, 3, 2), 5)


def test_a_float_dimension_is_a_value_error():
    # this used to raise a bare TypeError
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        build(Mat2(2, 1, 3, 2), 8.0)
    assert _same_bits(build(Mat2(2, 1, 3, 2), np.int64(8)), build(Mat2(2, 1, 3, 2), 8))
