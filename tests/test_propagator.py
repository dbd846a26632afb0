import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from qcatmap import gauss, propagator
from qcatmap.numtheory import NotCoprimeError
from qcatmap.propagator import (InvalidParityError, build, classify, h_phase,
                                propagator_json, unitarity_defect, verify_mult)
from qcatmap.sl2 import (IDENTITY, P_MAT, S_MINUS, S_PLUS, T2_MINUS, T2_PLUS,
                         Mat2, NotThetaError, evaluate, lift_theta,
                         random_theta_general, random_word, reduce_mod)
from _oracles import (build_antishear_reference, build_general_reference,
                      gauss_reference, projective_phase, propagator_reference,
                      unitarity_defect_reference)


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
    from qcatmap.weyl import delta_basis

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
    for u in mats:
        before = u.copy()
        assert abs(unitarity_defect(u) - unitarity_defect_reference(u)) <= 1e-15 * n
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


def test_blocked_unitarity_defect_holds_no_square_temporary():
    # the dense product held an N x N conjugate copy and an N x N product
    n = 4 * B
    u = build(Mat2(2, 1, 3, 2), n)
    tracemalloc.start()
    try:
        unitarity_defect(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < u.nbytes


@pytest.mark.parametrize("at", [(0, 0), (2 * B + 2, 2 * B + 2)],
                         ids=["first-block", "last-block"])
def test_unitarity_guard_rejects_a_nan(monkeypatch, at):
    n = 2 * B + 3
    real = propagator._build_general

    def nan_at_one_entry(m, n):
        u = real(m, n)
        u[at] = np.nan
        return u

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

    def defective(a, c, n):
        u = real(a, c, n)
        edit(u)
        return u

    monkeypatch.setattr(propagator, "_build_shear", defective)
    m = Mat2(1, 0, 6, 1)
    u = build(m, n, check=False)
    got, want = unitarity_defect(u), unitarity_defect_reference(u)
    if math.isfinite(want):
        # an empty column, or a column of norm 2 next to an empty one
        assert abs(want - 1) < 1e-12
        assert abs(got - want) <= 1e-15 * n
    else:
        assert not math.isfinite(got)
    with pytest.raises(propagator.UnitarityError):
        build(m, n)


def test_dense_matrix_with_a_monomial_first_row_takes_the_gram():
    n = 2 * B + 3
    rng = np.random.default_rng(3)
    u = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2 * n)
    u[0] = 0
    u[0, 4] = 1
    assert abs(unitarity_defect(u) - unitarity_defect_reference(u)) <= 1e-15 * n


def _general_kernel_cases():
    """General matrices at N = 1..32, 61, 64, 127, 128, 129, 200, 256, 1024:
    random words, which reach b < 0 and gcd(b, N) > 1, lifts mod 4N, which
    reach |b| > N, and matrices with 2|b| > N^2, whose Gauss factor is
    evaluated on the grid itself.  N = 129 and 200 end in a partial row
    block, N = 256 and 1024 take several full ones, and N = 127, 128
    straddle the size from which numpy reuses the whole-grid kernel's
    gathered Gauss grid in place."""
    rng = random.Random(41)
    # A lift mod 1024 whose entries round one ulp differently when
    # h/sqrt(N_b) multiplies the Gauss table before the gather, or the
    # gathered grid is held in a variable: numpy computes scalar * array
    # and array * scalar with different rounding, and from 256 KiB on it
    # reuses a temporary operand in place with the operands swapped.
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


def test_general_kernel_bit_equal_to_unique_kernel():
    cases = _general_kernel_cases()
    assert any(abs(m.b) == 1 and m.a != 0 for m, _ in cases)
    assert any(m.b < 0 for m, _ in cases)
    assert any(math.gcd(m.b, n) > 1 for m, n in cases)
    assert any(abs(m.b) > n for m, n in cases)
    assert any(2 * abs(m.b) > n * n for m, n in cases if n >= 128)
    for m, n in cases:
        got = propagator._build_general(m, n)
        want = build_general_reference(m, n)
        assert np.array_equal(got.view(np.float64), want.view(np.float64)), (m, n)


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 1024])
def test_build_bit_equal_to_whole_grid_general_formula(n):
    # the whole-grid oracle reduces its phase numerators with `%`, and the
    # kernel with floor division
    rng = random.Random(n)
    unit_b, wide_b = [Mat2(2, 1, 3, 2), Mat2(2, -1, -3, 2)], [Mat2(2, 3, 1, 2)]
    while len(unit_b) < 4 or len(wide_b) < 4:
        m = random_theta_general(rng, 10)
        (unit_b if abs(m.b) == 1 else wide_b).append(m)
    for m in unit_b[:4] + wide_b[:4]:
        got = build(m, n, check=False)
        want = build_general_reference(m, n)
        assert np.array_equal(got.view(np.float64), want.view(np.float64)), m


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


def test_general_kernel_memory_is_bounded_by_the_grid():
    # |b| = 2 * 999999 is within the kernel budget at N = 2; a Gauss table
    # over all residues mod |b| would take tens of megabytes
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


def test_huge_entries_use_exact_fallback():
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
        assert not propagator._fits_kernel(m.b, n)
        assert n != 12 or math.gcd(m.b, n) > 1
        assert np.abs(build(m, n) - propagator_reference(m, n)).max() < 1e-10


@pytest.mark.parametrize("n", [1, 61])
def test_fits_kernel_stops_at_the_gauss_int64_bound(n):
    # the bound is on b' = b / gcd(b, N), the beta of the Gauss sums
    for g in {1, n}:
        assert propagator._fits_kernel(g * 10**6, n)
        assert not propagator._fits_kernel(g * (10**6 + 1), n)
        assert not propagator._fits_kernel(-g * (10**6 + 1), n)


def test_huge_b_divisible_by_4n_lifts_to_b_equal_4n():
    n = 12
    m = Mat2(1, 0, 6, 1) @ Mat2(1, 4 * n * (2**64 + 3), 0, 1)
    assert lift_theta(reduce_mod(m, 4 * n)).b == 4 * n
    # A and P A, whose a = -1 mod 4N, both build from a lift with b = 4N
    for mm in (m, P_MAT @ m):
        assert np.abs(build(mm, n) - propagator_reference(mm, n)).max() < 1e-10


def test_dimension_beyond_kernel_budget_is_value_error():
    # 6 N^3 |b| >= 2^63 even for the lift, so build refuses before allocating
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
