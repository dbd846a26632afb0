import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest
from _oracles import (delta_basis, egorov_mode_errors_reference,
                      inner_product, is_real_observable, symplectic_form,
                      translation_t1, translation_t2)

from qcatmap import weyl
from qcatmap.propagator import build
from qcatmap.sl2 import (P_MAT, S_PLUS, T2_PLUS, Mat2, NotThetaError, evaluate,
                         random_word)


def e(t):
    return cmath.exp(2j * cmath.pi * t)


def test_delta_basis_orthonormal():
    n = 6
    for i in range(n):
        vi = delta_basis(i, n)
        for j in range(n):
            want = 1.0 if i == j else 0.0
            assert abs(inner_product(vi, delta_basis(j, n)) - want) < 1e-12
    with pytest.raises(IndexError):
        delta_basis(n, n)


def test_translation_commutation_phase():
    # position phase and cyclic shift commute up to e(-1/N)
    for n in (2, 3, 5, 9):
        u1 = translation_t1(n)
        u2 = translation_t2(n)
        assert np.abs(u1 @ u2 - e(-1 / n) * u2 @ u1).max() < 1e-12


def test_weyl_op_factors_into_translations():
    # T(n1, n2) = e(n1 n2 / 2N) t1^n1 t2^n2 for modes in [0, N)^2
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 12)
        n1 = rng.randrange(n)
        n2 = rng.randrange(n)
        u1 = translation_t1(n)
        u2 = translation_t2(n)
        want = (e(n1 * n2 / (2 * n))
                * np.linalg.matrix_power(u1, n1) @ np.linalg.matrix_power(u2, n2))
        assert np.abs(weyl.weyl_op((n1, n2), n) - want).max() < 1e-10


@pytest.mark.parametrize("n", [0, -1])
def test_weyl_op_rejects_nonpositive_dimension(n):
    with pytest.raises(ValueError, match="positive"):
        weyl.weyl_op((1, 2), n)


@pytest.mark.parametrize("mode", [
    (3, 2**70), (2**63 - 1, 5), (-(2**63), 2**64 + 3), (2**64 - 1, -(2**64)),
    (-(2**70) - 1, 2**65 + 7),
])
@pytest.mark.parametrize("n", [1, 4, 7])
def test_weyl_op_huge_modes_reduce_mod_2n(mode, n):
    # T_N(n) depends on the mode only mod 2N, at any integer size
    reduced = (mode[0] % (2 * n), mode[1] % (2 * n))
    assert np.array_equal(weyl.weyl_op(mode, n), weyl.weyl_op(reduced, n))


def test_translation_powers_close():
    # t1^N and t2^N are the identity exactly
    for n in range(1, 17):
        t1 = translation_t1(n)
        t2 = translation_t2(n)
        assert np.abs(np.linalg.matrix_power(t1, n) - np.eye(n)).max() < 1e-12
        assert np.abs(np.linalg.matrix_power(t2, n) - np.eye(n)).max() < 1e-12


def test_weyl_multiplication_rule():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 10)
        m1 = (rng.randint(-12, 12), rng.randint(-12, 12))
        m2 = (rng.randint(-12, 12), rng.randint(-12, 12))
        omega = symplectic_form(m1, m2)
        lhs = weyl.weyl_op(m1, n) @ weyl.weyl_op(m2, n)
        rhs = e(-omega / (2 * n)) * weyl.weyl_op((m1[0] + m2[0], m1[1] + m2[1]), n)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_weyl_rules_on_mode_box():
    # multiplication and commutator identities sampled from the full
    # |m_i| <= 8 mode box at every dimension up to 16
    rng = random.Random(11)
    for n in range(1, 17):
        for _ in range(10):
            m1 = (rng.randint(-8, 8), rng.randint(-8, 8))
            m2 = (rng.randint(-8, 8), rng.randint(-8, 8))
            omega = symplectic_form(m1, m2)
            total = (m1[0] + m2[0], m1[1] + m2[1])
            t_m1 = weyl.weyl_op(m1, n)
            t_m2 = weyl.weyl_op(m2, n)
            t_sum = weyl.weyl_op(total, n)
            prod = e(-omega / (2 * n)) * t_sum
            comm = -2j * math.sin(math.pi * omega / n) * t_sum
            assert np.abs(t_m1 @ t_m2 - prod).max() < 1e-10
            assert np.abs(t_m1 @ t_m2 - t_m2 @ t_m1 - comm).max() < 1e-10


def test_weyl_commutator_rule():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 10)
        m1 = (rng.randint(-8, 8), rng.randint(-8, 8))
        m2 = (rng.randint(-8, 8), rng.randint(-8, 8))
        omega = symplectic_form(m1, m2)
        lhs = (weyl.weyl_op(m1, n) @ weyl.weyl_op(m2, n)
               - weyl.weyl_op(m2, n) @ weyl.weyl_op(m1, n))
        rhs = (-2j * math.sin(math.pi * omega / n)
               * weyl.weyl_op((m1[0] + m2[0], m1[1] + m2[1]), n))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_mode_periodicity_sign():
    rng = random.Random(9)
    for _ in range(150):
        n = rng.randint(1, 9)
        n1, n2 = rng.randint(-6, 6), rng.randint(-6, 6)
        k1, k2 = rng.randint(-2, 2), rng.randint(-2, 2)
        sign = (-1) ** (n1 * k2 + n2 * k1 + n * k1 * k2)
        shifted = weyl.weyl_op((n1 + n * k1, n2 + n * k2), n)
        assert np.abs(shifted - sign * weyl.weyl_op((n1, n2), n)).max() < 1e-12


def test_weyl_adjoint():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 10)
        mode = (rng.randint(-8, 8), rng.randint(-8, 8))
        u = weyl.weyl_op(mode, n)
        v = weyl.weyl_op((-mode[0], -mode[1]), n)
        assert np.abs(u.conj().T - v).max() < 1e-12


def test_quantize_real_observable_is_hermitian():
    f = {(1, 0): 0.5, (-1, 0): 0.5, (2, 3): 1 - 2j, (-2, -3): 1 + 2j}
    assert is_real_observable(f)
    op = weyl.quantize(f, 7)
    assert np.abs(op - op.conj().T).max() < 1e-12
    assert not is_real_observable({(1, 0): 1.0})


@pytest.mark.parametrize("f", [{}, {(1, 0): 1.0}], ids=["empty", "one-mode"])
@pytest.mark.parametrize("n", [0, -1])
def test_quantize_needs_a_positive_dimension(f, n):
    # the empty observable used to return a 0 x 0 array at N = 0 and raise
    # numpy's "negative dimensions" at N = -1
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        weyl.quantize(f, n)


def test_weyl_op_needs_an_integer_dimension():
    # this used to raise a bare TypeError
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        weyl.weyl_op((1, 2), 3.0)


@pytest.mark.parametrize("mode", [(1.5, 2), (1, 2.0), (np.float64(3), 0)], ids=str)
def test_non_integer_modes_are_value_errors(mode):
    # weyl_op((1.5, 2), 3) used to equal weyl_op((1, 2), 3), and
    # compose_classical returned float modes
    for call in (lambda: weyl.weyl_op(mode, 3), lambda: weyl.quantize({mode: 1.0}, 3),
                 lambda: weyl.compose_classical({mode: 1.0}, Mat2(2, 1, 3, 2))):
        with pytest.raises(ValueError, match="mode entries must be integers"):
            call()


@pytest.mark.parametrize("coeff", ["x", "1", None, [1.0]], ids=repr)
def test_a_coefficient_must_be_a_number(coeff):
    # quantize({(1, 2): "x"}, 3) used to raise numpy's UFuncTypeError
    with pytest.raises(ValueError, match=r"coefficient of mode \(1, 2\) must be a number"):
        weyl.quantize({(1, 2): coeff}, 3)


def test_numpy_integer_modes_are_taken_as_python_ints():
    mode = (np.int64(1), np.int64(2))
    assert np.array_equal(weyl.weyl_op(mode, 5), weyl.weyl_op((1, 2), 5))
    g = weyl.compose_classical({mode: 1.0}, Mat2(2, 1, 3, 2))
    assert g == {(8, 5): 1.0}
    assert all(type(x) is int for x in next(iter(g)))


def test_compose_classical_transpose_action():
    m = Mat2(2, 1, 3, 2)
    f = {(1, 0): 2.0, (0, 1): -1j}
    g = weyl.compose_classical(f, m)
    assert g == {(2, 1): 2.0, (3, 2): -1j}
    assert len(g) == len(f)


def test_egorov_shear_hand_case():
    rep = weyl.verify_egorov(T2_PLUS, 4, {(1, 0): 1.0})
    assert rep.passed and rep.max_error < 1e-12


def test_egorov_exact_per_generator():
    for m, n in [(S_PLUS, 5), (T2_PLUS, 4), (P_MAT, 3), (Mat2(2, 1, 3, 2), 6)]:
        assert weyl.egorov_mode_errors(m, n).max() < 1e-12


def test_egorov_random_observable():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 10)
        m = evaluate(random_word(rng, 8))
        f = {}
        for _ in range(rng.randint(1, 4)):
            f[(rng.randint(-6, 6), rng.randint(-6, 6))] = complex(
                rng.uniform(-1, 1), rng.uniform(-1, 1))
        rep = weyl.verify_egorov(m, n, f)
        assert rep.passed, (m, n, f)


def test_egorov_composition_consistency():
    # conjugating twice equals conjugating by the product once
    a, b, n = Mat2(2, 1, 3, 2), T2_PLUS, 5
    errs = weyl.egorov_mode_errors(a @ b, n)
    assert errs.max() < 1e-12
    u = build(a @ b, n)
    mode = (1, 2)
    conj = u.conj().T @ weyl.weyl_op(mode, n) @ u
    ab = a @ b
    image = (ab.a * mode[0] + ab.c * mode[1], ab.b * mode[0] + ab.d * mode[1])
    assert np.abs(conj - weyl.weyl_op(image, n)).max() < 1e-12


def test_egorov_mode_errors_match_per_mode_loop():
    # the block-batched sweep keeps the loop's phases and product order;
    # blocks of 7 + 6 rows at N = 13, 10 blocks of 2 at N = 20, one row
    # per block at N = 26 and 31
    rng = random.Random(17)
    cases = [(evaluate(random_word(rng, 8)), rng.randint(1, 16))
             for _ in range(100)]
    cases += [(evaluate(random_word(rng, 8)), n) for n in (1, 2, 13, 20, 26, 31)]
    for m, n in cases:
        got = weyl.egorov_mode_errors(m, n)
        assert np.array_equal(got, egorov_mode_errors_reference(m, n)), (m, n)


def test_egorov_mode_errors_huge_entries():
    # image modes far past int64 are reduced mod 2N before array arithmetic
    a = Mat2(2, 1, 3, 2)
    m = a
    for _ in range(60):
        m = m @ a
    assert max(abs(x) for x in m.entries()) > 2**100
    for n in (1, 4, 9):
        assert weyl.egorov_mode_errors(m, n).max() < 1e-12
        f = {(1, 2): 1.0, (-3, 5): 0.5j}
        assert weyl.verify_egorov(m, n, f).passed


def test_egorov_mode_errors_memory_is_one_block():
    # one block's stacks take O(N^3); all N^2 modes at once would need ~85 MB
    m, n = Mat2(2, 1, 3, 2), 48
    tracemalloc.start()
    try:
        weyl.egorov_mode_errors(m, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("m", [Mat2(2.5, 1, 3, 2), Mat2(2, 1, 3, 3)], ids=["float", "det-3"])
def test_compose_classical_takes_theta_matrices_only(m):
    # the float matrix used to give the float mode (8.5, 5)
    with pytest.raises(NotThetaError):
        weyl.compose_classical({(1, 2): 1.0}, m)
