import pytest

from qcatmap import hecke, suites, weyl
from qcatmap.propagator import MULT_TOL, verify_mult
from qcatmap.sl2 import IDENTITY, T2_PLUS, Mat2


@pytest.mark.parametrize("sweep, kwargs", [
    ("relations_sweep", {"dims": []}),
    ("multiplicativity_sweep", {"pairs": 0}),
    ("egorov_sweep", {"samples": 0}),
    ("unitarity_sweep", {"samples": 0}),
    ("mod4n_sweep", {"pairs": 0}),
    ("substitution_sweep", {"samples": 0}),
    ("substitution_sweep", {"samples": -1}),
    ("h_identity_sweep", {"samples": 0}),
    ("decomposition_sweep", {"words": 0}),
    ("hecke_sweep", {"max_dim": 0}),
], ids=["relations", "mult", "egorov", "unitarity", "mod4n", "substitution",
        "substitution-negative", "h-identity", "decomposition", "hecke"])
def test_empty_sweeps_are_input_errors(sweep, kwargs):
    # these used to raise IndexError (relations) or pass with 0 samples
    with pytest.raises(ValueError, match="no samples requested"):
        getattr(suites, sweep)(**kwargs)


def test_round_trip_only_decomposition_is_a_valid_sweep():
    rep = suites.decomposition_sweep(words=5, build_checks=0)
    assert rep.passed and rep.samples == 5 and rep.max_error == 0.0
    assert rep.note.startswith("0 round-trip failures")


def test_single_comparisons_report_the_base_rate():
    a = Mat2(2, 1, 3, 2)
    n = 6
    reps = [
        verify_mult(a, T2_PLUS, n),
        hecke.verify_mod4N(a, a @ Mat2(1, 4 * n, 0, 1), n),
        hecke.mod2N_factor(Mat2(7, 6, 36, 31), IDENTITY, 3)[1],
        hecke.verify_hecke(a, 3),
        weyl.verify_egorov(a, n, {(1, 2): 1.0}),
    ]
    assert [r.tol for r in reps] == [MULT_TOL] * 4 + [weyl.EGOROV_TOL]
    assert all(r.passed for r in reps)
    assert [r.samples for r in reps] == [1, 1, 1, 48, 1]
    # the verdict still holds each error to the base rate times N
    assert not weyl.verify_egorov(a, n, {(1, 2): 1.0}, tol_scale=1e-30).passed
    assert not hecke.verify_hecke(a, 3, tol_scale=1e-30).passed
