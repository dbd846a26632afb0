import itertools
import json
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from _oracles import (decomposition_sweep_reference, direct_row_reference,
                      egorov_sweep_reference, gauss_oracle_sweep_loop_reference,
                      mod2n_sweep_reference, mod4n_sweep_reference,
                      multiplicativity_sweep_reference, relations_reference,
                      unitarity_sweep_reference)

from qcatmap import gauss, hecke, propagator, suites, weyl
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


@pytest.mark.parametrize("dims", [range(1, 65), [1], [3, 64, 7, 7]],
                         ids=["1..64", "1", "repeats"])
def test_relations_sweep_equals_fresh_build_reference(dims):
    # generators built once per N give the bits of a fresh build per token
    assert suites.relations_sweep(dims) == relations_reference(dims)


@pytest.mark.parametrize("pairs, max_dim, max_word_len, seed", [
    (500, 32, 10, 0), (1, 32, 10, 3), (40, 1, 10, 5), (60, 64, 14, 11),
    (200, 8, 4, 2),
], ids=["default", "one-pair", "max-dim-1", "n-to-64", "short-words"])
def test_multiplicativity_sweep_equals_per_pair_reference(pairs, max_dim,
                                                          max_word_len, seed):
    # pairs drawn first and built per N as one stack give the report of
    # one verify_mult per pair, in the same rng order
    kwargs = dict(pairs=pairs, max_dim=max_dim, max_word_len=max_word_len,
                  seed=seed)
    assert (suites.multiplicativity_sweep(**kwargs)
            == multiplicativity_sweep_reference(**kwargs))


def test_multiplicativity_sweep_splits_a_large_stack(monkeypatch):
    # with room for one pair per stack, every pair is its own build_many call
    monkeypatch.setattr(suites, "_STACK", 1)
    kwargs = dict(pairs=30, max_dim=6, seed=4)
    assert (suites.multiplicativity_sweep(**kwargs)
            == multiplicativity_sweep_reference(**kwargs))


# each sweep that draws first and builds per N, with its per-sample
# reference and the name of its sample count
PER_N_SWEEPS = {
    "egorov_sweep": (egorov_sweep_reference, "samples"),
    "mod4n_sweep": (mod4n_sweep_reference, "pairs"),
    "mod2n_sweep": (mod2n_sweep_reference, "pairs"),
    "decomposition_sweep": (decomposition_sweep_reference, "words"),
    "unitarity_sweep": (unitarity_sweep_reference, "samples"),
}


@pytest.mark.parametrize("case", ["seed-0", "seed-1", "seed-2", "one-sample",
                                  "max-dim-1", "split-stacks"])
@pytest.mark.parametrize("sweep", list(PER_N_SWEEPS))
def test_per_n_sweep_equals_per_sample_reference(monkeypatch, sweep, case):
    # samples drawn first and built per N give the report of one
    # single-sample check per draw, in the same rng order
    reference, count = PER_N_SWEEPS[sweep]
    kwargs = {"seed": 4}
    if case.startswith("seed-"):
        kwargs = {"seed": int(case.removeprefix("seed-"))}
    elif case == "one-sample":
        # mod2n takes at least its two fixed pairs
        kwargs[count] = 2 if sweep == "mod2n_sweep" else 1
    elif case == "max-dim-1":
        kwargs["max_dim"] = 1
    else:
        # one draw per stack, so every N with several draws spans several
        # stacks; Egorov draws at N >= 12 also span several mode blocks
        monkeypatch.setattr(suites, "_STACK", 1)
        kwargs[count] = 30
    assert getattr(suites, sweep)(**kwargs) == reference(**kwargs)


def test_per_n_sweeps_build_one_stack_per_n(monkeypatch):
    # egorov, mod4n, mod2n and decompose each make one checked build_many
    # call per distinct N, with every draw at that N in it (decompose's
    # generator tables are built unchecked), and unitarity one unchecked call
    calls = []
    for module in (hecke, suites, weyl):
        def counting(ms, n, check=True, real=module.build_many):
            calls.append((len(ms), n, check))
            return real(ms, n, check)

        monkeypatch.setattr(module, "build_many", counting)
    for sweep, (_, count) in PER_N_SWEEPS.items():
        calls.clear()
        getattr(suites, sweep)(**{count: 40, "max_dim": 5, "seed": 2})
        checked = sweep != "unitarity_sweep"
        stacks = [(k, n) for k, n, check in calls if check == checked]
        ns = [n for _, n in stacks]
        per_draw = 2 if sweep in ("mod4n_sweep", "mod2n_sweep") else 1
        assert len(ns) == len(set(ns)) and set(ns) <= set(range(1, 6)), sweep
        assert sum(k for k, _ in stacks) == per_draw * 40, sweep


def _kernel_input(monkeypatch, m, n):
    """The matrix build hands its general kernel for m at N (its lift when
    |b| > 4N), or m itself for a shear."""
    seen = [m]
    real = propagator._build_general

    def spy(u, ms, groups, n):
        seen.extend(ms[k] for k in itertools.chain(*groups))
        real(u, ms, groups, n)

    with monkeypatch.context() as patch:
        patch.setattr(propagator, "_build_general", spy)
        propagator.build(m, n, check=False)
    return seen[-1]


@pytest.mark.parametrize("seed, equal", [(0, 16), (106, 8)])
def test_mod4n_pairs_reach_the_kernel_as_two_matrices(monkeypatch, seed, equal):
    # build lifts every |b| > 4N, and two congruent matrices that are both
    # lifted reach the kernel as one matrix, a comparison of a build with
    # itself; in the sweep's draws only the pairs with A == B coincide
    pairs = []
    real = hecke._pair_errors

    def spy(batch, n, modulus):
        pairs.extend((n, a, b) for a, b in batch)
        return real(batch, n, modulus)

    with monkeypatch.context() as patch:
        patch.setattr(hecke, "_pair_errors", spy)
        suites.mod4n_sweep(seed=seed)
    assert len(pairs) == 100
    assert any(abs(m.b) > 4 * n for n, a, b in pairs for m in (a, b))
    same = [_kernel_input(monkeypatch, a, n) == _kernel_input(monkeypatch, b, n)
            for n, a, b in pairs]
    assert same == [a == b for _, a, b in pairs]
    assert sum(same) == equal


@pytest.mark.parametrize("seed", [0, 106])
def test_mod4n_signs_are_one_and_errors_unsigned(monkeypatch, seed):
    # the paper's mod-4N rule: c_a = 1 mod 4N, so every jacobi(N, |c_a|)
    # is 1, and the errors are those of U_N(A) - U_N(B) bit for bit
    real, calls = hecke._pair_errors, []

    def spy(batch, n, modulus):
        errs, signs = real(batch, n, modulus)
        calls.append((batch, n, modulus, errs, signs))
        return errs, signs

    with monkeypatch.context() as patch:
        patch.setattr(hecke, "_pair_errors", spy)
        suites.mod4n_sweep(seed=seed)
    assert sum(len(batch) for batch, *_ in calls) == 100
    for batch, n, modulus, errs, signs in calls:
        assert modulus == 4 * n and signs == [1] * len(batch)
        u = propagator.build_many([m for pair in batch for m in pair], n)
        assert errs.tobytes() == np.abs(u[0::2] - u[1::2]).max(axis=(1, 2)).tobytes()


def test_multiplicativity_sweep_reports_a_nan_pair(monkeypatch):
    # a NaN error in one pair stays the worst, whatever the later pairs read
    real = suites.build_many
    hit = []

    def nan_in_one_product(ms, n, check=True):
        u = real(ms, n, check)
        if not hit:
            hit.append(n)
            u[0, 0, 0] = np.nan
        return u

    monkeypatch.setattr(suites, "build_many", nan_in_one_product)
    rep = suites.multiplicativity_sweep(pairs=50, seed=1)
    assert hit and math.isnan(rep.max_error) and not rep.passed
    assert rep.samples == 50


def test_hecke_sweep_stops_at_8():
    # max_dim=12 used to run 12 dimensions
    rep = suites.hecke_sweep(max_dim=12)
    sizes = json.loads(rep.note.removeprefix("commutant sizes "))
    assert rep.passed and len(sizes) == 8 and rep.samples == sum(sizes)


@pytest.mark.parametrize("sweep", ["substitution_sweep", "h_identity_sweep"])
def test_sampled_sweeps_draw_exactly_their_samples(monkeypatch, sweep):
    # d = 0 draws (about a third) are samples too; substitution draws an
    # admissible (Q, Q') for every matrix instead of rejecting pairs
    mats, pairs = [], []
    draw_matrix, draw_pair = suites.random_theta_general, suites._admissible_pair

    def counted(rng, max_word_len):
        mats.append(draw_matrix(rng, max_word_len))
        return mats[-1]

    def recorded(rng, a, n, g):
        pairs.append((a, n, g, draw_pair(rng, a, n, g)))
        return pairs[-1][3]

    monkeypatch.setattr(suites, "random_theta_general", counted)
    monkeypatch.setattr(suites, "_admissible_pair", recorded)
    rep = getattr(suites, sweep)(samples=120, seed=7)
    assert rep.passed and rep.samples == len(mats) == 120
    assert any(m.d == 0 for m in mats)
    if sweep == "h_identity_sweep":
        assert pairs == []
        return
    assert len(pairs) == 120
    for m, (a, n, g, (q, qp)) in zip(mats, pairs):
        assert a == m.a and g == math.gcd(m.b, n)
        assert 0 <= q < n and 0 <= qp < n and 2 * (a * qp - q) % g == 0
    assert any(g > 2 for _, _, g, _ in pairs)


@pytest.mark.parametrize("a, n, g", [(1, 8, 8), (3, 12, 4), (5, 9, 3),
                                     (2, 7, 1), (-3, 30, 10)])
def test_admissible_pair_is_uniform_over_the_admissible_pairs(a, n, g):
    want = {(q, qp) for q in range(n) for qp in range(n)
            if 2 * (a * qp - q) % g == 0}
    rng = random.Random(g)
    counts = Counter(suites._admissible_pair(rng, a, n, g)
                     for _ in range(100 * len(want)))
    assert set(counts) == want
    # 100 draws expected per pair; the bounds are over 5 standard deviations
    assert 50 <= min(counts.values()) and max(counts.values()) <= 150


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


# |beta| up to 45, past the box of the default sweep, and chunk sizes down
# to one residue row per chunk
@pytest.mark.parametrize("chunk", [suites._CHUNK, 1, 100])
def test_direct_table_rows_equal_loop_rows(monkeypatch, chunk):
    monkeypatch.setattr(suites, "_CHUNK", chunk)
    values = np.arange(-45, 46)
    for beta in (1, -1, 2, 7, -12, 33, 40, -40, 45):
        period = 2 * abs(beta)
        table = suites._direct_table(beta)
        for alpha in values:
            row = table[alpha % period, values % period].view(np.float64)
            want = direct_row_reference(int(alpha), beta, values)
            assert np.array_equal(row, want.view(np.float64)), (alpha, beta)


def test_direct_table_of_negative_beta_is_the_negated_residue_table():
    # both sides sum the same roots in the same order
    for beta in range(1, 41):
        period = 2 * beta
        neg = (-np.arange(period)) % period
        want = suites._direct_table(beta)[np.ix_(neg, neg)]
        got = suites._direct_table(-beta)
        assert np.array_equal(got.view(np.float64), want.view(np.float64)), beta


@pytest.mark.parametrize("max_abs", [1, 2, 5, 12, 40])
def test_gauss_oracle_sweep_equals_loop_reference(max_abs):
    assert (suites.gauss_oracle_sweep(max_abs)
            == gauss_oracle_sweep_loop_reference(max_abs))


def test_gauss_oracle_sweep_makes_one_closed_call_per_beta(monkeypatch):
    # the coprime alphas of both branches share one row call per beta
    calls = []
    real = gauss.gauss_closed_many

    def counting(alpha, beta, gammas):
        calls.append(beta)
        return real(alpha, beta, gammas)

    monkeypatch.setattr(gauss, "gauss_closed_many", counting)
    suites.gauss_oracle_sweep(12)
    assert sorted(calls) == [b for b in range(-12, 13) if b]


def test_gauss_oracle_sweep_peak_memory():
    tracemalloc.start()
    try:
        suites.gauss_oracle_sweep(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_gauss_oracle_sweep_reports_a_nan_closed_value(monkeypatch):
    # max(max_oracle, nan) kept the old value, so this passed with 2.48e-16
    real = gauss.gauss_closed_many

    def nan_at_one_point(alpha, beta, gammas):
        out = real(alpha, beta, gammas)
        if beta == 1:
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(gauss, "gauss_closed_many", nan_at_one_point)
    rep = suites.gauss_oracle_sweep(2)
    assert math.isnan(rep.max_error) and not rep.passed


def test_gauss_oracle_sweep_reports_a_nan_vanishing_sum(monkeypatch):
    # at beta = 2, residue pair (0, 1) is an odd-parity entry whose alpha
    # shares the factor 2 with beta, so only the vanish maximum sees it
    real = suites._direct_table

    def nan_at_one_pair(beta):
        table = real(beta)
        if beta == 2:
            table[0, 1] = np.nan
        return table

    monkeypatch.setattr(suites, "_direct_table", nan_at_one_pair)
    rep = suites.gauss_oracle_sweep(2)
    assert math.isnan(rep.max_error) and not rep.passed
    assert rep.note.startswith("vanish max nan")
