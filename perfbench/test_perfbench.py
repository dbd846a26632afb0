"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import itertools
import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qcatmap  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from reference import reference_kernel  # noqa: E402
from session import CheckFailed, Session  # noqa: E402
from tracer import Tracer, layer_table, self_times  # noqa: E402


def _synthetic_spans():
    # 0 [0, 10] -> 1 [1, 4], 2 [5, 9] -> 3 [6, 8]; 4 [11, 12] is a second root
    names = ["a", "b", "c"]
    spans = {
        "name": np.array([0, 1, 1, 2, 0]),
        "parent": np.array([-1, 0, 0, 2, -1]),
        "op": np.array([1, 1, 1, 1, 2]),
        "start": np.array([0.0, 1.0, 5.0, 6.0, 11.0]),
        "end": np.array([10.0, 4.0, 9.0, 8.0, 12.0]),
    }
    return names, spans


def test_self_time_subtracts_direct_children_only():
    _, s = _synthetic_spans()
    own = self_times(s["start"], s["end"], s["parent"])
    assert own.tolist() == [3.0, 3.0, 2.0, 2.0, 1.0]


def test_layer_table_sums_calls_total_and_self_time_per_name():
    names, spans = _synthetic_spans()
    table = layer_table(names, spans)
    assert table == {
        "a": {"calls": 2, "s": 11.0, "self_s": 4.0},
        "b": {"calls": 2, "s": 7.0, "self_s": 5.0},
        "c": {"calls": 1, "s": 2.0, "self_s": 2.0},
    }


def test_per_layer_values_ratios_and_unseen_layers():
    table = {"propagator.build": {"calls": 4, "s": 2.0, "self_s": 1.0},
             "sl2.decompose": {"calls": 3, "s": 0.1, "self_s": 0.1}}
    work = {"propagator.build": {"entries": 400, "nonzero": 100},
            "sl2.decompose": {"word_len": 40}}
    failed = {"sl2.decompose": 1}
    trace = {"spans": 7, "untraced_s": 1.0, "traced_s": 1.5, "overhead_s": 0.5}
    v = metrics.per_layer_values(table, work, failed, trace)
    assert set(v) == {name for name, _ in metrics.PER_LAYER}
    assert v["propagator.build.nonzero_frac"] == 0.25
    assert v["sl2.decompose.word_len"] == 20.0   # over the 2 calls that returned
    assert v["sl2.decompose.failed"] == 1
    assert v["hecke.commutant_mod.members"] == 0
    assert v["trace.overhead_s"] == 0.5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = list(itertools.islice(workloads.units(workload, 7), 4))
    again = list(itertools.islice(workloads.units(workload, 7), 4))
    other = list(itertools.islice(workloads.units(workload, 8), 4))
    assert first == again
    assert first != other


def test_build_dense_units_keep_the_case_mix():
    for unit in itertools.islice(workloads.units("build-dense", 3), 10):
        kinds = sorted(qcatmap.classify(m).kind for m, _ in unit)
        shears = [k for k in kinds if k in ("shear", "parity")]
        antishears = [k for k in kinds if k in ("antishear", "fourier")]
        assert len(shears) == 1 and len(antishears) == 1 and len(kinds) == 5


def test_hyperbolic_pool_holds_theta_matrices_with_small_entries():
    pool = workloads.hyperbolic_pool(8)
    assert qcatmap.Mat2(3, 2, 4, 3) in pool
    assert all(qcatmap.is_theta(m) and abs(m.a + m.d) > 2 for m in pool)
    assert all(max(map(abs, m.entries())) <= 8 for m in pool)


def test_failing_ops_are_counted_and_the_session_goes_on():
    session = Session()

    def boom():
        raise ValueError("synthetic failure")

    def wrong_output(result):
        raise CheckFailed("synthetic wrong output")

    assert session.op("x", boom, lambda r: []) is None
    assert session.op("x", lambda: 1, wrong_output) == 1
    assert session.op("x", lambda: 2, lambda r: [3.5]) == 2
    assert (session.attempted, session.failed) == (3, 2)
    assert len(session.records["x"]) == 1
    assert session.digits == [3.5]


def test_a_raising_build_fails_one_op_of_a_workload_unit(monkeypatch):
    real_build = qcatmap.build

    def build_failing_on_shears(m, n, check=True):
        if m.b == 0:
            raise ValueError("synthetic failure")
        return real_build(m, n, check)

    monkeypatch.setattr(workloads, "DENSE_N", 16)
    monkeypatch.setattr(workloads.qc, "build", build_failing_on_shears)
    session = Session()
    workloads.run_unit("build-dense", session,
                       next(workloads.units("build-dense", 1)))
    assert (session.attempted, session.failed) == (5, 1)
    assert len(session.records["build"]) == 4


def test_summary_divides_each_op_by_the_reference_around_its_unit():
    session = Session()
    # 4 units of 2 ops; the machine is twice as slow around units 2 and 3
    session.refs = [0.01, 0.01, 0.02, 0.02, 0.02]
    for unit in range(4):
        slow = 2 if unit >= 2 else 1
        session.records["x"] += [(unit, slow * 0.01, 10), (unit, slow * 0.03, 10)]
    assert session.unit_ref(1) == pytest.approx(0.015)
    s = session.summary("x")
    costs = [1.0, 3.0, 1.0 / 1.5, 3.0 / 1.5, 1.0, 3.0, 1.0, 3.0]   # the slow spell cancels
    assert s["count"] == 8
    assert s["cost_p50"] == pytest.approx(statistics.median(costs))
    assert s["cost_p75"] == pytest.approx(statistics.quantiles(costs, n=4)[2])
    assert s["cost_mean"] == pytest.approx(statistics.fmean(costs))
    assert s["p50_ms"] == pytest.approx(25.0)
    assert s["entries_per_s"] == pytest.approx(80 / 0.24)
    one = Session()
    one.refs = [0.5, 1.5]
    one.records["y"] = [(0, 2.0, 0)]
    assert one.summary("y")["cost_p75"] == one.summary("y")["cost_p50"] == 2.0


def test_reference_kernel_is_timed_and_independent_of_qcatmap():
    src = (HERE / "reference.py").read_text()
    assert "qcatmap" not in src.split('"""', 2)[2]
    assert 0 < reference_kernel() < 10


def test_tracer_sees_calls_through_every_binding():
    tracer = Tracer()
    originals = (qcatmap.build, qcatmap.propagator.e_frac_array,
                 qcatmap.phases.e_frac_array, qcatmap.suites.build)
    tracer.install()
    try:
        assert qcatmap.propagator.e_frac_array is qcatmap.phases.e_frac_array
        assert qcatmap.suites.build is qcatmap.build is qcatmap.propagator.build
        assert qcatmap.build is not originals[0]
        tracer.active = True
        u = qcatmap.build(qcatmap.Mat2(2, 1, 3, 2), 6)
        with tracer.paused():
            qcatmap.build(qcatmap.Mat2(2, 1, 3, 2), 6)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert (qcatmap.build, qcatmap.propagator.e_frac_array,
            qcatmap.phases.e_frac_array, qcatmap.suites.build) == originals
    spans = tracer.spans()
    names = [tracer.names[i] for i in spans["name"]]
    build_idx = names.index("propagator.build")
    assert names.count("propagator.build") == 1
    children = {names[i] for i in np.flatnonzero(spans["parent"] == build_idx)}
    assert {"phases.e_frac_array", "gauss.gauss_closed_many"} <= children
    assert tracer.work["propagator.build"]["entries"] == u.size
    table = layer_table(tracer.names, spans)
    assert table["propagator.build"]["self_s"] < table["propagator.build"]["s"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert len(spec["per_layer"]) <= 128
