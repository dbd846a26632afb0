#!/usr/bin/env python3
"""qcatmap benchmark: one command per workload, run from the checkout root.

    python3 perfbench/run.py --workload build-dense --seed 1 --seconds 35 --trace 0

The package is imported from the `src` directory next to this one, never
from an installed copy; without it the command exits with code 2.

--trace 0 measures the end-to-end metrics: whole input units until --seconds
have passed (at least one unit), with set-up time in fresh processes timed
between units and the reference kernel of reference.py timed before each
unit and after the last; op timings are reported in its `ref` units, raw
times as text.
--trace 1 runs the first unit of the seed untraced, then again with a span
around every public function of the layer modules, and reports per-layer
metrics; its work is fixed by the seed, so counts repeat exactly.  Spans
are written to .perfbench_out/spans-<workload>.npz.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
SETUP_RUNS = 9

# Timed in a fresh interpreter: what a user pays before the first result.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qcatmap
qcatmap.build(qcatmap.Mat2(2, 1, 3, 2), 8)
print(time.perf_counter() - t0, qcatmap.__file__)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-all", "build-dense", "build-powers"))
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed: the same seed gives the same inputs")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time of a --trace 0 run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _imported_from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def setup_once() -> float:
    """Seconds of import plus first build in one fresh process."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120, cwd=ROOT)
    seconds, path = out.stdout.split()
    if not _imported_from_src(path):
        raise RuntimeError(f"set-up imported qcatmap from {path}")
    return float(seconds)


def machine_facts(np) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"machine nproc={NPROC} blas={blas['name']}-{blas['version']} "
            f"blas_threads={BLAS_THREADS} python={platform.python_version()} "
            f"numpy={np.__version__}")


def warm_up(qc) -> None:
    """First-call costs (BLAS thread start, lazy numpy set-up) stay untimed."""
    u = qc.build(qc.Mat2(2, 1, 3, 2), 64)
    qc.unitarity_defect(u @ u)


def emit(lines, correct, attempted, failed, metrics) -> None:
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_end_to_end(args) -> int:
    import numpy as np
    import qcatmap as qc
    import workloads
    from metrics import END_TO_END
    from reference import reference_seconds
    from session import Session
    setup_once()          # untimed: the first fresh process may write bytecode caches
    warm_up(qc)
    reference_seconds()
    session = Session()
    stream = workloads.units(args.workload, args.seed)
    setups = []
    t0 = time.perf_counter()
    n_units = 0
    while n_units == 0 or time.perf_counter() - t0 < args.seconds:
        session.refs.append(reference_seconds())
        session.unit = n_units
        workloads.run_unit(args.workload, session, next(stream))
        n_units += 1
        # set-ups spread over the run, so that their median spans its slow and fast spells
        share = min(1.0, (time.perf_counter() - t0) / args.seconds)
        while len(setups) < SETUP_RUNS * share:
            setups.append(setup_once())
    session.refs.append(reference_seconds())
    wall = time.perf_counter() - t0
    while len(setups) < SETUP_RUNS:
        setups.append(setup_once())
    setup_s = statistics.median(setups)
    primary = workloads.PRIMARY_OP[args.workload]
    if not session.records[primary]:
        print(f"error: no {primary} op passed: {session.errors[:3]}", file=sys.stderr)
        return 1
    s = session.summary(primary)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": setup_s,
        "op_cost.p50": s["cost_p50"],
        "op_cost.p75": s["cost_p75"],
        "op_cost.mean": s["cost_mean"],
        "accuracy_digits": min(session.digits),
        "peak_rss_mb": rss_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    lines = [machine_facts(np),
             f"run workload={args.workload} seed={args.seed} units={n_units} "
             f"wall_s={wall:.2f} attempted={session.attempted} failed={session.failed}",
             f"ref_ms.p50 {statistics.median(session.refs) * 1e3:.3f} ms "
             f"(n={len(session.refs)}, the reference kernel's raw time, median of 3 runs)"]
    # raw wall-time figures under workload-specific names
    if primary == "verify":
        lines.append(f"verify_s {s['p50_ms'] / 1e3:.4f} s (n={s['count']})")
    else:
        lines += [f"build_ms.p50 {s['p50_ms']:.3f} ms (n={s['count']})",
                  f"build_ms.p75 {s['p75_ms']:.3f} ms (n={s['count']})",
                  f"entries_per_s {s['entries_per_s']:.6g} 1/s"]
    if session.records["decompose"]:
        d = session.summary("decompose")
        lines.append(f"decompose_ms.p50 {d['p50_ms']:.4f} ms (n={d['count']})")
    lines.append(f"failed_frac {session.failed / session.attempted:.4g} 1")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"failure {e}" for e in session.errors[:10]]
    emit(lines, session.failed == 0, session.attempted, session.failed, metrics)
    return 0


def run_traced(args) -> int:
    import numpy as np
    import qcatmap as qc
    import workloads
    from metrics import PER_LAYER, per_layer_values
    from session import Session
    from tracer import Tracer, layer_table
    unit = next(workloads.units(args.workload, args.seed))
    warm_up(qc)
    plain = Session()
    workloads.run_unit(args.workload, plain, unit)

    tracer = Tracer()
    tracer.install()
    traced = Session(check_context=tracer.paused,
                     on_op=lambda i: setattr(tracer, "op_id", i))
    tracer.active = True
    try:
        workloads.run_unit(args.workload, traced, unit)
    finally:
        tracer.active = False
        tracer.uninstall()

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.npz")
    table = layer_table(tracer.names, tracer.spans())
    untraced_s = plain.total_seconds()
    traced_s = traced.total_seconds()
    trace = {"spans": len(tracer.name), "untraced_s": untraced_s,
             "traced_s": traced_s, "overhead_s": traced_s - untraced_s}
    values = per_layer_values(table, tracer.work, tracer.failed, trace)
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}

    lines = [machine_facts(np),
             f"trace workload={args.workload} seed={args.seed} spans={trace['spans']} "
             f"untraced_s={untraced_s:.3f} traced_s={traced_s:.3f} "
             f"overhead_s={trace['overhead_s']:.3f}",
             "span calls s self_s"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name} {row['calls']} {row['s']:.4f} {row['self_s']:.4f}")
    lines += [f"failure {e}" for e in (plain.errors + traced.errors)[:10]]
    failed = plain.failed + traced.failed
    emit(lines, failed == 0, plain.attempted + traced.attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "qcatmap" / "__init__.py").is_file():
        print(f"error: no qcatmap sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)   # before numpy loads BLAS
    sys.path.insert(0, str(SRC))
    import qcatmap
    if not _imported_from_src(qcatmap.__file__):
        print(f"error: qcatmap imported from {qcatmap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run_traced(args) if args.trace else run_end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
