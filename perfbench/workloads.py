"""The benchmark's workloads: seeded inputs and the ops each one runs.

Every workload is a closed loop with one client in one process.  Its inputs
come in units, drawn from a `random.Random` seeded by the workload name and
the --seed argument, so a seed always yields the same units.  The library
sees only the generated matrices (and, for verify-all, a CLI seed); the
probe vectors and reference products belong to the untimed checks.

  verify-all    one op = one `qcatmap verify all --seed <s>` pass through
                cli.main with the CLI defaults; a unit is one pass.
  build-dense   one op = build(A, 1024) with the default unitarity guard;
                a unit is 3 general matrices, 1 shear and 1 antishear in
                seeded order, so every run has the same 60/20/20 mix.
  build-powers  one op = build(A^t, 61), then decompose(A^t) as its own
                op, for t = 1, 2, ... until an entry reaches 2^64; a unit is
                one such chain for a seeded hyperbolic A with |entries| <= 8.
                N = 61 is prime, so gcd(b, N) = 1 for every power and each
                fallback build evaluates every entry.  At N = 256 the share of
                entries evaluated is 2/gcd(b, 256), which made the chain cost
                depend mostly on which A the seed drew; at N = 61 a chain
                takes about a second, so a run averages over some 25 of them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random

import numpy as np

import qcatmap as qc
from qcatmap import cli
from metrics import VERIFY_CHECKS
from session import CheckFailed, Session, margin, within

DENSE_N = 1024
DENSE_PROBES = 8
POWERS_N = 61
POWERS_ENTRY_BOUND = 8
POWERS_STOP = 2**64

WORKLOADS = ("verify-all", "build-dense", "build-powers")
PRIMARY_OP = {"verify-all": "verify", "build-dense": "build",
              "build-powers": "build"}


def units(workload: str, seed: int):
    """Endless stream of the workload's input units for this seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-all":
        while True:
            yield rng.randrange(2**31)
    elif workload == "build-dense":
        while True:
            kinds = ["general"] * 3 + ["shear", "antishear"]
            rng.shuffle(kinds)
            yield [(_dense_matrix(rng, kind), rng.randrange(2**32)) for kind in kinds]
    elif workload == "build-powers":
        pool = hyperbolic_pool(POWERS_ENTRY_BOUND)
        while True:
            yield rng.choice(pool)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _dense_matrix(rng: random.Random, kind: str) -> qc.Mat2:
    s = rng.choice((1, -1))
    if kind == "shear":
        return qc.Mat2(s, 0, 2 * rng.randint(-8, 8), s)
    if kind == "antishear":
        return qc.Mat2(0, s, -s, 2 * rng.randint(-8, 8))
    return qc.sl2.random_theta_general(rng, 8)


def hyperbolic_pool(bound: int) -> list[qc.Mat2]:
    """Theta matrices with |entries| <= bound and |trace| > 2, in entry order."""
    r = range(-bound, bound + 1)
    return [m for m in (qc.Mat2(*e) for e in itertools.product(r, repeat=4))
            if abs(m.a + m.d) > 2 and qc.is_theta(m)]


def run_unit(workload: str, session: Session, unit) -> None:
    """Run and check every op of one input unit."""
    if workload == "verify-all":
        _verify_pass(session, unit)
    elif workload == "build-dense":
        for m, probe_seed in unit:
            _dense_build(session, m, probe_seed)
    else:
        _powers_chain(session, unit)


def _verify_pass(session: Session, cli_seed: int) -> None:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify", "all", "--seed", str(cli_seed),
                           "--format", "json"])
        return rc, out.getvalue()

    def check(result):
        rc, text = result
        reports = json.loads(text)
        failing = [r["name"] for r in reports if not r["passed"]]
        if rc != 0 or failing or len(reports) != len(VERIFY_CHECKS):
            raise CheckFailed(f"seed {cli_seed}: rc {rc}, {len(reports)} "
                              f"reports, failing {failing}")
        # the reported tol is the base rate; per-sample tolerances are wider
        return [margin(r["max_error"], r["tol"]) for r in reports]

    session.op("verify", run, check)


def _dense_build(session: Session, m: qc.Mat2, probe_seed: int) -> None:
    n = DENSE_N

    def check(u):
        rng = np.random.default_rng(probe_seed)
        v = rng.standard_normal((n, DENSE_PROBES)) + 1j * rng.standard_normal((n, DENSE_PROBES))
        v /= np.linalg.norm(v, axis=0)
        w = u @ v
        defect = float(np.abs(w.conj().T @ w - v.conj().T @ v).max())
        return [within(defect, qc.UNITARITY_TOL * math.sqrt(n), f"unitarity of {m}")]

    session.op("build", lambda: qc.build(m, n), check, entries=n * n)


def _powers_chain(session: Session, base: qc.Mat2) -> None:
    n = POWERS_N
    tol = qc.MULT_TOL * n
    u_base = None
    prev_m, prev_u = qc.IDENTITY, None
    m = base
    while True:
        def check(u, m=m, prev_m=prev_m, prev_u=prev_u, u_base=u_base):
            # references come from earlier timed ops, or are rebuilt here
            left = u_base if u_base is not None else qc.build(base, n)
            right = prev_u if prev_u is not None else qc.build(prev_m, n)
            err = float(np.abs(u - left @ right).max())
            return [within(err, tol, f"U({m}) = U(A) U(A^(t-1))")]

        u = session.op("build", lambda: qc.build(m, n), check, entries=n * n)
        if m == base:
            u_base = u

        def check_word(word, m=m):
            if qc.evaluate(word) != m:
                raise CheckFailed(f"decompose({m}) evaluates elsewhere")
            return []

        session.op("decompose", lambda: qc.decompose(m), check_word)
        if max(abs(x) for x in m.entries()) >= POWERS_STOP:
            return
        prev_m, prev_u = m, u
        m = m @ base
