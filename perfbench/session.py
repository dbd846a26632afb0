"""Closed-loop op recorder: times each op, checks its output untimed, and
keeps going when an op raises or fails its check.

Only the call under test is timed.  The correctness check runs afterwards,
inside `check_context` (the traced run pauses its spans there), so neither
the check's cost nor its calls into the library reach the figures.

The timing figures of a run are op costs in `ref` units (see reference.py):
each op's wall time over the mean of the reference-kernel times measured
just before and just after its input unit.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from collections import defaultdict


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def margin(err: float, tol: float) -> float:
    """Accuracy digits: log10(tol / err), with an exact zero clamped."""
    return math.log10(tol / max(err, 1e-300))


def within(err: float, tol: float, what: str) -> float:
    """margin(err, tol), raising CheckFailed unless err < tol."""
    if not err < tol:
        raise CheckFailed(f"{what}: error {err:.3e} not below tol {tol:.1e}")
    return margin(err, tol)


class Session:
    """Outcome of every op run in one benchmark process."""

    def __init__(self, check_context=contextlib.nullcontext, on_op=None):
        self.check_context = check_context
        self.on_op = on_op                 # called with the op number before each op
        self.unit = 0                      # index of the input unit being run
        self.records = defaultdict(list)   # op kind -> (unit, seconds, entries) per passing op
        self.refs: list[float] = []        # reference seconds before unit i, and after the last
        self.attempted = 0
        self.failed = 0
        self.digits: list[float] = []      # accuracy digits of every numeric check
        self.errors: list[str] = []

    def op(self, kind: str, fn, check, entries: int = 0):
        """Time fn(), then run check(result) untimed.

        check returns the accuracy digits of the output (possibly none) and
        raises when the output is wrong.  An op whose fn or check raises is
        counted as failed and the session carries on.  Returns fn's result,
        or None when fn raised, so that the next op of a chain can still be
        checked against a reference of its own.
        """
        self.attempted += 1
        if self.on_op is not None:
            self.on_op(self.attempted)
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            self._fail(kind, exc)
            return None
        elapsed = time.perf_counter() - t0
        try:
            with self.check_context():
                digits = list(check(result))
        except Exception as exc:
            self._fail(kind, exc)
            return result
        self.records[kind].append((self.unit, elapsed, entries))
        self.digits.extend(digits)
        return result

    def _fail(self, kind: str, exc: Exception) -> None:
        self.failed += 1
        self.errors.append(f"{kind}: {exc!r}")

    def total_seconds(self) -> float:
        """Summed wall time of every passing op."""
        return math.fsum(secs for recs in self.records.values() for _, secs, _ in recs)

    def summary(self, kind: str) -> dict:
        """Figures of one op kind: the median, 75th percentile and mean of
        its op costs in ref units; its median and 75th percentile wall time
        (ms); and its entries per second of wall time."""
        recs = self.records[kind]
        secs = [s for _, s, _ in recs]
        costs = [s / self.unit_ref(unit) for unit, s, _ in recs]
        total = math.fsum(secs)
        return {
            "count": len(recs),
            "cost_p50": statistics.median(costs),
            "cost_p75": _p75(costs),
            "cost_mean": statistics.fmean(costs),
            "p50_ms": statistics.median(secs) * 1e3,
            "p75_ms": _p75(secs) * 1e3,
            "entries_per_s": sum(entries for _, _, entries in recs) / total,
        }

    def unit_ref(self, unit: int) -> float:
        """Reference-kernel seconds around one input unit."""
        return (self.refs[unit] + self.refs[unit + 1]) / 2


def _p75(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=4)[2] if len(xs) > 1 else xs[0]
