"""A fixed reference kernel, timed between input units to gauge machine speed.

On a shared virtual machine the speed of a core drifts: the same verify pass
took 1.7 s in one minute and 3.0 s a few minutes later, and a 30-second run's
median moved by a third from one run to the next.  No statistic taken within
a run removes a drift that lasts minutes.  So every run times this kernel
before each input unit and after the last one, and the timing figures of the
run are op costs in `ref` units: an op's wall time divided by the mean of
the kernel times measured just before and just after its unit, each the
median of REPEATS runs of the kernel.  A change to
the program moves those costs; a slow spell of the machine moves the op and
the kernel alike and cancels.  The raw wall times are printed as well.

The kernel touches what the three workloads lean on, a few milliseconds
each: pure-Python arithmetic on integers past 64 bits (the exact fallback
of build-powers), numpy calls on small arrays from a Python loop (the
tiny-N sweeps of verify-all), and elementwise work on a 2^17-element complex
array plus a complex matrix product through BLAS (build-dense).  It calls
nothing in qcatmap, so no change to the package moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3

_BIG = 3**45          # about 71 bits
_SMALL = np.arange(48, dtype=np.float64)
_GRID = np.linspace(0.0, 1.0, 1 << 17)
_MAT = (np.arange(384 * 384).reshape(384, 384) % 17 - 8) * (1 + 0.5j)


def reference_kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc = (acc + _BIG * i) % 1_000_000_007_000_000_007
    x = _SMALL
    for _ in range(2_400):
        x = np.cos(x) + x[::-1] * 0.5
    z = np.exp(2j * np.pi * _GRID * 7.0)
    z = np.round(z.real * 4.0) + z.imag
    m = _MAT @ _MAT
    t = time.perf_counter() - t0
    # keep the results alive so that no step can be skipped
    if acc < 0 or not np.isfinite(x).all() or z.size != _GRID.size or m.shape != _MAT.shape:
        raise AssertionError("reference kernel broke")
    return t


def reference_seconds() -> float:
    """Median wall time of REPEATS back-to-back runs of the kernel."""
    return statistics.median(reference_kernel() for _ in range(REPEATS))
