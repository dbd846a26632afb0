"""Spans around the public functions of the qcatmap modules, recorded from
outside the package.

`Tracer.install` wraps every public function defined in the layer modules
and puts the wrapper at every place that names the original: the defining
module, every other qcatmap module that bound it with `from .x import f`,
and the package namespace.  Patching only the defining module would miss
those second bindings (for example `e_frac_array` inside `propagator`, or
`build` inside `suites`, `weyl` and `hecke`).

A span is (name, start, end, parent, op id).  Spans are kept in flat
arrays in memory and written out once, when the run ends.  A span's self
time is its duration minus the time covered by its child spans; spans come
from one thread, so the children of a span never overlap and the covered
time is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("phases", "gauss", "propagator", "sl2", "weyl", "hecke", "suites",
          "numtheory")

# Work counted at the span's boundary, from the wrapped function's result.
WORK = {
    "phases.e_frac_array": lambda r: {"elements": np.size(r)},
    "gauss.gauss_closed_many": lambda r: {"gammas": np.size(r)},
    "propagator.build": lambda r: {"entries": r.size,
                                   "nonzero": int(np.count_nonzero(r))},
    "sl2.decompose": lambda r: {"word_len": len(r)},
    "hecke.commutant_mod": lambda r: {"members": len(r)},
}


def span_name(layer: str, fn_name: str) -> str:
    """`layer.function`; a verify sweep is named after its check instead,
    e.g. suites.gauss_oracle_sweep -> suites.gauss-oracle."""
    if layer == "suites" and fn_name.endswith("_sweep"):
        return "suites." + fn_name[:-len("_sweep")].replace("_", "-")
    return f"{layer}.{fn_name}"


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.failed = defaultdict(int)                       # span name -> raised
        self.work = defaultdict(lambda: defaultdict(int))    # span name -> counts
        self.op_id = 0
        self.active = False
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        """fn wrapped so that each call records one span while active."""
        nid = self._id(name)
        hook = WORK.get(name)
        counts = self.work[name]
        clock, stack = time.perf_counter, self._stack
        names, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                self.failed[name] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if hook is not None:
                for key, value in hook(result).items():
                    counts[key] += value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer at every lookup site."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qcatmap.{layer}")
            for fn_name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not fn_name.startswith("_")):
                    wrappers[id(fn)] = self.wrap(span_name(layer, fn_name), fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qcatmap" and not mod_name.startswith("qcatmap."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no span."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        """Write the spans and the span-name table as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def layer_table(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds."""
    dur = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    k = len(names)
    calls = np.bincount(spans["name"], minlength=k)
    total = np.bincount(spans["name"], weights=dur, minlength=k)
    self_s = np.bincount(spans["name"], weights=own, minlength=k)
    return {name: {"calls": int(calls[i]), "s": float(total[i]),
                   "self_s": float(self_s[i])}
            for i, name in enumerate(names)}
