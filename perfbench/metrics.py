"""Names and units of the metrics the benchmark reports.

BENCHMARK.json lists exactly these; test_perfbench checks that they agree.

End to end (--trace 0), where one op is a verify pass on verify-all and one
build on the build workloads:
  setup_s          median, over fresh processes spread over the run, of
                   `import qcatmap` plus a first build at N = 8
  op_cost.p50/.p75 median and 75th percentile of the op cost in ref units:
                   the op's wall time over the reference kernel's time
                   measured around its input unit (reference.py)
  op_cost.mean     mean op cost, so a slow tail (such as the shear builds of
                   build-dense) moves it
  accuracy_digits  min over checks of log10(contract tol / measured error)
  peak_rss_mb      peak resident memory of the workload process

Per layer (--trace 1): for a span name X, X.calls, X.s (summed duration)
and X.self_s (duration not covered by child spans), plus the work counts
gathered at the span boundary and the tracing cost itself.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s"),
    ("op_cost.p50", "ref"),
    ("op_cost.p75", "ref"),
    ("op_cost.mean", "ref"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
)

VERIFY_CHECKS = ("multiplicativity", "relations", "gauss-oracle",
                 "substitution", "h-identity", "egorov", "mod4n", "mod2n",
                 "decomposition", "hecke", "unitarity")

_FIELDS = {
    "phases.e_frac": ("calls", "s"),
    "phases.e_frac_array": ("calls", "s", "elements"),
    "phases.e8": ("calls",),
    "gauss.gauss_closed": ("calls", "s", "self_s"),
    "gauss.gauss_closed_many": ("calls", "s", "self_s", "gammas"),
    "gauss.gauss_direct": ("calls", "s"),
    "gauss.is_nonvanishing": ("calls", "s"),
    "propagator.build": ("calls", "s", "self_s", "entries", "nonzero_frac",
                         "failed"),
    "propagator.unitarity_defect": ("calls", "s"),
    "propagator.verify_mult": ("calls", "s", "self_s"),
    "propagator.h_phase": ("calls", "s"),
    "propagator.classify": ("calls",),
    "sl2.decompose": ("calls", "s", "self_s", "word_len", "failed"),
    "sl2.evaluate": ("calls", "s"),
    "sl2.require_theta": ("calls", "s"),
    "weyl.weyl_op": ("calls", "s", "self_s"),
    "weyl.egorov_mode_errors": ("calls", "s", "self_s"),
    "hecke.commutant_mod": ("calls", "s", "members"),
    "hecke.lift_theta": ("calls", "s", "failed"),
    "hecke.verify_hecke": ("calls", "s", "self_s"),
    "hecke.verify_mod4N": ("calls", "s", "self_s"),
    "hecke.mod2N_factor": ("calls", "s", "self_s"),
    "hecke.congruent_companion": ("calls", "s"),
    "suites.word_product": ("calls", "s", "self_s"),
    **{f"suites.{check}": ("s",) for check in VERIFY_CHECKS},
    "numtheory.jacobi": ("calls", "s"),
    "numtheory.sign": ("calls",),
    # traced run: spans recorded, op seconds without and with spans
    "trace": ("spans", "untraced_s", "traced_s", "overhead_s"),
}

_UNITS = {"s": "s", "self_s": "s", "untraced_s": "s", "traced_s": "s",
          "overhead_s": "s", "nonzero_frac": "ratio", "word_len": "tokens"}

PER_LAYER = tuple((f"{span}.{field}", _UNITS.get(field, "count"))
                  for span, fields in _FIELDS.items() for field in fields)


def per_layer_values(table: dict, work: dict, failed: dict, trace: dict) -> dict:
    """Value of every PER_LAYER metric; a layer the run never entered reads 0.

    table: span name -> {"calls", "s", "self_s"}; work: span name -> counts
    from the span boundary; failed: span name -> calls that raised; trace:
    the trace.* fields.
    """
    out = {}
    for name, _ in PER_LAYER:
        span, field = name.rsplit(".", 1)
        row = table.get(span, {})
        counts = work.get(span, {})
        if span == "trace":
            value = trace[field]
        elif field in ("calls", "s", "self_s"):
            value = row.get(field, 0)
        elif field == "failed":
            value = failed.get(span, 0)
        elif field == "nonzero_frac":
            entries = counts.get("entries", 0)
            value = counts.get("nonzero", 0) / entries if entries else 0.0
        elif field == "word_len":
            done = row.get("calls", 0) - failed.get(span, 0)
            value = counts.get("word_len", 0) / done if done else 0.0
        else:
            value = counts.get(field, 0)
        out[name] = value
    return out
