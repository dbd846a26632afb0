import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from _oracles import (commutant_mod_reference, egorov_mode_errors_reference,
                      gauss_oracle_sweep_loop_reference, verify_hecke_reference)

from qcatmap import cli, hecke, suites, weyl
from qcatmap.propagator import Report, build
from qcatmap.sl2 import Mat2


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_propagator_emits_json(capsys):
    rc, out = run(capsys, ["propagator", "--matrix", "0,-1,1,0", "--dim", "2"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["N"] == 2
    assert payload["A"] == [0, -1, 1, 0]
    got = np.array([[complex(re, im) for re, im in row]
                    for row in payload["matrix"]])
    assert np.abs(got - build(Mat2(0, -1, 1, 0), 2)).max() < 1e-12


def test_propagator_rejects_bad_matrix(capsys):
    rc = cli.main(["propagator", "--matrix", "1,1,1,2", "--dim", "3"])
    capsys.readouterr()
    assert rc == 2
    rc = cli.main(["propagator", "--matrix", "1,2,3", "--dim", "3"])
    capsys.readouterr()
    assert rc == 2


def test_missing_subcommand_is_usage_error(capsys):
    rc = cli.main([])
    capsys.readouterr()
    assert rc == 2


def test_decompose_text_and_json(capsys):
    rc, out = run(capsys, ["decompose", "--matrix", "2,1,3,2"])
    assert rc == 0 and out.strip() == "T2 S- T2"
    rc, out = run(capsys, ["decompose", "--matrix", "2,1,3,2",
                           "--format", "json"])
    payload = json.loads(out)
    assert payload["word"] == ["T2", "S-", "T2"]
    assert payload["length"] == 3
    rc, out = run(capsys, ["decompose", "--matrix", "1,0,0,1"])
    assert rc == 0 and out.strip() == "(identity)"


def test_gauss_both_methods(capsys):
    rc, out = run(capsys, ["gauss", "--alpha", "2", "--beta", "3",
                           "--gamma", "0", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["nonvanishing"] is True
    closed = complex(*payload["closed"])
    direct = complex(*payload["direct"])
    assert abs(closed - 1j) < 1e-12
    assert abs(direct - 1j) < 1e-9
    assert payload["difference"] < 1e-9


def test_gauss_closed_needs_coprime(capsys):
    rc = cli.main(["gauss", "--alpha", "2", "--beta", "4", "--gamma", "0"])
    capsys.readouterr()
    assert rc == 2
    # the direct method alone still works there
    rc, out = run(capsys, ["gauss", "--alpha", "2", "--beta", "4",
                           "--gamma", "0", "--method", "direct",
                           "--format", "json"])
    assert rc == 0
    assert abs(complex(*json.loads(out)["direct"]) - (1 + 1j)) < 1e-9


def test_egorov_subcommand(capsys):
    rc, out = run(capsys, ["egorov", "--matrix", "1,0,2,1", "--dim", "4",
                           "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["max_error"] < 1e-10
    rc, out = run(capsys, ["egorov", "--matrix", "1,0,2,1", "--dim", "4",
                           "--mode", "1,2", "--format", "json"])
    assert rc == 0 and json.loads(out)["passed"] is True


def test_hecke_subcommand(capsys):
    rc, out = run(capsys, ["hecke", "--matrix", "2,1,3,2", "--dim", "3",
                           "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert int(payload["note"].removeprefix("commutant size ")) > 0
    # cap exceeded is an input error
    rc = cli.main(["hecke", "--matrix", "2,1,3,2", "--dim", "20"])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["hecke", "--matrix", "2,1,3,2", "--dim", "3", "--seed", "7"],
    ["gauss", "--alpha", "2", "--beta", "3", "--gamma", "0",
     "--method", "closed", "--tolerance-scale", "1e-30"],
    ["gauss", "--alpha", "2", "--beta", "3", "--gamma", "0",
     "--method", "direct", "--tolerance-scale", "2"],
], ids=["hecke-seed-without-samples", "gauss-closed-tolerance-scale",
        "gauss-direct-tolerance-scale"])
def test_options_a_run_would_ignore_are_input_errors(capsys, argv):
    # these used to be accepted and ignored: the hecke run lifted all 48
    # members and passed, the closed form exited 0 at any scale
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[0]} ")
    assert captured.err.rstrip().endswith(f"does not read {argv[-2]}")


def test_hecke_samples_without_seed_draw_from_seed_zero(capsys):
    argv = ["hecke", "--matrix", "2,1,3,2", "--dim", "3", "--samples", "5",
            "--format", "json"]
    rc, out = run(capsys, argv)
    rc_seeded, out_seeded = run(capsys, [*argv, "--seed", "0"])
    rc_other, _ = run(capsys, [*argv, "--seed", "7"])
    assert rc == rc_seeded == rc_other == 0
    assert out == out_seeded
    assert json.loads(out)["samples"] == 5


def test_verify_text_reports(capsys):
    rc, out = run(capsys, ["verify", "relations", "--dims", "1..6"])
    assert rc == 0
    assert out.startswith("[PASS] relations:")


def test_verify_json_deterministic(capsys):
    argv = ["verify", "mult", "--samples", "20", "--dims", "1..8",
            "--seed", "7", "--format", "json"]
    rc1, out1 = run(capsys, argv)
    rc2, out2 = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    (payload,) = json.loads(out1)
    assert payload["name"] == "multiplicativity"
    assert payload["passed"] is True
    assert payload["samples"] == 20


def test_verify_multiple_suites(capsys):
    rc, out = run(capsys, ["verify", "mod2n", "--samples", "10"])
    assert rc == 0
    assert "factors seen [-1, 1]" in out


def test_mod2n_two_samples_see_both_signs(capsys):
    rc, out = run(capsys, ["verify", "mod2n", "--samples", "2"])
    assert rc == 0
    assert out.startswith("[PASS] mod2N: 2 samples")
    assert "factors seen [-1, 1]" in out


def test_mod2n_one_sample_is_input_error(capsys):
    rc = cli.main(["verify", "mod2n", "--samples", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: mod2n needs at least 2 pairs")


def test_invalid_dims_is_input_error(capsys):
    rc = cli.main(["verify", "relations", "--dims", "0..4"])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize("text", ["", "abc", "3..x"], ids=["empty", "word", "range"])
def test_malformed_dims_names_the_option_and_its_forms(capsys, text):
    rc = cli.main(["verify", "mult", "--dims", text])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: --dims {text!r} is not a list of dimensions >= 1; "
                   'use "8", "1,2,4" or "1..16"\n')


@pytest.mark.parametrize("argv, form", [
    (["egorov", "--matrix", "2,1,3,2", "--dim", "3", "--mode", "abc"], '"n1,n2"'),
    (["egorov", "--matrix", "2,1,3,2", "--dim", "3", "--mode", "1,x"], '"n1,n2"'),
    (["egorov", "--matrix", "2,1,x,2", "--dim", "3"], '"a,b,c,d"'),
], ids=["mode-word", "mode-component", "matrix-entry"])
def test_malformed_integers_name_the_expected_form(capsys, argv, form):
    # these printed a bare "invalid literal for int()" message
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and form in err
    assert "Traceback" not in err and "invalid literal" not in err


def test_only_hecke_takes_max_4n(capsys):
    # verify --max-4n could only lower hecke's N range, which --dims sets
    assert cli.main(["verify", "hecke", "--max-4n", "8"]) == 2
    assert "unrecognized arguments: --max-4n" in capsys.readouterr().err
    rc, out = run(capsys, ["hecke", "--matrix", "2,1,3,2", "--dim", "2",
                           "--max-4n", "8"])
    assert rc == 0 and out.startswith("[PASS] hecke:")


def test_verify_help_names_only_checks_that_read_the_option():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub.choices["verify"]._actions}
    for option in cli.VERIFY_OPTIONS:
        readers = {name for name, (_, params) in suites.CHECKS.items()
                   if option in params}
        named = {name for name in suites.CHECKS
                 if re.search(rf"(?<![\w-]){name}(?![\w-])", helps[option])}
        assert named <= readers, (option, named - readers)
        assert "read by" in helps[option], option
        assert named == readers, option


@pytest.mark.parametrize("argv", [
    ["verify", "gauss-oracle", "--max-beta", "0"],
    ["verify", "gauss-oracle", "--max-beta", "-3"],
    ["verify", "mult", "--samples", "0"],
    ["verify", "mult", "--samples", "-1"],
    ["hecke", "--matrix", "2,1,3,2", "--dim", "3", "--samples", "0"],
], ids=["max-beta-0", "max-beta-negative", "samples-0", "samples-negative",
        "hecke-samples-0"])
def test_empty_sample_requests_are_input_errors(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert "PASS" not in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("what", ["substitution", "h-identity"])
def test_d_zero_samples_are_checked(capsys, monkeypatch, what):
    # a sampler that only yields d = 0 matrices, which both sweeps used to
    # reject: h(0, b) = 1 = h(a, b) there, so every draw is a sample
    monkeypatch.setattr(suites, "random_theta_general",
                        lambda rng, max_word_len: Mat2(2, 1, -1, 0))
    rep = getattr(suites, what.replace("-", "_") + "_sweep")(samples=3)
    assert rep.passed and rep.samples == 3
    rc, out = run(capsys, ["verify", what, "--samples", "3"])
    assert rc == 0
    assert out.startswith(f"[PASS] {what}: 3 samples,")


def test_tolerance_scale_flag(capsys):
    rc, out = run(capsys, ["verify", "unitarity", "--samples", "5",
                           "--tolerance-scale", "100.0"])
    assert rc == 0


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ["verify", "relations", "--dims", "1..3"],
    ["egorov", "--matrix", "2,1,3,2", "--dim", "3"],
], ids=["verify", "egorov"])
def test_tolerance_scale_must_be_finite_positive(capsys, argv, scale):
    # inf used to pass every check and nan, 0 or -1 to fail every check
    rc = cli.main([*argv, "--tolerance-scale", scale])
    captured = capsys.readouterr()
    assert rc == 2
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert "Traceback" not in captured.err


def test_verify_choices_follow_check_registry():
    assert set(cli.VERIFY_CHOICES) == set(suites.CHECKS) | {"all"}
    parser = cli.build_parser()
    for name in cli.VERIFY_CHOICES:
        assert parser.parse_args(["verify", name]).what == name


REGISTRY_FLAGS = ["--seed", "3", "--samples", "5", "--dims", "1..6",
                  "--max-beta", "6", "--format", "json"]


@pytest.fixture(scope="module")
def verify_all_reports():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify", "all", *REGISTRY_FLAGS])
    assert rc == 0
    reports = json.loads(out.getvalue())
    assert len(reports) == len(suites.CHECKS)
    return dict(zip(suites.CHECKS, reports))


@pytest.mark.parametrize("name", list(suites.CHECKS))
def test_single_check_matches_its_verify_all_entry(capsys, verify_all_reports,
                                                   name):
    # a single check takes only the registry flags that it reads
    read = {"--" + option.replace("_", "-") for option in suites.CHECKS[name][1]}
    flags = [x for flag, value in zip(REGISTRY_FLAGS[::2], REGISTRY_FLAGS[1::2])
             if flag in read | {"--format"} for x in (flag, value)]
    rc, out = run(capsys, ["verify", name, *flags])
    assert rc == 0
    assert json.loads(out) == [verify_all_reports[name]]


# the value each registry flag gives, and the value that reaches the sweep
# parameter it sets
REGISTRY_VALUES = {"seed": "3", "samples": "5", "dims": "1..6",
                   "max_beta": "6"}
PARAM_VALUES = {"seed": 3, "samples": 5, "pairs": 5, "words": 5, "max_dim": 6,
                "dims": [1, 2, 3, 4, 5, 6], "max_abs": 6}


@pytest.mark.parametrize("name", list(suites.CHECKS))
def test_check_registry_names_sweep_parameters(name):
    sweep, params = suites.CHECKS[name]
    signature = inspect.signature(getattr(suites, sweep))
    assert set(cli.VERIFY_OPTIONS) == set(REGISTRY_VALUES)
    assert set(params) <= set(REGISTRY_VALUES)
    assert set(params.values()) <= set(signature.parameters)


UNDECLARED = [(name, option) for name, (_, params) in suites.CHECKS.items()
              for option in REGISTRY_VALUES if option not in params]


@pytest.mark.parametrize("name, option", UNDECLARED,
                         ids=[f"{name}-{option}" for name, option in UNDECLARED])
def test_verify_rejects_every_undeclared_option(capsys, name, option):
    # the rejection comes before any sweep runs
    flag = "--" + option.replace("_", "-")
    rc = cli.main(["verify", name, flag, REGISTRY_VALUES[option]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: verify {name} does not read {flag}\n"


@pytest.mark.parametrize("name", list(suites.CHECKS))
def test_verify_passes_exactly_the_declared_options(capsys, monkeypatch, name):
    sweep, params = suites.CHECKS[name]
    calls = []

    def stub(**kwargs):
        calls.append(kwargs)
        return Report(name, 1, 0.0, 1e-10, True)

    monkeypatch.setattr(suites, sweep, stub)
    flags = [x for option in params
             for x in ("--" + option.replace("_", "-"), REGISTRY_VALUES[option])]
    assert cli.main(["verify", name, *flags, "--tolerance-scale", "2"]) == 0
    capsys.readouterr()
    assert calls == [{**{param: PARAM_VALUES[param] for param in params.values()},
                      "tol_scale": 2.0}]


def test_verify_seed_defaults_to_zero(capsys):
    argv = ["verify", "all", "--samples", "4", "--dims", "1..4",
            "--max-beta", "3", "--format", "json"]
    rc, out = run(capsys, argv)
    rc_seeded, out_seeded = run(capsys, [*argv, "--seed", "0"])
    assert rc == rc_seeded == 0
    assert out == out_seeded


@pytest.mark.parametrize("what", ["egorov", "hecke", "gauss-oracle"])
def test_batched_checks_print_the_loop_output(capsys, monkeypatch, what):
    argv = ["verify", what, "--format", "json"]
    if what != "gauss-oracle":
        argv += ["--seed", "3"]
    rc, out = run(capsys, argv)
    monkeypatch.setattr(weyl, "egorov_mode_errors", egorov_mode_errors_reference)
    monkeypatch.setattr(hecke, "commutant_mod", commutant_mod_reference)
    monkeypatch.setattr(hecke, "verify_hecke", verify_hecke_reference)
    monkeypatch.setattr(suites, "gauss_oracle_sweep",
                        gauss_oracle_sweep_loop_reference)
    rc_loop, out_loop = run(capsys, argv)
    assert rc == rc_loop == 0
    assert out == out_loop


SRC = str(Path(__file__).resolve().parents[1] / "src")

_CAT = Mat2(2, 1, 3, 2)
_CAT_POW_61 = _CAT
for _ in range(60):
    _CAT_POW_61 = _CAT_POW_61 @ _CAT


def run_python(args, code=None):
    """Run the interpreter on the package sources; returns the process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, *args] + (["-c", code] if code else [])
    return subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("argv, want", [
    (["decompose", "--matrix", "60,61,-61,-62"], 0),
    (["hecke", "--matrix", "2,1,3,2", "--dim", "17"], 2),
    (["hecke", "--matrix", "2,1,3,2", "--dim", "0"], 2),
    (["propagator", "--matrix", "1,1,0,1", "--dim", "3"], 2),
    (["egorov", "--matrix", ",".join(map(str, _CAT_POW_61.entries())),
      "--dim", "4"], 0),
], ids=["decompose-cusp-one", "hecke-cap-exceeded", "hecke-dim-zero",
        "non-theta-matrix", "egorov-entries-past-int64"])
def test_exit_codes_without_traceback(argv, want):
    proc = run_python(["-m", "qcatmap.cli", *argv])
    assert proc.returncode == want, proc.stderr
    assert "Traceback" not in proc.stderr
    if want == 2:
        assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("method, want", [("both", 2), ("direct", 2),
                                          ("closed", 0)])
def test_gauss_past_the_int64_bound(method, want):
    # the direct sum used to run 2*10^11 Python terms here; it now refuses
    # at once, and the closed form still answers
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "qcatmap.cli", "gauss", "--alpha", "1",
         "--beta", "100000000000", "--gamma", "1", "--method", method],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == want, proc.stderr
    assert "Traceback" not in proc.stderr
    if want == 2:
        assert proc.stderr.startswith("error: ") and "gauss_closed" in proc.stderr


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def test_out_of_memory_is_an_error_line(monkeypatch, capsys):
    # the gauss-oracle table at --max-beta 50000 is 100000 x 100000 int64
    # (74.5 GiB); the limit, set in the child only, makes its allocation fail
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "qcatmap.cli", "verify", "gauss-oracle",
         "--max-beta", "50000"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    # numpy says what it could not allocate
    assert proc.stderr.removeprefix("error: ").strip(), proc.stderr

    def out_of_memory(args):
        raise MemoryError()

    # a MemoryError without a message, as the interpreter raises, still
    # gets one
    monkeypatch.setattr(cli, "_cmd_decompose", out_of_memory)
    assert cli.main(["decompose", "--matrix", "1,0,2,1"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize("argv, want", [
    (["verify", "relations", "--samples", "2"], 2),
    (["verify", "gauss-oracle", "--samples", "2"], 2),
    (["verify", "hecke", "--samples", "2"], 2),
    (["verify", "gauss-oracle", "--dims", "3"], 2),
    (["verify", "h-identity", "--dims", "3"], 2),
    (["verify", "all", "--samples", "2", "--dims", "3"], 0),
    (["verify", "mult", "--max-beta", "3"], 2),
    (["verify", "hecke", "--max-beta", "3"], 2),
    (["verify", "relations", "--seed", "5", "--dims", "1..2"], 2),
    (["verify", "gauss-oracle", "--seed", "5"], 2),
    (["verify", "all", "--max-beta", "3"], 0),
], ids=["relations-samples", "gauss-oracle-samples", "hecke-samples",
        "gauss-oracle-dims", "h-identity-dims", "all-takes-both",
        "mult-max-beta", "hecke-max-beta", "relations-seed",
        "gauss-oracle-seed", "all-takes-max-beta"])
def test_verify_rejects_the_options_its_check_does_not_read(argv, want):
    # these used to be accepted and ignored: `verify relations --samples 2`
    # ran its 576 samples and exited 0, `verify mult --max-beta 3` its 500
    proc = run_python(["-m", "qcatmap.cli", *argv])
    assert proc.returncode == want, proc.stderr
    assert "Traceback" not in proc.stderr
    if want == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: verify {argv[1]} does not "
                                      f"read {argv[2]}")


def test_unitarity_failure_survives_optimize_flag():
    # python -O strips assert statements; the guard must still raise, and
    # the CLI must report it as a failed verification
    code = """
import sys
import numpy as np
from qcatmap import cli, propagator
from qcatmap.sl2 import Mat2
propagator._build_general = lambda m, n: np.ones((n, n), dtype=complex)
try:
    propagator.build(Mat2(2, 1, 3, 2), 3)
except propagator.UnitarityError:
    print("optimize", sys.flags.optimize, "raised")
sys.exit(cli.main(["propagator", "--matrix", "2,1,3,2", "--dim", "3"]))
"""
    proc = run_python(["-O"], code)
    assert proc.stdout.strip() == "optimize 1 raised"
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "not unitary" in proc.stderr
    assert "Traceback" not in proc.stderr


# every command that prints a verdict, on inputs whose errors are nonzero
VERDICT_ARGV = {
    **{f"verify-{name}": ["verify", name, "--samples", "3", "--dims", "1..4"]
       for name in suites.CHECKS},
    # these checks take no --samples
    "verify-relations": ["verify", "relations", "--dims", "1..4"],
    "verify-hecke": ["verify", "hecke", "--dims", "1..4"],
    # scalar checks need more draws than 3 for a nonzero error
    "verify-substitution": ["verify", "substitution"],
    "verify-h-identity": ["verify", "h-identity"],
    "verify-gauss-oracle": ["verify", "gauss-oracle", "--max-beta", "3"],
    "egorov": ["egorov", "--matrix", "2,1,3,2", "--dim", "6"],
    "egorov-mode": ["egorov", "--matrix", "2,1,3,2", "--dim", "6",
                    "--mode", "1,2"],
    "hecke": ["hecke", "--matrix", "2,1,3,2", "--dim", "3"],
    "gauss": ["gauss", "--alpha", "2", "--beta", "3", "--gamma", "0",
              "--method", "both"],
}


@pytest.mark.parametrize("argv", VERDICT_ARGV.values(), ids=VERDICT_ARGV)
def test_tiny_tolerance_scale_fails_every_check(capsys, argv):
    assert cli.main(argv) == 0
    assert cli.main([*argv, "--tolerance-scale", "1e-30"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "relations", "--dims", "1..3"],
    ["verify", "all", "--samples", "2", "--dims", "1..3", "--max-beta", "2"],
    VERDICT_ARGV["egorov"], VERDICT_ARGV["egorov-mode"], VERDICT_ARGV["hecke"],
], ids=["verify", "verify-all", "egorov", "egorov-mode", "hecke"])
def test_json_output_has_the_report_fields(capsys, argv):
    rc, out = run(capsys, [*argv, "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    reports = payload if argv[0] == "verify" else [payload]
    fields = [f.name for f in dataclasses.fields(Report)]
    assert reports and all(list(r) == fields for r in reports)


@pytest.mark.parametrize("argv", [
    ["propagator", "--matrix", "2,1,3,2", "--dim", "3", "--seed", "1"],
    ["propagator", "--matrix", "2,1,3,2", "--dim", "3", "--samples", "2"],
    ["propagator", "--matrix", "2,1,3,2", "--dim", "3", "--format", "json"],
    ["propagator", "--matrix", "2,1,3,2", "--dim", "3",
     "--tolerance-scale", "2"],
    ["decompose", "--matrix", "2,1,3,2", "--seed", "1"],
    ["decompose", "--matrix", "2,1,3,2", "--samples", "2"],
    ["decompose", "--matrix", "2,1,3,2", "--tolerance-scale", "2"],
    ["gauss", "--alpha", "2", "--beta", "3", "--gamma", "0", "--seed", "1"],
    ["gauss", "--alpha", "2", "--beta", "3", "--gamma", "0", "--samples", "2"],
    ["egorov", "--matrix", "2,1,3,2", "--dim", "3", "--seed", "1"],
    ["egorov", "--matrix", "2,1,3,2", "--dim", "3", "--samples", "2"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_flags_are_usage_errors(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert "Traceback" not in captured.err
