"""Command-line interface.

Every check prints one `Report`, as a text line or, with `--format json`,
as an object of its fields: `verify <check>` runs one entry of the check
registry `suites.CHECKS`, `verify all` runs every entry in table order
(a JSON list), and `egorov` and `hecke` check one matrix.  A subcommand
takes only the options it reads: `--format` on all but `propagator`,
which always prints JSON; `--tolerance-scale`, which multiplies every
tolerance and must be a finite number greater than 0, on `verify`,
`egorov`, `hecke` and `gauss --method both`; `--seed` and `--samples` on
`verify` and `hecke` (which reads `--seed` only with `--samples`).
`verify <check>` rejects the `--seed`, `--samples`, `--dims` or
`--max-beta` that its check does not read (`suites.CHECKS`, the one place
that says which it reads); `verify all` takes all four.

Exit codes: 0 on success, 1 when a verification ran but failed its
tolerance (including a propagator failing its unitarity check), 2 on
invalid input or when the run runs out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import gauss, hecke, suites, weyl
from .propagator import ExponentError, Report, UnitarityError, _drive, propagator_json
from .sl2 import Mat2, decompose, format_word


def _parse_dims(text: str) -> list[int]:
    """Dimension lists: "8", "1,2,4" or "1..16", every dimension >= 1."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            dims = list(range(int(lo), int(hi) + 1))
        elif "," in text:
            dims = [int(t) for t in text.split(",") if t.strip()]
        else:
            dims = [int(text)]
    except ValueError:
        dims = []
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"--dims {text!r} is not a list of dimensions >= 1; "
                         'use "8", "1,2,4" or "1..16"')
    return dims


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number greater than 0: {text!r}")
    return value


def _parse_mode(text: str) -> tuple[int, int]:
    try:
        n1, n2 = (int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f'--mode {text!r} is not a mode "n1,n2" of integers') from None
    return n1, n2


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(text)


def _report_line(rep: Report) -> str:
    status = "PASS" if rep.passed else "FAIL"
    line = (f"[{status}] {rep.name}: {rep.samples} samples, "
            f"max error {rep.max_error:.3e} (tol rate {rep.tol:.0e})")
    if rep.note:
        line += f" -- {rep.note}"
    return line


def _print_report(args, rep: Report) -> int:
    _emit(args, dataclasses.asdict(rep), _report_line(rep))
    return 0 if rep.passed else 1


def _cmd_propagator(args) -> int:
    m = Mat2.from_string(args.matrix)
    print(json.dumps(propagator_json(m, args.dim)))
    return 0


def _cmd_decompose(args) -> int:
    m = Mat2.from_string(args.matrix)
    word = decompose(m)
    payload = {"matrix": list(m.entries()), "word": word, "length": len(word)}
    _emit(args, payload, format_word(word) if word else "(identity)")
    return 0


def _cmd_gauss(args) -> int:
    if args.tolerance_scale is not None and args.method != "both":
        raise ValueError(f"gauss --method {args.method} compares nothing and "
                         "does not read --tolerance-scale")
    p = gauss.GaussParams(args.alpha, args.beta, args.gamma)
    payload = {"alpha": p.alpha, "beta": p.beta, "gamma": p.gamma,
               "nonvanishing": gauss.is_nonvanishing(p)}
    lines = []
    direct = closed = None
    if args.method in ("direct", "both"):
        direct = gauss.gauss_direct(p)
        payload["direct"] = [direct.real, direct.imag]
        lines.append(f"direct  {direct:.12g}")
    if args.method in ("closed", "both"):
        closed = gauss.gauss_closed(p)
        payload["closed"] = [closed.real, closed.imag]
        lines.append(f"closed  {closed:.12g}")
    rc = 0
    if direct is not None and closed is not None:
        diff = abs(direct - closed)
        payload["difference"] = diff
        lines.append(f"difference  {diff:.3e}")
        tol = suites.GAUSS_ORACLE_TOL * (args.tolerance_scale or 1.0)
        rc = 0 if diff < tol else 1
    _emit(args, payload, "\n".join(lines))
    return rc


def _cmd_egorov(args) -> int:
    m = Mat2.from_string(args.matrix)
    n = args.dim
    if args.mode is not None:
        rep = weyl.verify_egorov(m, n, {_parse_mode(args.mode): 1.0},
                                 tol_scale=args.tolerance_scale)
    else:
        # every mode in [0, N)^2 is one sample
        errs = weyl.egorov_mode_errors(m, n).ravel().tolist()
        rep = _drive("egorov", ((err, n) for err in errs), weyl.EGOROV_TOL,
                     tol_scale=args.tolerance_scale)
    return _print_report(args, rep)


def _cmd_hecke(args) -> int:
    if args.seed is not None and args.samples is None:
        raise ValueError("hecke lifts every member without --samples "
                         "and does not read --seed")
    m = Mat2.from_string(args.matrix)
    rep = hecke.verify_hecke(m, args.dim, samples=args.samples,
                             cap=args.max_4n, seed=args.seed or 0,
                             tol_scale=args.tolerance_scale)
    return _print_report(args, rep)


def _cmd_verify(args) -> int:
    given = {option: getattr(args, option) for option in VERIFY_OPTIONS
             if getattr(args, option) is not None}
    for option in given:
        if args.what != "all" and option not in suites.CHECKS[args.what][1]:
            flag = option.replace("_", "-")
            raise ValueError(f"verify {args.what} does not read --{flag}")
    if "dims" in given:
        given["dims"] = _parse_dims(given["dims"])
    names = suites.CHECKS if args.what == "all" else [args.what]
    reports = [suites.run_check(name, given, args.tolerance_scale)
               for name in names]
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(r) for r in reports]))
    else:
        for rep in reports:
            print(_report_line(rep))
    return 0 if all(r.passed for r in reports) else 1


VERIFY_CHOICES = (*suites.CHECKS, "all")
# every option that some check reads, in the order of first use in the table
VERIFY_OPTIONS = tuple(dict.fromkeys(
    option for _, params in suites.CHECKS.values() for option in params))


def _read_by(option: str) -> str:
    """Help clause naming the checks that read a verify option."""
    return "; read by " + ", ".join(
        name for name, (_, params) in suites.CHECKS.items() if option in params)


def build_parser() -> argparse.ArgumentParser:
    # nested option groups: printed, then checked
    printed = argparse.ArgumentParser(add_help=False)
    printed.add_argument("--format", choices=("text", "json"), default="text")
    tolerance = {"type": _positive_float,
                 "help": "multiply every tolerance by this factor"}
    checked = argparse.ArgumentParser(add_help=False, parents=[printed])
    checked.add_argument("--tolerance-scale", default=1.0, **tolerance)
    seed_help = "seed for the pseudorandom samples (default 0)"

    parser = argparse.ArgumentParser(
        prog="qcatmap",
        description="quantized cat maps: propagators, Gauss sums and "
                    "their exact identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagator",
                       help="build a propagator and print it as JSON")
    p.add_argument("--matrix", required=True, help='entries "a,b,c,d"')
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_propagator)

    p = sub.add_parser("decompose", parents=[printed],
                       help="write a matrix as a word in the generators")
    p.add_argument("--matrix", required=True, help='entries "a,b,c,d"')
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("gauss", parents=[printed],
                       help="evaluate a quadratic exponential sum")
    # None, so that a method comparing nothing can reject a given scale
    p.add_argument("--tolerance-scale", default=None, **tolerance)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--method", choices=("closed", "direct", "both"),
                   default="both")
    p.set_defaults(func=_cmd_gauss)

    p = sub.add_parser("egorov", parents=[checked],
                       help="check exact conjugation of Weyl modes")
    p.add_argument("--matrix", required=True, help='entries "a,b,c,d"')
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--mode", default=None, help='mode "n1,n2" (default: all)')
    p.set_defaults(func=_cmd_egorov)

    p = sub.add_parser("hecke", parents=[checked],
                       help="lift a commuting family and check it")
    p.add_argument("--matrix", required=True, help='entries "a,b,c,d"')
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--samples", type=_positive_int, default=None,
                   help="lift a seeded subset of this many members (default all)")
    # None, so that a run lifting every member can reject a given seed
    p.add_argument("--seed", type=int, default=None,
                   help=seed_help + "; read only with --samples")
    p.add_argument("--max-4n", dest="max_4n", type=int, default=64,
                   help="refuse the commutant enumeration, (4N)^3 steps plus "
                        "one per member, when 4N exceeds this (default 64)")
    p.set_defaults(func=_cmd_hecke)

    p = sub.add_parser("verify", parents=[checked],
                       help="run a verification sweep")
    p.add_argument("what", choices=VERIFY_CHOICES)
    p.add_argument("--samples", type=_positive_int, default=None,
                   help="number of samples (default depends on the check)"
                        + _read_by("samples"))
    # None, so that a check drawing nothing can reject a given seed
    p.add_argument("--seed", type=int, default=None,
                   help=seed_help + _read_by("seed"))
    p.add_argument("--dims", default=None,
                   help='dimensions: "8", "1,2,4" or "1..16"; relations runs '
                        'every listed N, hecke every N up to min(max, 8), '
                        'the sampling checks draw N up to the maximum'
                        + _read_by("dims"))
    p.add_argument("--max-beta", dest="max_beta", type=int, default=None,
                   help="parameter box for the Gauss-sum oracle sweep "
                        "(default 40)" + _read_by("max_beta"))
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (UnitarityError, ExponentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
