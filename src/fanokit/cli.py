"""The `fanokit` command line.

Subcommands mirror the library surface: catalog, volume, lct,
filtration, beta, ding, verify-bound, scan, test-acceptance.  Every
rational printed to the terminal shows the exact fraction first and a
12-place decimal in parentheses; report files carry both forms.

Exit codes for the stability subcommands: 0 when everything checked out,
2 when an obstruction was found, 1 on configuration or computational
failure, usage errors on the command line included.  test-acceptance
exits 0 only when all nine criteria pass.
The one file a subcommand writes (--out, --report or --profile-csv, all
parsed into args.out) is checked after parsing, before any work.
"""

from __future__ import annotations

import argparse
import os
import sys

from .acceptance import run_acceptance_suite_timed
from .config import resolve_model, resolve_sequence, resolve_subscheme
from .errors import ConfigError, FanokitError
from .filtration import DEFAULT_R_LIST, compute_d_infty, ideal_power_filtration
from .lct import lct_monomial, lct_on_product_with_line
from .model import CATALOG_RAYS, anticanonical_volume, catalog_model
from .reportio import (dump_report, dumps_report, format_rational,
                       decimal_string, model_to_dict, parse_rational,
                       write_profile_csv)
from .stability import (beta, ding_invariant, semistability_scan,
                        verify_volume_bound)
from .subscheme import standard_battery
from .volumes import blowup_volume_profile


def _show(value) -> str:
    return f"{format_rational(value)} ({decimal_string(value)})"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _r_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad r list {text!r}")
    if not values or any(r < 1 for r in values):
        raise argparse.ArgumentTypeError(f"bad r list {text!r}")
    return values


def _add_model(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", required=True, metavar="NAME|FILE",
        help=f"catalog name ({', '.join(sorted(CATALOG_RAYS))}) "
             f"or a model JSON file")


def _check_output(path: str | None) -> None:
    """Refuse an output path that cannot be written: its directory
    missing or unwritable, or the path itself a directory."""
    if not path:
        return
    if os.path.isdir(path):
        raise ConfigError(f"output path {path!r} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ConfigError(f"output path {path!r} is not writable")


def _write_if_requested(payload, path: str | None) -> None:
    if path:
        dump_report(payload, path)
        print(f"report written to {path}")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_catalog(args) -> int:
    models = {name: catalog_model(name) for name in sorted(CATALOG_RAYS)}
    if args.json:
        print(dumps_report({name: model_to_dict(X)
                            for name, X in models.items()}), end="")
        return 0
    for name, X in models.items():
        vol = anticanonical_volume(X)
        print(f"{name:7s} dim={X.dimension} r0={X.r0} "
              f"volume={_show(vol)} rays={list(X.rays)}")
    return 0


def _cmd_volume(args) -> int:
    X = resolve_model(args.model)
    vol = anticanonical_volume(X)
    print(f"anticanonical volume: {_show(vol)}")
    if args.subscheme is None:
        if args.out:
            raise ConfigError("--profile-csv needs --subscheme")
        return 0
    Z = resolve_subscheme(X, args.subscheme)
    profile = blowup_volume_profile(X, Z)
    print(f"profile for {Z.label}: tau = {_show(profile.domain[1])}, "
          f"integral = {_show(profile.integrate(*profile.domain))}")
    if args.out:
        write_profile_csv(profile, args.out)
        print(f"profile pieces written to {args.out}")
    return 0


def _cmd_lct(args) -> int:
    X = resolve_model(args.model)
    if args.product_line:
        if args.c1 is None:
            raise ConfigError("--product-line needs --c1 a/b")
        S = resolve_sequence(X, args.subscheme)
        value = lct_on_product_with_line(X, S, parse_rational(args.c1))
        print(f"product-line threshold: {_show(value)}")
        return 0
    Z = resolve_subscheme(X, args.subscheme)
    value = lct_monomial(X, Z, power=args.power)
    print(f"lct = {_show(value)}")
    return 0


def _cmd_filtration(args) -> int:
    X = resolve_model(args.model)
    Z = resolve_subscheme(X, args.subscheme)
    F = ideal_power_filtration(X, Z)
    report = compute_d_infty(F, r_list=args.rlist)
    print(f"r1 = {report.r1}; window ({report.e_minus}, {report.e_plus})")
    for r, d_r in report.d_samples:
        print(f"d_{r} = {_show(d_r)}")
    print(f"d_infty = {_show(report.d_infty)}")
    _write_if_requested({"model": X.name or "model", "subscheme": Z.label,
                         "d_infty": report}, args.out)
    return 0


def _cmd_beta(args) -> int:
    X = resolve_model(args.model)
    Z = resolve_subscheme(X, args.subscheme)
    report = beta(X, Z)
    print(f"lct = {_show(report.lct_value)}; "
          f"integral = {_show(report.volume_integral)}")
    print(f"beta({Z.label}) = {_show(report.beta)}: {report.verdict}")
    _write_if_requested(report, args.out)
    return 0 if report.beta >= 0 else 2


def _cmd_ding(args) -> int:
    X = resolve_model(args.model)
    S = resolve_sequence(X, args.sequence)
    report = ding_invariant(X, S, args.r)
    print(f"M = {report.M}, L_top = {_show(report.L_power_top)}, "
          f"d = {_show(report.d)}, threshold = {_show(report.lct_product)}")
    print(f"ding = {_show(report.ding)}")
    _write_if_requested({"model": X.name or "model", "ding": report}, args.out)
    return 0 if report.ding >= 0 else 2


def _cmd_verify_bound(args) -> int:
    X = resolve_model(args.model)
    result = verify_volume_bound(X)
    status = "within" if result.satisfied else "EXCEEDS"
    print(f"volume {_show(result.volume)} {status} bound "
          f"{_show(result.bound)}")
    if result.seshadri_check is not None:
        for idx, eps in result.seshadri_check:
            print(f"seshadri at chart {idx}: {_show(eps)}")
    _write_if_requested({"model": X.name or "model", "bound": result},
                        args.out)
    return 0 if result.satisfied else 2


def _cmd_scan(args) -> int:
    X = resolve_model(args.model)
    if args.subscheme:
        candidates = [resolve_subscheme(X, source) for source in args.subscheme]
    else:
        candidates = standard_battery(X)
    report = semistability_scan(X, candidates)
    for entry in report.entries:
        if entry.error is not None:
            print(f"{entry.subscheme}: FAILED ({entry.error})")
        else:
            print(f"{entry.subscheme}: beta = {_show(entry.report.beta)} "
                  f"{entry.report.verdict}")
    _write_if_requested(report, args.out)
    if report.obstructed:
        return 2
    return 1 if report.failures else 0


def _cmd_test_acceptance(args) -> int:
    summary, timings = run_acceptance_suite_timed()
    for result in summary.results:
        flag = "PASS" if result.passed else "FAIL"
        print(f"{flag} {result.number} {result.name}: {result.detail} "
              f"[{timings[result.number]:.2f}s]")
    print(f"{'all criteria passed' if summary.passed else 'FAILURES above'}")
    _write_if_requested(summary.report(), args.out)
    return summary.exit_code


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which here would read as an
    obstruction: report it as the configuration failure it is."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fanokit",
        description="Exact stability-theoretic invariants of toric Fano "
                    "models: volumes, thresholds, filtrations, beta and "
                    "Ding evaluations.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("catalog", help="list built-in models")
    p.add_argument("--json", action="store_true",
                   help="emit the catalog as model JSON")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("volume", help="anticanonical volume and blowup "
                                      "volume profile")
    _add_model(p)
    p.add_argument("--subscheme", metavar="FILE|SHORTHAND",
                   help="subscheme JSON file or point@IDX / point2@IDX / "
                        "divisor@i,j shorthand")
    p.add_argument("--profile-csv", dest="out", metavar="OUT",
                   help="write profile breakpoints and coefficients as CSV")
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("lct", help="log canonical thresholds")
    _add_model(p)
    p.add_argument("--subscheme", required=True, metavar="FILE|SHORTHAND",
                   help="subscheme source; with --product-line, a sequence "
                        "JSON file or trivial@M / dnc@IDX shorthand")
    p.add_argument("--power", type=_positive_int, default=1, metavar="M",
                   help="threshold of the M-th power (default 1)")
    p.add_argument("--product-line", action="store_true",
                   help="threshold over X x A^1 for an ideal sequence")
    p.add_argument("--c1", metavar="A/B",
                   help="coefficient on the sequence ideal (product-line "
                        "mode only)")
    p.set_defaults(func=_cmd_lct)

    p = sub.add_parser("filtration", help="d_infty report of an ideal-power "
                                          "filtration")
    _add_model(p)
    p.add_argument("--subscheme", required=True, metavar="FILE|SHORTHAND")
    p.add_argument("--rlist", type=_r_list, default=DEFAULT_R_LIST,
                   metavar="R1,R2,...", help="levels to sample (default "
                   f"{','.join(map(str, DEFAULT_R_LIST))})")
    p.add_argument("--report", dest="out", required=True, metavar="OUT.json",
                   help="write the full report as JSON")
    p.set_defaults(func=_cmd_filtration)

    p = sub.add_parser("beta", help="threshold-versus-volume invariant of "
                                    "one subscheme")
    _add_model(p)
    p.add_argument("--subscheme", required=True, metavar="FILE|SHORTHAND")
    p.add_argument("--out", metavar="OUT.json", help="write the report")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("ding", help="Ding invariant of an ideal sequence")
    _add_model(p)
    p.add_argument("--sequence", required=True, metavar="FILE|SHORTHAND",
                   help="sequence JSON file or trivial@M / dnc@IDX shorthand")
    p.add_argument("--r", type=_positive_int, default=1, metavar="R",
                   help="polarisation level (default 1)")
    p.add_argument("--out", metavar="OUT.json", help="write the report")
    p.set_defaults(func=_cmd_ding)

    p = sub.add_parser("verify-bound", help="check the (n+1)^n volume bound")
    _add_model(p)
    p.add_argument("--out", metavar="OUT.json", help="write the report")
    p.set_defaults(func=_cmd_verify_bound)

    p = sub.add_parser("scan", help="beta over a battery of candidate "
                                    "subschemes")
    _add_model(p)
    p.add_argument("--subscheme", action="append", metavar="FILE|SHORTHAND",
                   help="candidate (repeatable); default is the standard "
                        "battery")
    p.add_argument("--out", metavar="OUT.json", help="write the report")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("test-acceptance", help="run the nine acceptance "
                                               "criteria")
    p.add_argument("--out", metavar="OUT.json", help="write the summary")
    p.set_defaults(func=_cmd_test_acceptance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help()
            return 1
        _check_output(getattr(args, "out", None))
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FanokitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
