"""Command-line front end.

Subcommands: stat, shuffles, dist, genpoly, reduce, verify, identity,
counterexample, conjecture.  Output is human-readable text by default;
``--format json`` emits the documented machine serializations.  Exit
codes: 0 success, 1 a verification reported failure, 2 usage error or a
size bound refusal.  The verification commands share one ``--limit``,
whose default is m+n <= 10 for a descent statistic and 6 with inv;
SHUFBIJ_MAX_TOTAL overrides it for all of them but counterexample, and
the bound of m+n <= 20 on shuffles, dist and genpoly.  A command imports
``verify``, ``reduce``, ``traces``, ``qpoly`` or ``json`` only when it runs
them; a scan loads no ``reduce`` or ``traces``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    DEFAULT_CLASS_LIMIT,
    DEFAULT_ENUM_LIMIT,
    DEFAULT_SHUFFLE_LIMIT,
    DomainOverlapError,
    ResourceLimitError,
    _gate,
    _resolve_limit,
)
from .perm import format_perm, parse_perm
from .shuffle import iter_shuffles, shuffle_distribution
from .stats import (
    distribution_entries,
    distribution_to_json,
    evaluate,
    format_stat,
    format_stat_value,
    parse_stat,
)

USAGE_ERROR = 2
VERIFY_FAIL = 1


def _parse_pair(pi_text: str, sigma_text: str):
    # Overlapping domains are refused by iter_shuffles, shuffle_distribution
    # and normalize_pair before anything is printed.
    return parse_perm(pi_text), parse_perm(sigma_text)


def _bounded_pair(args):
    """The operands of a command over their shuffle set, refused before any
    output when m+n exceeds the size bound."""
    pi, sigma = _parse_pair(args.pi, args.sigma)
    limit = _resolve_limit(None, DEFAULT_SHUFFLE_LIMIT)
    _gate(len(pi), len(sigma), limit, args.command, how="set SHUFBIJ_MAX_TOTAL")
    return pi, sigma


def _trace_lines(trace) -> list[str]:
    lines = [
        f"start: pi = {format_perm(trace.start_pi)} | sigma = {format_perm(trace.start_sigma)}"
        f"  (measure {trace.start_measure})"
    ]
    for idx, step in enumerate(trace.steps, start=1):
        params = "".join(f" {k}={v}" for k, v in sorted(step.params.items()))
        lines.append(
            f"  {idx}. {step.kind}{params}: "
            f"({format_perm(step.target_pi)} | {format_perm(step.target_sigma)})"
            f"  measure {step.measure_after}"
        )
    if not trace.steps:
        lines.append("  (no steps; already canonical)")
    return lines


def _print_json(value, indent=None) -> None:
    import json
    print(json.dumps(value, indent=indent))


def _emit_report(report, fmt: str) -> int:
    from .verify import format_report

    if fmt == "json":
        _print_json(report.to_json(), indent=2)
    else:
        print(format_report(report))
    return 0 if report.passed else VERIFY_FAIL


def _cmd_stat(args) -> int:
    stat = parse_stat(args.statistic)
    pi = parse_perm(args.perm)
    value = evaluate(stat, pi)
    if args.format == "json":
        _print_json({
            "statistic": format_stat(stat),
            "perm": format_perm(pi),
            "value": format_stat_value(value),
        })
    else:
        print(format_stat_value(value))
    return 0


def _cmd_shuffles(args) -> int:
    pi, sigma = _bounded_pair(args)
    if args.format == "json":
        _print_json({
            "pi": format_perm(pi),
            "sigma": format_perm(sigma),
            "shuffles": [format_perm(t) for t in iter_shuffles(pi, sigma)],
        })
    else:
        for tau in iter_shuffles(pi, sigma):
            print(format_perm(tau))
    return 0


def _cmd_dist(args) -> int:
    stat = parse_stat(args.statistic)
    pi, sigma = _bounded_pair(args)
    dist = shuffle_distribution(stat, pi, sigma)
    if args.format == "json":
        _print_json({
            "statistic": format_stat(stat),
            "pi": format_perm(pi),
            "sigma": format_perm(sigma),
            "distribution": distribution_to_json(dist),
        })
    else:
        body = ", ".join(f"{v}:{c}" for v, c in distribution_entries(dist))
        print("{" + body + "}")
    return 0


def _cmd_genpoly(args) -> int:
    from .qpoly import check_integer_stat, distribution_poly, format_coeffs, format_pretty

    stat = parse_stat(args.statistic)
    pi, sigma = _bounded_pair(args)
    check_integer_stat(stat)
    poly = distribution_poly(shuffle_distribution(stat, pi, sigma))
    if args.format == "json":
        _print_json({"coefficients": list(poly)})
    else:
        print(format_pretty(poly), " ", format_coeffs(poly))
    return 0


def _cmd_reduce(args) -> int:
    from .reduce import SUPPORTED_STATS, canonicalize
    from .traces import normalize_pair

    stat = parse_stat(args.statistic)
    if stat not in SUPPORTED_STATS:
        print(f"error: no reduction pipeline for {format_stat(stat)}", file=sys.stderr)
        return USAGE_ERROR
    pi, sigma = _parse_pair(args.pi, args.sigma)
    norm_pi, norm_sigma, norm_trace = normalize_pair(pi, sigma, "pi_low")
    _, trace = canonicalize(stat, norm_pi, norm_sigma)
    if args.format == "json":
        _print_json({
            "normalize_trace": norm_trace.to_json(),
            "reduction_trace": trace.to_json(),
            "canonical": {
                "pi": format_perm(trace.final_pi),
                "sigma": format_perm(trace.final_sigma),
            },
        }, indent=2)
    else:
        print("normalization:")
        for line in _trace_lines(norm_trace):
            print(line)
        print(f"reduction ({format_stat(stat)}):")
        for line in _trace_lines(trace):
            print(line)
        print(
            f"canonical pair: pi = {format_perm(trace.final_pi)} | "
            f"sigma = {format_perm(trace.final_sigma)}"
        )
    return 0


def _cmd_verify(args) -> int:
    from .verify import check_compatibility

    stat = parse_stat(args.statistic)
    report = check_compatibility(stat, args.m, args.n, mode=args.mode, limit=args.limit)
    return _emit_report(report, args.format)


def _cmd_identity(args) -> int:
    from .verify import check_identity

    report = check_identity(args.which, args.m, args.n, limit=args.limit)
    return _emit_report(report, args.format)


def _cmd_counterexample(args) -> int:
    from .verify import find_counterexample

    stat = parse_stat(args.statistic)
    report = find_counterexample(stat, args.max, limit=args.limit)
    return _emit_report(report, args.format)


def _cmd_conjecture(args) -> int:
    from .verify import check_conjecture_udr_pk_des

    if args.which != "udr-pk-des":
        print(f"error: unknown conjecture {args.which!r}", file=sys.stderr)
        return USAGE_ERROR
    report = check_conjecture_udr_pk_des(args.m, args.n, limit=args.limit)
    return _emit_report(report, args.format)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    bounded = argparse.ArgumentParser(add_help=False, parents=[common])
    bounded.add_argument("--limit", type=int, default=None, help="override the size bound "
                         f"(default {DEFAULT_CLASS_LIMIT}, or {DEFAULT_ENUM_LIMIT} with inv)")
    parser = argparse.ArgumentParser(
        prog="shufbij",
        description="permutation statistics, shuffle sets, and shuffle-compatibility checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stat", parents=[common], help="evaluate a statistic")
    p.add_argument("statistic")
    p.add_argument("perm", help='comma-separated, e.g. "2,1,5,7,3,6,4"')
    p.set_defaults(func=_cmd_stat)

    p = sub.add_parser("shuffles", parents=[common], help="list a shuffle set")
    p.add_argument("pi")
    p.add_argument("sigma")
    p.set_defaults(func=_cmd_shuffles)

    p = sub.add_parser("dist", parents=[common], help="statistic distribution over a shuffle set")
    p.add_argument("statistic")
    p.add_argument("pi")
    p.add_argument("sigma")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("genpoly", parents=[common],
                       help="generating polynomial of an integer statistic over a shuffle set")
    p.add_argument("statistic")
    p.add_argument("pi")
    p.add_argument("sigma")
    p.set_defaults(func=_cmd_genpoly)

    p = sub.add_parser("reduce", parents=[common],
                       help="normalize a pair and reduce it to canonical form")
    p.add_argument("statistic")
    p.add_argument("pi")
    p.add_argument("sigma")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", parents=[bounded], help="compatibility sweep")
    p.add_argument("statistic")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("reduced_pi", "reduced_sigma", "full"),
                   default="reduced_pi")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("identity", parents=[bounded], help="polynomial identity check")
    p.add_argument("which", choices=("maj", "maj_des", "word_base"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("counterexample", parents=[bounded],
                       help="search for a compatibility counterexample")
    p.add_argument("statistic")
    p.add_argument("--max", type=int, required=True, help="largest m+n to scan")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("conjecture", parents=[bounded], help="empirical conjecture sweep")
    p.add_argument("which", help="only udr-pk-des is known")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (DomainOverlapError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
