"""Command-line entry point.

Subcommands: ``sim sweep --config <file> [--out <csv>] [--workers N]``,
``sim report --in <csv> [--observable <name>]``, and
``sim compare <csv>... [--reference <method>]``.  The exit code is 0 only
when no row involved carries a flag; flagged rows give 1 and bad inputs 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import RunConfig, compare, read_rows, report_all, sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Sweep, diagnose, and compare circuit-expectation engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a config's full parameter grid")
    p_sweep.add_argument("--config", required=True, help="JSON config file")
    p_sweep.add_argument(
        "--out", default=None, help="output CSV (default: config path with .csv)"
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes running angles at once (1: run them in this process)",
    )

    p_report = sub.add_parser("report", help="convergence diagnostics for a CSV")
    p_report.add_argument("--in", dest="in_path", required=True, help="sweep CSV")
    p_report.add_argument(
        "--observable", default=None, help="observable label echoed in the output"
    )

    p_compare = sub.add_parser("compare", help="cross-method spread over CSVs")
    p_compare.add_argument("csvs", nargs="+", help="sweep CSVs, one method each")
    p_compare.add_argument(
        "--reference", default=None, help="method name to measure errors against"
    )
    return parser


def _cmd_sweep(args) -> int:
    config = RunConfig.from_file(args.config)
    out = args.out if args.out is not None else str(Path(args.config).with_suffix(".csv"))
    rows = sweep(config, out=out, workers=args.workers)
    flagged = [r for r in rows if r.flagged]
    print(f"{len(rows)} rows -> {out}")
    if flagged:
        print(f"{len(flagged)} flagged rows:")
        for row in flagged:
            print(
                f"  theta_h={row.theta_h:.6f} {row.param_name}={row.param_value}"
                f" flags={row.flags}"
            )
        return 1
    return 0


def _cmd_report(args) -> int:
    rows = read_rows(args.in_path)
    if args.observable is not None:
        print(f"observable: {args.observable}")
    for rep in report_all(rows):
        print(rep.format())
    return 1 if any(r.flagged for r in rows) else 0


def _cmd_compare(args) -> int:
    tables = {}
    flagged = False
    for path in args.csvs:
        rows = read_rows(path)
        flagged = flagged or any(r.flagged for r in rows)
        by_method: dict[str, list] = {}
        for row in rows:
            by_method.setdefault(row.method, []).append(row)
        for method, mrows in by_method.items():
            if method in tables:
                raise ValueError(f"method {method!r} appears in more than one CSV")
            tables[method] = mrows
    report = compare(tables, reference=args.reference)
    print(report.format())
    return 1 if flagged else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_compare(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
