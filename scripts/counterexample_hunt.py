#!/usr/bin/env python3
"""Hunt for shuffle-compatibility counterexamples by full enumeration.

For each named statistic, scans all domain splittings in increasing total
length and prints the first witness found, or a pass-within-scope line.
Exits 1 when a witness does not re-verify from scratch.

    python scripts/counterexample_hunt.py inv biruns maj
"""

import argparse
import sys

from shufbij.stats import parse_stat
from shufbij.verify import default_limit, find_counterexample, format_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("statistics", nargs="+", help="statistic names, e.g. inv biruns maj")
    ap.add_argument(
        "--max-total", type=int,
        help="largest m+n to scan (default: the library's bound for each statistic, "
        "10, or 6 with inv)",
    )
    args = ap.parse_args()

    exit_code = 0
    for name in args.statistics:
        stat = parse_stat(name)
        top = default_limit(stat) if args.max_total is None else args.max_total
        report = find_counterexample(stat, top)
        print(format_report(report))
        if not report.passed:
            reverifies = report.witness.recheck()
            print(f"  witness re-verifies: {reverifies}")
            if not reverifies:
                exit_code = 1
        print()
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
