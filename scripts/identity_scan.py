#!/usr/bin/env python3
"""Timing scan of the exact polynomial identity checks.

Runs the closed-form checks (full, descent-refined, and the word base
case) over every size split up to a bound and prints pass/fail with
timings per total length.

    python scripts/identity_scan.py --max-total 10
"""

import argparse
import sys
import time

from shufbij.verify import DEFAULT_CLASS_LIMIT, check_identity


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--max-total", type=int, default=DEFAULT_CLASS_LIMIT,
        help="largest m+n (default: the library's bound for descent statistics, %(default)s)",
    )
    args = ap.parse_args()

    exit_code = 0
    for total in range(args.max_total + 1):
        started = time.perf_counter()
        verdicts = []
        for which in ("maj", "maj_des", "word_base"):
            for m in range(total + 1):
                report = check_identity(which, m, total - m, limit=args.max_total)
                if not report.passed:
                    verdicts.append(f"{which} FAILS at m={m}")
                    exit_code = 1
        elapsed = time.perf_counter() - started
        status = "; ".join(verdicts) if verdicts else "all identities hold"
        print(f"m+n = {total}: {status} ({elapsed:.2f}s)")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
