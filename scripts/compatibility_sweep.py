#!/usr/bin/env python3
"""Sweep the whole statistic catalog for shuffle compatibility.

Runs both reduced modes for every descent statistic of the table in
``shufbij.stats`` and for its catalog tuples (maj,des), (udr,pk),
(udr,pk,des) and (biruns,des), over all size splits up to a bound, and
prints one verdict per statistic.  biruns and (biruns,des) are not
compatible and are expected to fail; everything else should pass.

    python scripts/compatibility_sweep.py --max-total 10
"""

import argparse
import sys
import time

from shufbij.stats import CATALOG_TUPLES, DESCENT_NAMES, format_stat
from shufbij.verify import DEFAULT_CLASS_LIMIT, check_compatibility


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--max-total", type=int, default=DEFAULT_CLASS_LIMIT,
        help="largest m+n (default: the library's bound for descent statistics, %(default)s)",
    )
    args = ap.parse_args()

    exit_code = 0
    for stat in (*DESCENT_NAMES, *CATALOG_TUPLES):
        started = time.perf_counter()
        verdict = "compatible"
        witness_at = None
        cases = 0
        for total in range(args.max_total + 1):
            for m in range(total + 1):
                for mode in ("reduced_pi", "reduced_sigma"):
                    report = check_compatibility(
                        stat, m, total - m, mode=mode, limit=args.max_total
                    )
                    cases += report.cases_checked
                    if not report.passed:
                        verdict = "NOT compatible"
                        witness_at = (m, total - m, mode)
                        break
                if witness_at:
                    break
            if witness_at:
                break
        elapsed = time.perf_counter() - started
        where = f"  witness at |pi|={witness_at[0]}, |sigma|={witness_at[1]}" if witness_at else ""
        print(f"{format_stat(stat):>14}: {verdict:<16} ({cases} cases, {elapsed:.1f}s){where}")
        if witness_at and stat not in ("biruns", ("biruns", "des")):
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
