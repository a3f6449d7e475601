"""Summarize perfbench runs of two checkouts in one ``BENCH_<label>.json``.

Run the benchmark in both checkouts first, from each checkout's root,
alternating between the checkouts run by run:

    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload cli --trace 1

then, from this checkout's root:

    python scripts/bench_record.py --parent ../parent-checkout --label class_dp

``--runs WORKLOAD SEED...`` names the untraced runs to read, as
``.bench_out/result-WORKLOAD-seedSEED-trace0.json`` in each checkout; it
may repeat, and defaults to ``--runs all 1``.  ``--traced replay`` reads
the per-layer run of ``--workload replay --trace 1`` instead of ``cli``'s.

The file holds each side's environment, each side's end-to-end metrics run
by run, and per metric the medians of both sides, the relative change, the
pairs of runs (the n-th run of each side) in which the change is better,
and the parent's interquartile range; then the per-layer metrics of both
traced runs, compared alike.  Runs and comparisons are keyed first by the
workload the command ran (``replay``, ``all``, ...), then by the workload
of the result, so a ``--workload all`` run never pools with runs of its
workloads alone.  It does not copy the result files: the commands it
lists regenerate them.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def result(root: Path, workload: str, seed: int, trace: int) -> dict:
    return json.loads((root / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json")
                      .read_text())


def side(root: Path, runs: list, traced: str) -> dict:
    """One checkout's environment, its metric values per command workload
    and result workload as lists over the runs, and its traced run's metrics."""
    env, values = None, {}
    for workload, seed in runs:
        data = result(root, workload, seed, 0)
        env = env or {k: v for k, v in data["environment"].items() if k != "seed"}
        for res in data["results"]:
            per_metric = values.setdefault(workload, {}).setdefault(
                res["workload"], {"correct": []})
            per_metric["correct"].append(res["correct"])
            for k, v in res["metrics"].items():
                per_metric.setdefault(k, []).append(v["value"])
    traced_run = result(root, traced, 1, 1)["results"]
    return {"environment": env, "runs": values,
            "per_layer": {r["workload"]: {k: v["value"] for k, v in r["metrics"].items()}
                          for r in traced_run}}


def iqr(values: list):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare_runs(parent: dict, change: dict, better: dict) -> dict:
    """Per workload and metric: both medians, the relative change, the pairs
    the change wins (in the metric's better direction) and the parent's IQR."""
    out = {}
    for workload, metrics in parent.items():
        for k, before in metrics.items():
            if k == "correct":
                continue
            after = change[workload][k]
            sign = 1 if better.get(k, "lower") == "lower" else -1
            p, c = statistics.median(before), statistics.median(after)
            out.setdefault(workload, {})[k] = {
                "parent": p, "change": c, "relative": c / p - 1 if p else None,
                "change_better": sum(sign * (b - a) > 0 for a, b in zip(after, before)),
                "pairs": min(len(before), len(after)), "parent_iqr": iqr(before),
            }
    return out


def compare(before: dict, after: dict) -> dict:
    """Parent value, change value and relative change, per workload and metric."""
    return {
        workload: {
            k: {"parent": v, "change": after[workload][k],
                "relative": after[workload][k] / v - 1 if v else None}
            for k, v in values.items()
        }
        for workload, values in before.items()
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", nargs="+", action="append", metavar="WORKLOAD SEED",
                        help="a workload and the seeds of its untraced runs (default: all 1)")
    parser.add_argument("--traced", default="cli",
                        help="workload of the per-layer run (default: %(default)s)")
    args = parser.parse_args()
    runs = [(group[0], int(seed)) for group in args.runs or [["all", "1"]] for seed in group[1:]]
    better = {m["name"]: m["better"] for m in json.loads(Path("BENCHMARK.json").read_text())
              .get("end_to_end", [])}
    parent, change = side(args.parent, runs, args.traced), side(Path("."), runs, args.traced)
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps({
        "label": args.label,
        "commands": [
            *(f"python3 perfbench/run.py --workload {w} --seed {s}" for w, s in runs),
            f"python3 perfbench/run.py --workload {args.traced} --trace 1",
        ],
        "environment": {"parent": parent["environment"], "change": change["environment"]},
        "runs": {"parent": parent["runs"], "change": change["runs"]},
        "end_to_end": {group: compare_runs(runs, change["runs"][group], better)
                       for group, runs in parent["runs"].items()},
        "per_layer": compare(parent["per_layer"], change["per_layer"]),
    }, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
