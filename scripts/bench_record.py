"""Collect two perfbench result sets into one ``BENCH_<label>.json``.

Run the benchmark in both checkouts first, from each checkout's root:

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload cli --trace 1

then, from this checkout's root:

    python scripts/bench_record.py --parent ../parent-checkout --label class_dp

``--traced replay`` reads the per-layer run of ``--workload replay --trace
1`` instead of ``cli``'s.  The file holds both runs' result files
(``.bench_out/result-*.json``) and, per metric, the parent's value, the
change's and the relative change.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def load(root: Path, traced: str) -> dict:
    """The result files of the two commands, at run.py's default seed."""
    files = {"all": "result-all-seed1-trace0.json",
             f"{traced}_trace": f"result-{traced}-seed1-trace1.json"}
    return {name: json.loads((root / ".bench_out" / file).read_text())
            for name, file in files.items()}


def metrics(result_file: dict) -> dict:
    """Metric values per workload of one result file."""
    return {
        result["workload"]: {k: v["value"] for k, v in result["metrics"].items()}
        for result in result_file["results"]
    }


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
    parser.add_argument("--traced", default="cli",
                        help="workload of the per-layer run (default: %(default)s)")
    args = parser.parse_args()
    traced = f"{args.traced}_trace"
    parent, change = load(args.parent, args.traced), load(Path("."), args.traced)
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps({
        "label": args.label,
        "commands": [
            "python3 perfbench/run.py --workload all",
            f"python3 perfbench/run.py --workload {args.traced} --trace 1",
        ],
        "end_to_end": compare(metrics(parent["all"]), metrics(change["all"])),
        "per_layer": compare(metrics(parent[traced]), metrics(change[traced])),
        "parent": parent,
        "change": change,
    }, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
