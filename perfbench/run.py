"""shufbij benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  With ``--trace 0`` it measures the
end-to-end metrics: set-up time over several fresh worker processes, then
one worker running whole passes over the workload's job list.  With
``--trace 1`` it prints the per-layer metrics of a traced worker instead.
Every job's output is checked against ``expected.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
A copy of the result, with the environment, goes to ``.bench_out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import SpeedProbe
from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "identity", "replay", "cli")
SETUP_PROBES = 8
DEADLINE_S = 175


class BenchError(RuntimeError):
    pass


def environment(root: Path, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "shufbij").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": _git_commit(root),
        "source_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def _git_commit(root: Path):
    """HEAD of the checkout, read from ``.git`` without running git; None
    when the checkout is not a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _worker_cmd(args, workload, *extra):
    return [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale, *extra,
    ]


def _start_worker(cmd, root):
    """Start a worker and wait for its ``ready`` line; returns the process
    and the seconds from spawn to ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _, err = proc.communicate()
        raise BenchError(f"worker failed during set-up:\n{line}{err}")
    return proc, ready


def _finish(proc, deadline):
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err}")
    return out


def run_workload(args, workload, root, deadline) -> dict:
    setup, setup_raw = [], []
    if not args.trace:
        speed = SpeedProbe()
        for _ in range(SETUP_PROBES):
            speed.probe(force=True)
            t0 = time.perf_counter()
            proc, ready = _start_worker(_worker_cmd(args, workload, "--setup-only"), root)
            _finish(proc, deadline)
            speed.probe(force=True)
            setup_raw.append(ready)
            setup.append(ready * speed.factor(t0, t0 + ready))
    proc, _ = _start_worker(_worker_cmd(args, workload), root)
    try:
        raw = json.loads(_finish(proc, deadline).splitlines()[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    if args.trace:
        units = PER_LAYER
        metrics = raw["metrics"]
        coverage_ok = all(c["ok"] for c in raw["coverage"])
    else:
        units = END_TO_END
        metrics = {"setup_s": statistics.median(setup), **raw["metrics"]}
        coverage_ok = True
    return {
        "workload": workload,
        "correct": raw["failed"] == 0 and coverage_ok,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "detail": {
            "passes": raw["passes"],
            "error_ratio": raw["failed"] / raw["attempted"],
            "setup_samples_s": setup,
            "setup_raw_samples_s": setup_raw,
            "timing": raw.get("detail"),
            "coverage": raw.get("coverage"),
            "failures": raw["failures"],
        },
    }


def summary_lines(result) -> list[str]:
    d = result["detail"]
    lines = [f"workload {result['workload']}: {result['attempted']} jobs in {d['passes']} passes, "
             f"error_ratio {d['error_ratio']:.6g} ({result['failed']} failed)"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    if d["timing"]:
        unscaled = ", ".join(f"{k} {v:.6g}" for k, v in d["timing"]["raw"].items())
        lines.append(f"  job_tail_ms is p{d['timing']['percentile']:.2f} "
                     f"of {d['timing']['samples']} samples; unscaled: {unscaled}, "
                     f"setup_s {statistics.median(d['setup_raw_samples_s']):.6g}")
    if d["coverage"]:
        cover = d["coverage"][-1]
        layers = ", ".join(f"{k} {v:.3f}" for k, v in cover["layer_self_s"].items())
        verdict = "ok" if all(c["ok"] for c in d["coverage"]) else "FAILED"
        lines.append(f"  coverage {verdict} in {len(d['coverage'])} traced passes; last: traced wall "
                     f"{cover['traced_wall_s']:.3f} s = layers ({layers}) "
                     f"+ harness {cover['harness_s']:.3f} s")
    lines += [f"  FAILED {f}" for f in d["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small job sizes for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "shufbij" / "__init__.py").is_file():
        print("error: run from the repository root; src/shufbij not found", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    try:
        results = [run_workload(args, w, root, deadline) for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(root, args.seed)
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for result in results:
        print("\n".join(summary_lines(result)))
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"result-{stamp}.json", "w") as fh:
        json.dump({"environment": env, "results": results}, fh, indent=1)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
