"""One workload's worker process: set up, run passes, report.

Started by ``run.py`` from the root of a checkout.  It imports the package
from ``src/`` of that checkout, builds the seeded job list, loads the
expected-output table and prints ``ready``; that line ends the set-up time
that ``run.py`` measures.  With ``--setup-only`` it exits there.  Otherwise
it runs whole passes over the job list, one job at a time, and prints one
JSON line with the raw results as its last line.

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones, so ``trace.overhead_ratio`` compares the two
within one process.  For ``cli`` both halves call ``cli.main`` in-process
with stdout captured, since spans cannot cross into a child process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
IMPORT_PROBES = 5


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import shufbij

    if Path(shufbij.__file__).resolve().parent != (src / "shufbij").resolve():
        raise ImportError(f"shufbij imported from {shufbij.__file__}, not from {src}")


@dataclass
class PassResult:
    latencies: array  # ns, in job order
    scaled: array | None  # ns at the reference speed; None when not calibrated
    failures: list
    stdout_bytes: int


def run_pass(jobs, expected, speed=None):
    """Run every job once; time only the call, check the output after.
    With a ``SpeedProbe``, time the reference loop between jobs and scale
    each latency by the speed measured around it."""
    # Arrays rather than lists, so that the harness's own data barely moves
    # the worker's peak RSS however many passes fit in the run.
    clock = time.perf_counter_ns
    latencies, starts, failures = array("q"), array("q"), []
    stdout_bytes = 0
    for job in jobs:
        if speed is not None:
            speed.probe()
        t0 = clock()
        try:
            raw = job.call(*job.args)
        except Exception as exc:  # a job that raises is a failed job, not a crash
            latencies.append(clock() - t0)
            starts.append(t0)
            failures.append(f"{job.key}: raised {exc!r}")
            continue
        latencies.append(clock() - t0)
        starts.append(t0)
        value = json.loads(json.dumps(job.outcome(raw)))
        if value != expected.get(job.key):
            failures.append(f"{job.key}: got {value!r}, expected {expected.get(job.key)!r}")
        if job.key.startswith("cli|"):
            stdout_bytes += len(raw[1])
    scaled = None
    if speed is not None:
        speed.probe(force=True)
        scaled = array("d", (lat * speed.factor(t0 * 1e-9, (t0 + lat) * 1e-9)
                             for t0, lat in zip(starts, latencies)))
    return PassResult(latencies, scaled, failures, stdout_bytes)


def run_for(jobs, expected, seconds, on_pass=None, speed=None):
    """Whole passes until the next one would end after ``seconds``; at
    least one.  ``on_pass(result, last)`` sees each pass as it ends."""
    passes = []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        result = run_pass(jobs, expected, speed)
        now = time.perf_counter()
        last = (now - started) + (now - pass_start) > seconds
        if on_pass is not None:
            on_pass(result, last)
        passes.append(result)
        if last:
            return passes


def tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes, peak_rss_mb):
    """End-to-end metrics from the per-job medians of the scaled latencies.

    Every job runs once per pass, in the same order, so each job has one
    latency per pass, and its median over the passes is its latency.  With
    ten jobs or fewer (``cli``) the tail is the slowest job's latency.
    ``raw`` repeats the times without the speed scaling.
    """
    out = {}
    for name, runs in (("scaled", [p.scaled for p in passes]),
                       ("raw", [p.latencies for p in passes])):
        per_job = [statistics.median(job_runs) for job_runs in zip(*runs)]
        tail_ns, pct, n = tail(per_job)
        out[name] = {
            "wall_s": sum(per_job) * 1e-9,
            "job_p50_ms": statistics.median(per_job) * 1e-6,
            "job_tail_ms": tail_ns * 1e-6,
        }
    out["scaled"]["peak_rss_mb"] = peak_rss_mb
    return out["scaled"], {"percentile": pct, "samples": n, "raw": out["raw"]}


def import_seconds():
    """Median time to import ``shufbij.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import shufbij.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = [
        float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(IMPORT_PROBES)
    ]
    return statistics.median(samples)


def traced(workload, jobs_module, jobs, expected, seconds):
    import tracer as tracing

    untraced = run_for(jobs, expected, seconds / 2)
    untraced_wall = statistics.median(sum(p.latencies) for p in untraced)
    import_s = import_seconds()
    tracer = tracing.Tracer()
    tracer.install(jobs_module)
    traced_jobs = [replace(job, call=tracer.job_wrapper(job.call)) for job in jobs]
    per_pass, coverage = [], []

    def on_pass(result, last):
        metrics, cover = tracer.pass_metrics(
            sum(result.latencies), untraced_wall,
            {"cli.import_s": import_s, "cli.stdout_bytes": result.stdout_bytes},
        )
        per_pass.append(metrics)
        coverage.append(cover)
        if last:
            tracer.dump(OUT_DIR / f"spans-{workload}")
        tracer.reset()

    try:
        passes = run_for(traced_jobs, expected, seconds / 2, on_pass)
    finally:
        tracer.uninstall()
    return untraced + passes, tracing.median_metrics(per_pass), coverage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    import jobs as jobs_module

    inprocess = args.workload == "cli" and args.trace == 1
    jobs = jobs_module.build(args.workload, args.scale, args.seed, ROOT, inprocess)
    expected = jobs_module.load_expected(args.scale, args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out = {}
    if args.trace:
        passes, out["metrics"], out["coverage"] = traced(
            args.workload, jobs_module, jobs, expected, args.seconds)
    else:
        from calibrate import SpeedProbe

        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        first_pass_rss = []

        def note_rss(result, last):
            # Every job has run once when the first pass ends; later passes
            # repeat them, and only the harness's own records would grow.
            if not first_pass_rss:
                first_pass_rss.append(resource.getrusage(who).ru_maxrss / 1024)

        passes = run_for(jobs, expected, args.seconds, on_pass=note_rss, speed=SpeedProbe())
        out["metrics"], out["detail"] = end_to_end(passes, first_pass_rss[0])
    failures = [f for p in passes for f in p.failures]
    out.update(
        passes=len(passes),
        attempted=sum(len(p.latencies) for p in passes),
        failed=len(failures),
        failures=failures[:20],
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
