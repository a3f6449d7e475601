"""Smoke test of the benchmark at tiny sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Runs every workload once untraced and once traced at ``--scale tiny`` and
checks that every metric named in ``BENCHMARK.json`` is reported with its
unit, that no job failed, and that the benchmark refuses to run where the
package is missing.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--scale", "tiny",
         "--seconds", "0.5", "--seed", "7", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class SmokeTest(unittest.TestCase):
    def check_run(self, trace, units):
        proc = run_bench(ROOT, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        expected = {f"{w}.{name}": unit for w in WORKLOADS for name, unit in units.items()}
        self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        with open(ROOT / ".bench_out" / f"result-all-seed7-trace{trace}.json") as fh:
            saved = json.load(fh)
        self.assertEqual([r["detail"]["error_ratio"] for r in saved["results"]], [0.0] * 4)
        self.assertEqual(set(saved["environment"]),
                         {"python", "nproc", "cpu", "git_commit", "source_sha256", "seed"})
        return result

    def test_end_to_end_metrics(self):
        result = self.check_run(0, END_TO_END)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_metrics(self):
        result = self.check_run(1, PER_LAYER)
        for w in WORKLOADS:
            self.assertGreater(result["metrics"][f"{w}.trace.overhead_ratio"]["value"], 0)
            self.assertGreater(result["metrics"][f"{w}.shuffle.interleavings"]["value"], 0)

    def test_benchmark_json_names_the_metrics(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)

    def test_refuses_without_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
