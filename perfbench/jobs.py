"""Job lists of the four workloads and how each job is run and checked.

A job is one public call (or, for ``cli``, one command).  ``Job.call`` is
the timed part; ``Job.outcome`` turns its raw result into the JSON value
that the expected-output table stores under ``Job.key`` and runs after the
job's timer has stopped.  Job lists are exhaustive and fixed for a scale;
the seed only sets the order and draws the CLI operands from fixed pools,
so every job a seed can produce has an entry in ``expected.json``.

The harness calls the package through the names imported below and looks
them up at call time, so the tracer can wrap them in this namespace like
any other importing module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path
from typing import Any, Callable

from shufbij.cli import main as cli_main
from shufbij.reduce import SUPPORTED_STATS, apply_trace
from shufbij.shuffle import normalize_pair, shuffles
from shufbij.verify import (
    check_bijection_pipeline,
    check_compatibility,
    check_conjecture_udr_pk_des,
    check_identity,
)

WORKLOADS = ("sweep", "identity", "replay", "cli")
SCALES = ("full", "tiny")
EXPECTED_PATH = Path(__file__).with_name("expected.json")

SWEEP_STATS = ("Des", "Pk", "Epk", "maj", "udr", ("maj", "des"), ("udr", "pk"))
REDUCED_MODES = ("reduced_pi", "reduced_sigma")
NORMALIZE_MODES = ("pi_low", "sigma_low")

# Sizes per scale.  ``full`` is the measured benchmark; ``tiny`` keeps the
# same job kinds at sizes small enough for the smoke test.
SIZES = {
    "full": {
        "sweep_total": 7,
        "identity_totals": (4, 5, 6, 7),
        "pipeline_total": 6,
        "normalize_grounds": ((1, 2, 3, 4, 5), (1, 3, 5, 7, 9)),
        "cli_fixed": (
            ("verify", "Des", "--m", "4", "--n", "3", "--mode", "full"),
            ("counterexample", "maj", "--max", "6"),
            ("counterexample", "biruns", "--max", "7"),
            ("verify", "inv", "--m", "2", "--n", "1", "--mode", "full"),
            ("identity", "maj_des", "--m", "4", "--n", "3"),
        ),
        "stat_len": 7,
        "reduce_sides": (3, 2),
        "big_side": 9,
    },
    "tiny": {
        "sweep_total": 4,
        "identity_totals": (2, 3, 4),
        "pipeline_total": 3,
        "normalize_grounds": ((1, 2, 3), (1, 3, 5)),
        "cli_fixed": (
            ("verify", "Des", "--m", "2", "--n", "2", "--mode", "full"),
            ("counterexample", "maj", "--max", "4"),
            ("counterexample", "biruns", "--max", "7"),
            ("verify", "inv", "--m", "2", "--n", "1", "--mode", "full"),
            ("identity", "maj_des", "--m", "2", "--n", "2"),
        ),
        "stat_len": 4,
        "reduce_sides": (2, 2),
        "big_side": 3,
    },
}
POOL_SIZE = 8


@dataclass(frozen=True)
class Job:
    key: str
    call: Callable[..., Any]
    args: tuple
    outcome: Callable[[Any], Any]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _fmt(perm) -> str:
    return ",".join(map(str, perm))


def _stat_name(stat) -> str:
    return stat if isinstance(stat, str) else "(" + ",".join(stat) + ")"


# --- timed calls -------------------------------------------------------------
# Each reads its package function from this module's globals at call time.


def _compat(stat, m, n, mode):
    return check_compatibility(stat, m, n, mode=mode)


def _conjecture(m, n):
    return check_conjecture_udr_pk_des(m, n)


def _identity(which, m, n):
    return check_identity(which, m, n)


def _pipeline(stat, pi, sigma):
    return check_bijection_pipeline(stat, pi, sigma)


def _normalize_replay(pi, sigma, mode):
    npi, nsg, trace = normalize_pair(pi, sigma, mode)
    return npi, nsg, [apply_trace(trace, t) for t in shuffles(pi, sigma)]


def _cli_env(root: Path, max_total: int) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SHUFBIJ_MAX_TOTAL"] = str(max_total)
    return env


def _cli_process(argv, env, root):
    proc = subprocess.run(
        [sys.executable, "-m", "shufbij", *argv],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )
    return proc.returncode, proc.stdout


def _cli_inprocess(argv, env, root):
    os.environ["SHUFBIJ_MAX_TOTAL"] = env["SHUFBIJ_MAX_TOTAL"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue().encode()


# --- outcomes (untimed) --------------------------------------------------------


def _report_outcome(report):
    witness = report.witness.to_json() if report.witness else None
    return [report.outcome, report.cases_checked, witness]


def _replay_outcome(result):
    npi, nsg, images = result
    return digest(repr((npi, nsg, images)).encode())


def _cli_outcome(result):
    code, stdout = result
    return [code, digest(stdout)]


# --- job lists -----------------------------------------------------------------


def _splits(total):
    return [(m, total - m) for m in range(total + 1)]


def _normalized_pairs(total):
    for m, n in _splits(total):
        for pi in permutations(range(1, m + 1)):
            for sigma in permutations(range(m + 1, total + 1)):
                yield pi, sigma


def _disjoint_pairs(values):
    for m in range(len(values) + 1):
        for dom in combinations(values, m):
            rest = [v for v in values if v not in dom]
            for pi in permutations(dom):
                for sigma in permutations(rest):
                    yield pi, sigma


def sweep_jobs(size):
    total = size["sweep_total"]
    jobs = [
        Job(f"compat|{_stat_name(stat)}|{mode}|{m}|{n}", _compat, (stat, m, n, mode), _report_outcome)
        for stat in SWEEP_STATS for m, n in _splits(total) for mode in REDUCED_MODES
    ]
    jobs += [
        Job(f"conjecture|{m}|{n}", _conjecture, (m, n), _report_outcome)
        for m, n in _splits(total)
    ]
    return jobs


def identity_jobs(size):
    return [
        Job(f"identity|{which}|{m}|{n}", _identity, (which, m, n), _report_outcome)
        for which in ("maj", "maj_des")
        for total in size["identity_totals"] for m, n in _splits(total)
    ]


def replay_jobs(size):
    # Every pipeline job of one (stat, m, n) family has the same expected
    # verdict, count and witness, so the family is the table key.
    jobs = [
        Job(f"pipeline|{_stat_name(stat)}|{len(pi)}|{len(sigma)}", _pipeline,
            (stat, pi, sigma), _report_outcome)
        for stat in SUPPORTED_STATS
        for pi, sigma in _normalized_pairs(size["pipeline_total"])
    ]
    # Pairs over [k] need no relabeling, so normalize_pair records only
    # t_swap steps for them; the odd ground set adds the phi and phi_tilde
    # relabeling steps.
    jobs += [
        Job(f"normalize|{mode}|{_fmt(pi)}|{_fmt(sigma)}", _normalize_replay,
            (pi, sigma, mode), _replay_outcome)
        for ground in size["normalize_grounds"]
        for pi, sigma in _disjoint_pairs(ground) for mode in NORMALIZE_MODES
    ]
    return jobs


def cli_pools(size):
    """Fixed operand pools the seed draws from: one permutation for ``stat``,
    one small pair for ``reduce`` and one m = n pair for ``dist``/``genpoly``."""
    pools = {"stat": [], "reduce": [], "big": []}
    m, n = size["reduce_sides"]
    big = size["big_side"]
    for i in range(POOL_SIZE):
        rng = random.Random(f"cli-pool-{i}")
        perm = list(range(1, size["stat_len"] + 1))
        rng.shuffle(perm)
        pools["stat"].append(_fmt(perm))
        vals = rng.sample(range(1, 2 * (m + n) + 1), m + n)
        pools["reduce"].append((_fmt(vals[:m]), _fmt(vals[m:])))
        vals = list(range(1, 2 * big + 1))
        rng.shuffle(vals)
        pools["big"].append((_fmt(vals[:big]), _fmt(vals[big:])))
    return pools


def cli_commands(size, picks):
    """Commands of one ``cli`` pass; ``picks`` indexes the operand pools."""
    pools = cli_pools(size)
    pi, sigma = pools["big"][picks["big"]]
    return list(size["cli_fixed"]) + [
        ("stat", "maj", pools["stat"][picks["stat"]]),
        ("reduce", "--format", "json", "maj", *pools["reduce"][picks["reduce"]]),
        ("dist", "Pk", pi, sigma),
        ("genpoly", "maj", pi, sigma),
    ]


def cli_jobs(size, picks, root: Path, inprocess: bool):
    # SHUFBIJ_MAX_TOTAL is the largest m+n in the list, that of the big pair.
    env = _cli_env(root, 2 * size["big_side"])
    call = _cli_inprocess if inprocess else _cli_process
    return [
        Job("cli|" + " ".join(argv), call, (argv, env, root), _cli_outcome)
        for argv in cli_commands(size, picks)
    ]


def build(workload: str, scale: str, seed: int, root: Path, inprocess: bool = False):
    """The seeded job list of one workload pass."""
    size = SIZES[scale]
    rng = random.Random(seed)
    if workload == "cli":
        picks = {name: rng.randrange(POOL_SIZE) for name in ("stat", "reduce", "big")}
        jobs = cli_jobs(size, picks, root, inprocess)
    else:
        jobs = {"sweep": sweep_jobs, "identity": identity_jobs, "replay": replay_jobs}[workload](size)
    rng.shuffle(jobs)
    return jobs


def canonical_jobs(workload: str, scale: str, root: Path):
    """Every job the workload can run at this scale, over all pool picks."""
    size = SIZES[scale]
    if workload != "cli":
        return build(workload, scale, 0, root)
    jobs = {}
    for i in range(POOL_SIZE):
        for job in cli_jobs(size, {"stat": i, "reduce": i, "big": i}, root, inprocess=False):
            jobs.setdefault(job.key, job)
    return list(jobs.values())


def load_expected(scale: str, workload: str) -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)[scale][workload]
