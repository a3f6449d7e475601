"""Regenerate ``expected.json``, the benchmark's expected-output table.

Runs every job of every workload at both scales once, records its outcome
under the job's key, and cross-checks the small cases against the
independent brute-force oracles in ``tests/oracles.py``.  Run it from the
repository root only when a change alters outputs on purpose:

    python3 perfbench/expected.py
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from itertools import permutations
from math import comb, factorial
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from jobs import EXPECTED_PATH, SCALES, WORKLOADS, canonical_jobs  # noqa: E402
from shufbij.shuffle import shuffles  # noqa: E402

# The largest m+n at which results are recomputed from the oracles.
ORACLE_TOTAL = 5

ORACLE_STATS = {
    "Des": lambda p: frozenset(oracles.des_set_oracle(p)),
    "Pk": lambda p: frozenset(oracles.pk_set_oracle(p)),
    "Epk": lambda p: frozenset(oracles.epk_set_oracle(p)),
    "maj": oracles.maj_oracle,
    "des": lambda p: len(oracles.des_set_oracle(p)),
    "pk": lambda p: len(oracles.pk_set_oracle(p)),
    "udr": oracles.udr_oracle,
}


def _oracle_stat(name):
    parts = name.strip("()").split(",")
    funcs = [ORACLE_STATS[part] for part in parts]
    return lambda p: tuple(f(p) for f in funcs)


def _oracle_reduced_passes(stat, m, n, side):
    """The reduced-mode verdict, recomputed from the oracles."""
    low, high = range(1, m + 1), range(m + 1, m + n + 1)
    movers, partners = (low, high) if side == "pi" else (high, low)
    for partner in permutations(partners):
        seen = {}
        for mover in permutations(movers):
            pair = (mover, partner) if side == "pi" else (partner, mover)
            dist = Counter(stat(t) for t in oracles.shuffle_set_oracle(*pair))
            if seen.setdefault(stat(mover), dist) != dist:
                return False
    return True


def _oracle_maj_identity(m, n):
    binom = oracles.q_binomial_oracle(m + n, m)
    for pi in permutations(range(1, m + 1)):
        for sigma in permutations(range(m + 1, m + n + 1)):
            shift = oracles.maj_oracle(pi) + oracles.maj_oracle(sigma)
            got = Counter(oracles.maj_oracle(t) for t in oracles.shuffle_set_oracle(pi, sigma))
            if got != Counter({shift + e: c for e, c in enumerate(binom) if c}):
                return False
    return True


def cross_check(job, value) -> list[str]:
    """Problems found by recomputing one small job from the oracles."""
    kind, *rest = job.key.split("|")
    if kind in ("compat", "conjecture", "identity", "pipeline"):
        m, n = int(rest[-2]), int(rest[-1])
        if m + n > ORACLE_TOTAL:
            return []
        outcome, cases, _ = value
        if kind == "compat":
            side = "pi" if rest[1] == "reduced_pi" else "sigma"
            want = ("pass" if _oracle_reduced_passes(_oracle_stat(rest[0]), m, n, side)
                    else "fail", factorial(m) * factorial(n))
        elif kind == "conjecture":
            stat = _oracle_stat("udr,pk,des")
            ok = all(_oracle_reduced_passes(stat, m, n, s) for s in ("pi", "sigma"))
            want = ("pass" if ok else "fail", 2 * factorial(m) * factorial(n))
        elif kind == "identity":
            ok = rest[0] != "maj" or _oracle_maj_identity(m, n)
            want = ("pass" if ok else "fail", factorial(m) * factorial(n))
        else:
            want = ("pass", comb(m + n, m))
        return [] if (outcome, cases) == want else [f"{job.key}: {value} != oracle {want}"]
    if kind == "normalize":
        pi, sigma, _ = job.args
        npi, nsg, images = job.call(*job.args)
        sources = shuffles(pi, sigma)
        ok = (
            set(sources) == oracles.shuffle_set_oracle(pi, sigma)
            and set(images) == oracles.shuffle_set_oracle(npi, nsg)
            and len(set(images)) == len(images)
            and all(oracles.des_set_oracle(t) == oracles.des_set_oracle(img)
                    for t, img in zip(sources, images))
        )
        return [] if ok else [f"{job.key}: replay is not a descent-preserving bijection"]
    if kind == "cli":
        return _cross_check_cli(job, value)
    return []


def _cross_check_cli(job, value) -> list[str]:
    argv = job.args[0]
    code, stdout = job.call(*job.args)
    text = stdout.decode()
    command = argv[0]
    if command == "stat":
        want = (0, f"{oracles.maj_oracle(tuple(map(int, argv[2].split(','))))}\n")
    elif command in ("dist", "genpoly") and len(argv[2].split(",")) <= ORACLE_TOTAL:
        pi, sigma = (tuple(map(int, a.split(","))) for a in argv[2:4])
        taus = oracles.shuffle_set_oracle(pi, sigma)
        if command == "dist":
            dist = Counter(frozenset(oracles.pk_set_oracle(t)) for t in taus)
            body = ", ".join(
                f"[{','.join(map(str, sorted(v)))}]:{dist[v]}"
                for v in sorted(dist, key=lambda v: (len(v), sorted(v)))
            )
            want = (0, "{" + body + "}\n")
        else:
            counts = Counter(oracles.maj_oracle(t) for t in taus)
            coeffs = [counts[e] for e in range(max(counts) + 1)]
            want = (0, "[" + ",".join(map(str, coeffs)) + "]")
            text = text.rstrip("\n").rsplit(" ", 1)[-1]
    elif command in ("counterexample", "verify"):
        # inv (full mode) and biruns are not shuffle compatible; Des and maj are.
        failing = argv[1] in ("inv", "biruns")
        return [] if code == (1 if failing else 0) else [f"{job.key}: exit {code}"]
    else:
        return [] if code == 0 else [f"{job.key}: exit {code}"]
    return [] if (code, text) == want else [f"{job.key}: {(code, text)!r} != oracle {want!r}"]


def main() -> int:
    table = {}
    problems = []
    for scale in SCALES:
        table[scale] = {}
        for workload in WORKLOADS:
            entries = table[scale][workload] = {}
            for job in canonical_jobs(workload, scale, ROOT):
                value = json.loads(json.dumps(job.outcome(job.call(*job.args))))
                if entries.setdefault(job.key, value) != value:
                    problems.append(f"{job.key}: outcome differs within its family")
                problems += cross_check(job, value)
            print(f"{scale} {workload}: {len(entries)} keys", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(EXPECTED_PATH, "w") as fh:
        fh.write(_dump(table) + "\n")
    return 0


def _dump(tree: dict) -> str:
    """JSON with one table entry per line, so regenerations diff cleanly."""
    body = ",\n".join(
        f"{json.dumps(k)}: {_dump(v) if isinstance(v, dict) else json.dumps(v)}"
        for k, v in sorted(tree.items())
    )
    return "{\n" + body + "\n}"


if __name__ == "__main__":
    sys.exit(main())
