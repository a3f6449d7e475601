"""Boundary tracing for the per-layer run.

The layers are the package modules.  ``Tracer.install`` replaces, in each
importing module's namespace, every package function it imports from
another module by a wrapper that records a span (name, start, end, parent)
in compact arrays.  A few same-module names are wrapped as well, because
they are where per-layer work is counted: ``stats.evaluate`` (called by
``distribution``), ``reduce.apply_step`` (one span name per step kind),
``shuffle.is_shuffle`` (the revalidation inside ``phi``) and the module
attribute ``shuffle.shuffles`` (imported late by the ``dist`` and
``genpoly`` commands).  Nothing in the package itself changes.

Generator functions are not wrapped: their work happens while the caller
iterates, so a call span would not cover it.  No workload calls one across
a boundary.

Spans stay in memory for one pass; ``pass_metrics`` derives each span's
self time (its duration minus its children's), the per-layer metrics and
the coverage check, and ``dump`` writes the last pass's spans out.
"""

from __future__ import annotations

import inspect
import json
import operator
import statistics
import time
from array import array
from collections import Counter
from pathlib import Path

from shufbij import cli, perm, qpoly, reduce, shuffle, stats, verify
from shufbij.traces import STEP_KINDS

from metrics import PER_LAYER, VERIFY_ENTRIES

HARNESS = "harness"
IMPORTING_MODULES = (verify, reduce, cli, stats, qpoly)
PACKAGE_MODULES = {m.__name__: m for m in (cli, perm, qpoly, reduce, shuffle, stats, verify)}

def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.labels: list[tuple[str, str]] = []  # span name id -> (layer, function)
        self._ids: dict[tuple[str, str], int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.counts = Counter()
        self.pairs: set = set()  # distinct (pi, sigma) operands of shuffles()
        self.reset()

    def reset(self):
        """Drop the spans and counts of the previous pass."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts.clear()
        self.pairs.clear()

    def _id(self, layer: str, label: str) -> int:
        key = (layer, label)
        if key not in self._ids:
            self._ids[key] = len(self.labels)
            self.labels.append(key)
        return self._ids[key]

    def wrap(self, fn, layer: str, label: str, after=None, kind_of=None):
        """A wrapper that records one span per call of ``fn``.

        ``after(args, result)`` updates counts; ``kind_of(args)`` picks the
        span label suffix per call (the step kind of ``apply_step``).
        """
        tracer = self
        clock = time.perf_counter_ns
        nid = self._id(layer, label)
        kind_ids = {k: self._id(layer, f"{label}[{k}]") for k in STEP_KINDS} if kind_of else None

        def wrapper(*args, **kwargs):
            start = tracer.start
            i = len(start)
            tracer.name.append(kind_ids[kind_of(args)] if kind_ids else nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.end.append(0)
            tracer.stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                tracer.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, namespace, attr, wrapper):
        self._undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def _after(self, label):
        counts, pairs = self.counts, self.pairs
        if label == "shuffles":
            def after(args, result):
                counts["interleavings"] += len(result)
                pairs.add(args)
            return after
        if label == "canonicalize":
            def after(args, result):
                counts["steps"] += len(result[1])
            return after
        if label in VERIFY_ENTRIES:
            def after(args, result):
                counts["cases"] += result.cases_checked
            return after
        return None

    def _wrap_imports(self, namespace):
        own = namespace.__name__
        for attr, value in list(vars(namespace).items()):
            home = getattr(value, "__module__", None)
            if (home in PACKAGE_MODULES and home != own and callable(value)
                    and not isinstance(value, type)
                    and not inspect.isgeneratorfunction(value)):
                layer = home.rsplit(".", 1)[1]
                self._patch(namespace, attr,
                            self.wrap(value, layer, value.__name__, self._after(value.__name__)))

    def install(self, harness_namespace):
        """Wrap the boundary names in every importing module and in the
        harness; ``uninstall`` restores them."""
        for namespace in (*IMPORTING_MODULES, harness_namespace):
            self._wrap_imports(namespace)
        self._patch(stats, "evaluate", self.wrap(stats.evaluate, "stats", "evaluate"))
        self._patch(shuffle, "is_shuffle", self.wrap(shuffle.is_shuffle, "shuffle", "is_shuffle"))
        self._patch(shuffle, "shuffles",
                    self.wrap(shuffle.shuffles, "shuffle", "shuffles", self._after("shuffles")))
        self._patch(reduce, "apply_step",
                    self.wrap(reduce.apply_step, "reduce", "apply_step", kind_of=lambda a: a[0].kind))

    def uninstall(self):
        while self._undo:
            namespace, attr, value = self._undo.pop()
            setattr(namespace, attr, value)

    def job_wrapper(self, call):
        """The root span of one job; its self time is the harness's."""
        return self.wrap(call, HARNESS, "job")

    # --- derived numbers ---------------------------------------------------

    def self_times(self):
        """Each span's duration and self time (duration minus the durations
        of its direct children), in ns."""
        dur = array("q", map(operator.sub, self.end, self.start))
        child = array("q", bytes(8 * len(dur)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return dur, array("q", map(operator.sub, dur, child))

    def pass_metrics(self, traced_wall_ns: int, untraced_wall_ns: int, extra: dict):
        """Per-layer metrics of the pass just traced, and the coverage check.

        ``traced_wall_ns`` is the sum of the harness's own job timers;
        ``extra`` carries numbers measured outside the spans
        (``cli.import_s``, ``cli.stdout_bytes``).
        """
        dur, self_ns = self.self_times()
        calls = Counter()
        incl = Counter()
        layer_self = Counter()
        validate_ns = 0
        under_replay = [False] * len(dur)
        replay_id = self._ids.get(("reduce", "apply_trace"))
        is_shuffle_id = self._ids.get(("shuffle", "is_shuffle"))
        for i, nid in enumerate(self.name):
            layer = self.labels[nid][0]
            calls[nid] += 1
            incl[nid] += dur[i]
            layer_self[layer] += self_ns[i]
            p = self.parent[i]
            under_replay[i] = nid == replay_id or (p >= 0 and under_replay[p])
            if nid == is_shuffle_id and p >= 0 and under_replay[p]:
                validate_ns += dur[i]

        def by_label(layer, label, table):
            return table[self._ids[(layer, label)]] if (layer, label) in self._ids else 0

        def layer_calls(layer):
            return sum(c for nid, c in calls.items() if self.labels[nid][0] == layer)

        sec = 1e-9
        sets = by_label("shuffle", "shuffles", calls)
        interleavings = self.counts["interleavings"]
        evaluations = by_label("stats", "evaluate", calls)
        replays = by_label("reduce", "apply_trace", calls)
        replay_ns = by_label("reduce", "apply_trace", incl)
        out = {
            "shuffle.sets": sets,
            "shuffle.interleavings": interleavings,
            "shuffle.s": layer_self["shuffle"] * sec,
            "shuffle.ns_per_interleaving": _ratio(by_label("shuffle", "shuffles", incl), interleavings),
            "shuffle.rebuild_ratio": _ratio(sets, len(self.pairs)),
            "stats.evaluations": evaluations,
            "stats.s": layer_self["stats"] * sec,
            "stats.ns_per_evaluation": _ratio(by_label("stats", "evaluate", incl), evaluations),
            "stats.evals_per_interleaving": _ratio(evaluations, interleavings),
            "qpoly.calls": layer_calls("qpoly"),
            "qpoly.s": layer_self["qpoly"] * sec,
            "reduce.canonicalize_calls": by_label("reduce", "canonicalize", calls),
            "reduce.canonicalize_s": by_label("reduce", "canonicalize", incl) * sec,
            "reduce.steps": self.counts["steps"],
            "reduce.replays": replays,
            "reduce.replay_s": replay_ns * sec,
            "reduce.us_per_replay": _ratio(replay_ns * 1e-3, replays),
            "reduce.validate_share": _ratio(validate_ns, replay_ns),
            "perm.calls": layer_calls("perm"),
            "perm.s": layer_self["perm"] * sec,
            "verify.self_s": layer_self["verify"] * sec,
            "verify.cases": self.counts["cases"],
            "cli.self_s": layer_self["cli"] * sec,
            "trace.overhead_ratio": _ratio(traced_wall_ns, untraced_wall_ns),
            **extra,
        }
        for kind in STEP_KINDS:
            n = by_label("reduce", f"apply_step[{kind}]", calls)
            out[f"reduce.step.{kind}.calls"] = n
            out[f"reduce.step.{kind}.us"] = _ratio(by_label("reduce", f"apply_step[{kind}]", incl) * 1e-3, n)
        for entry in VERIFY_ENTRIES:
            out[f"verify.{entry}.calls"] = by_label("verify", entry, calls)
            out[f"verify.{entry}.s"] = by_label("verify", entry, incl) * sec

        # Coverage: the self times partition the traced wall time when every
        # span lies inside its parent and every job span inside the
        # harness's job timer.  What is not in a layer is the harness's.
        start, end, parent = self.start, self.end, self.parent
        misnested = sum(
            1 for i, p in enumerate(parent)
            if p >= 0 and (start[i] < start[p] or end[i] > end[p])
        )
        roots_ns = sum(dur[i] for i, p in enumerate(parent) if p < 0)
        harness_ns = layer_self.pop(HARNESS, 0) + traced_wall_ns - roots_ns
        coverage = {
            "traced_wall_s": traced_wall_ns * sec,
            "layer_self_s": {k: v * sec for k, v in sorted(layer_self.items())},
            "harness_s": harness_ns * sec,
            "misnested_spans": misnested,
        }
        coverage["ok"] = (
            misnested == 0
            and traced_wall_ns >= roots_ns
            and sum(layer_self.values()) + harness_ns == traced_wall_ns
        )
        if set(out) != set(PER_LAYER):
            raise RuntimeError(f"per-layer metrics out of sync: {set(out) ^ set(PER_LAYER)}")
        return out, coverage

    def dump(self, path: Path):
        """Write the spans of the last pass: ``<path>.json`` names the span
        ids, ``<path>.bin`` holds four int64 arrays (name, parent, start,
        end in ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump({"spans": len(self.start), "names": [".".join(k) for k in self.labels],
                       "layout": ["name", "parent", "start_ns", "end_ns"]}, fh)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name, self.parent):
                array("q", arr).tofile(fh)
            self.start.tofile(fh)
            self.end.tofile(fh)


def median_metrics(per_pass: list[dict]) -> dict:
    """Median over the traced passes of every per-layer metric."""
    return {k: statistics.median(p[k] for p in per_pass) for k in PER_LAYER}
