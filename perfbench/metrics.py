"""Names and units of the benchmark's metrics.

The layers are the package modules; ``README.md`` maps each per-layer
metric to the end-to-end metric and workload it should move.
"""

# Step kinds of shufbij.traces.STEP_KINDS, repeated here so that run.py can
# name the metrics without importing the package.
STEP_KINDS = (
    "t_swap",
    "phi",
    "phi_tilde",
    "theta_des",
    "theta_maj_first",
    "theta_pk",
    "theta_lpk",
    "theta_rpk_inverse",
)
VERIFY_ENTRIES = (
    "check_compatibility",
    "check_bijection_pipeline",
    "check_identity",
    "find_counterexample",
    "check_conjecture_udr_pk_des",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "shuffle.sets": "count",
    "shuffle.interleavings": "count",
    "shuffle.s": "s",
    "shuffle.ns_per_interleaving": "ns",
    "shuffle.rebuild_ratio": "ratio",
    "stats.evaluations": "count",
    "stats.s": "s",
    "stats.ns_per_evaluation": "ns",
    "stats.evals_per_interleaving": "ratio",
    "qpoly.calls": "count",
    "qpoly.s": "s",
    "reduce.canonicalize_calls": "count",
    "reduce.canonicalize_s": "s",
    "reduce.steps": "count",
    "reduce.replays": "count",
    "reduce.replay_s": "s",
    "reduce.us_per_replay": "us",
    "reduce.validate_share": "ratio",
    **{f"reduce.step.{kind}.calls": "count" for kind in STEP_KINDS},
    **{f"reduce.step.{kind}.us": "us" for kind in STEP_KINDS},
    "perm.calls": "count",
    "perm.s": "s",
    **{f"verify.{entry}.calls": "count" for entry in VERIFY_ENTRIES},
    **{f"verify.{entry}.s": "s" for entry in VERIFY_ENTRIES},
    "verify.self_s": "s",
    "verify.cases": "count",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}
