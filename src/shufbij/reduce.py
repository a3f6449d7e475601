"""Canonical-form pipelines of the statistic-preserving reduction bijections.

The moves are reduction step kinds, each defined once in ``traces`` with
its check and its replay.  The public moves here (``theta_*``) each build
a step, check that ``tau`` is a shuffle of its pair and replay it, by one
call of ``traces._replay_move``.

``canonicalize`` iterates the appropriate move with a strictly decreasing
measure until the rewritten side reaches its canonical profile; the side
it rewrites follows from the statistic.  ``lpk``, ``udr``, ``(udr,pk)``
and ``epk`` share one left-peak mover, which differs per statistic only
in the least left peak it may move and in whether the target keeps the
final ascent of pi; ``epk`` adds the move of a peak at the last position
on the appended framing.  Each step is recorded in a trace that
``apply_trace`` replays on any interleaving of the starting pair as a
statistic-preserving bijection, one :func:`apply_step` per step, each by
the kind's one replay path, ``traces.step_replay``.

A move, its target and the measure read the rewritten side only by its
descent set, so ``canonicalize`` plans once per statistic, sizes and
bitmask of that side (:func:`_class_plan`, a bounded cache) and builds and
checks each step against the caller's pair (``BENCH_class_plan.json``).
The plan runs the moves through ``traces.run_reduction``, the driver that
also records ``shuffle.normalize_pair``; a side step maps the whole pair
to the next one.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .perm import Perm, mask_positions, perm_with_descent_set, perm_with_left_peak_profile
from .shuffle import _require_shuffle
from .stats import (
    StatId,
    chi_plus,
    des_set,
    descent_mask,
    maj,
    peak_family,
    validate_stat,
)
from .traces import _KINDS, ReductionStep, ReductionTrace, _replay_move, run_reduction, step_replay

SIGMA_SIDE_STATS = ("des", ("maj", "des"), "maj")
PI_SIDE_STATS = ("pk", "lpk", "rpk", "epk", "udr", ("udr", "pk"))
SUPPORTED_STATS = SIGMA_SIDE_STATS + PI_SIDE_STATS


def theta_des(tau: Perm, pi: Perm, sigma: Perm, i: int, sigma_new: Perm) -> Perm:
    """Move the descent of ``sigma`` at an interior peak position ``i`` one
    step left, rewriting ``tau`` accordingly.

    The image keeps the descent count and has major index exactly one
    lower.
    """
    return _replay_move(tau, "theta_des", {"i": i}, pi, sigma, pi, sigma_new)


def theta_maj_first(tau: Perm, pi: Perm, sigma: Perm, sigma_new: Perm) -> Perm:
    """Remove a descent at position 1 of ``sigma``, lowering the major
    index of ``tau`` by one.

    Prepends a new maximum to the sigma side, which turns the front
    descent into an interior peak at position 2, applies the
    :func:`theta_des` move there, and strips the prepended entry.
    Requires sigma and ``sigma_new`` above pi, and ``sigma_new`` on
    sigma's values; the move compares no values, so any such domains do.
    """
    return _replay_move(tau, "theta_maj_first", {}, pi, sigma, pi, sigma_new)


def theta_pk(tau: Perm, pi: Perm, pi_new: Perm, sigma: Perm, j: int) -> Perm:
    """Move the interior peak of ``pi`` at position j (>= 3) to j-1,
    rewriting ``tau``; the interleaving keeps its peak count."""
    return _replay_move(tau, "theta_pk", {"j": j}, pi, sigma, pi_new, sigma)


def theta_lpk(tau: Perm, pi: Perm, sigma: Perm, pi_new: Perm) -> Perm:
    """Move a left peak at position 2 of ``pi`` to position 1.

    Prepends a low sentinel to both sides of the move, turning the left
    peak into an interior peak at position 3, applies the interior move,
    and strips the sentinel.
    """
    return _replay_move(tau, "theta_lpk", {"j": 2}, pi, sigma, pi_new, sigma)


# ---------------------------------------------------------------------------
# canonical-form pipelines


# The peak variant each pi-side measure sums; a right peak counts its
# distance from the end instead.
_PEAK_VARIANT = {
    "pk": "interior", "lpk": "left", "udr": "left", ("udr", "pk"): "left",
    "rpk": "right", "epk": "exterior",
}

# Left-peak moves: the least left peak that may move, and whether the
# target keeps chi_plus(pi) rather than the default final ascent.
_LEFT_PEAK_MOVES = {
    "lpk": (2, False), "udr": (2, True), ("udr", "pk"): (3, True), "epk": (2, True),
}


def _measure(stat: StatId, pi: Perm, sigma: Perm) -> int:
    if stat in SIGMA_SIDE_STATS:
        return maj(sigma)
    peaks = peak_family(pi, _PEAK_VARIANT[stat])
    if stat == "rpk":
        return sum(len(pi) - k for k in peaks)
    return sum(peaks)


def _default_chi_plus(m: int, left_peaks: set[int]) -> int:
    return 0 if (m - 1) in left_peaks else 1


def _sigma_side_step(stat, pi, sigma):
    """Next rewrite of the sigma side, or None once canonical.

    Descent statistics stop at a leading run of descents; the major index
    pipeline continues until no descent is left.
    """
    dset = des_set(sigma)
    i = min((d for d in dset if d >= 2 and d - 1 not in dset), default=None)
    if i is not None:
        target = (dset - {i}) | {i - 1}
        return "theta_des", {"i": i}, pi, perm_with_descent_set(sigma, target)
    if stat == "maj" and dset:
        return "theta_maj_first", {}, pi, perm_with_descent_set(sigma, dset - {1})
    return None


def _pi_side_step(stat, pi, sigma):
    """Next rewrite of the pi side, or None once canonical."""
    m = len(pi)

    if stat == "pk":
        pk = peak_family(pi, "interior")
        j = min((k for k in pk if k >= 3 and k - 2 not in pk), default=None)
        if j is None:
            return None
        nxt = perm_with_descent_set(range(1, m + 1), (pk - {j}) | {j - 1})
        return "theta_pk", {"j": j}, nxt, sigma

    if stat == "rpk":
        rpk = peak_family(pi, "right")
        j = max((k for k in rpk if k <= m - 1 and k + 2 not in rpk), default=None)
        if j is None:
            return None
        mirrored = {m + 1 - k for k in (rpk - {j}) | {j + 1}}
        rho = perm_with_left_peak_profile(m, mirrored, _default_chi_plus(m, mirrored))
        return "theta_rpk_inverse", {"j": j}, tuple(reversed(rho)), sigma

    lpk = peak_family(pi, "left")
    least, keep_chi_plus = _LEFT_PEAK_MOVES[stat]
    j = min((k for k in lpk if k >= least and k - 2 not in lpk), default=None)
    if j is not None:
        target = (lpk - {j}) | {j - 1}
        cp = chi_plus(pi) if keep_chi_plus else _default_chi_plus(m, target)
        nxt = perm_with_left_peak_profile(m, target, cp)
        return "theta_lpk" if j == 2 else "theta_pk", {"j": j}, nxt, sigma
    # An exterior peak at the last position moves left on the appended frame.
    if stat == "epk" and m >= 2 and chi_plus(pi) and m - 2 not in lpk:
        nxt = perm_with_left_peak_profile(m, lpk | {m - 1}, 0)
        return "theta_pk", {"j": m, "frame": "append"}, nxt, sigma
    return None


@lru_cache(maxsize=1 << 12)
def _class_plan(stat: StatId, m: int, n: int, mask: int):
    """The reduction of every normalized pair of sizes m, n whose rewritten
    side has descent bitmask ``mask``, read off the one whose other side
    is increasing: its start measure and, per step, the kind, the params
    as items, the target of the rewritten side and the measure after."""
    on_sigma = stat in SIGMA_SIDE_STATS
    pi, sigma = tuple(range(1, m + 1)), tuple(range(m + 1, m + n + 1))
    side = perm_with_descent_set(sigma if on_sigma else pi, mask_positions(mask))
    pi, sigma = (pi, side) if on_sigma else (side, sigma)
    move = partial(_sigma_side_step if on_sigma else _pi_side_step, stat)
    trace = run_reduction(stat, pi, sigma, partial(_measure, stat), move)
    return trace.start_measure, tuple(
        (s.kind, tuple(s.params.items()), s.target_sigma if on_sigma else s.target_pi,
         s.measure_after) for s in trace.steps)


@lru_cache(maxsize=512)  # every split up to the shuffle-set bound of 20
def _ground_sets(m: int, n: int) -> tuple[frozenset, frozenset]:
    """The value sets [m] and [n]+m of a normalized pair's sides."""
    return frozenset(range(1, m + 1)), frozenset(range(m + 1, m + n + 1))


def canonicalize(stat: StatId, pi: Perm, sigma: Perm):
    """Reduce a separated pair to its canonical profile.

    Statistics in ``SIGMA_SIDE_STATS`` rewrite sigma, the others pi.
    Returns the canonical permutation for the rewritten side together with
    a trace whose replay (:func:`apply_trace`) is a bijection from the
    starting shuffle set onto the canonical one, preserving ``stat``
    pointwise; major-index components are instead lowered by exactly the
    number of descent-side steps.  The termination measure decreases
    strictly at every step.
    """
    if stat not in SUPPORTED_STATS:
        validate_stat(stat)  # names what is wrong with an id that is no statistic
        raise ValueError(f"no reduction pipeline for statistic {stat!r}")
    pi, sigma = tuple(pi), tuple(sigma)
    m, n = len(pi), len(sigma)
    ground_pi, ground_sigma = _ground_sets(m, n)
    if set(pi) != ground_pi or set(sigma) != ground_sigma:
        raise ValueError("operands must be normalized to [m] and [n]+m (see normalize_pair)")

    on_sigma = stat in SIGMA_SIDE_STATS
    start, plan = _class_plan(stat, m, n, descent_mask(sigma if on_sigma else pi))
    steps, pair = [], (pi, sigma)
    for kind, params, side, after in plan:  # each step is checked as it is built
        nxt = (pi, side) if on_sigma else (side, sigma)
        steps.append(ReductionStep(kind, dict(params), *pair, *nxt, after))
        pair = nxt
    return pair[on_sigma], ReductionTrace(stat, tuple(steps), pi, sigma, *pair, start)


def maj_decrement(trace: ReductionTrace) -> int:
    """Total drop in major index a replay applies to every interleaving."""
    return sum(_KINDS[s.kind].maj_drop for s in trace.steps)


def apply_step(step: ReductionStep, tau: Perm) -> Perm:
    """Replay one recorded rewrite on one interleaving, by ``traces.step_replay``."""
    return step_replay(step)(tau)


def apply_trace(trace: ReductionTrace, tau: Perm) -> Perm:
    """Replay every step of a trace on one interleaving of its start pair."""
    _require_shuffle(tau, trace.start_pi, trace.start_sigma)
    for step in trace.steps:
        tau = apply_step(step, tau)
    return tau
