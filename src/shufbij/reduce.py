"""Statistic-preserving reduction bijections and canonical-form pipelines.

Each elementary move rewrites one side of a separated pair (every entry of
``sigma`` above every entry of ``pi``) and acts on a single interleaving:

* ``theta_des`` moves a descent of the sigma side one position left,
  preserving the descent count and lowering the major index by one.
* ``theta_maj_first`` kills a descent at position 1 of the sigma side by
  conjugating the ``theta_des`` move with a prepended new maximum.
* ``theta_pk`` moves an interior peak of the pi side one position left,
  preserving the peak count of every interleaving.
* ``theta_lpk`` and the right- and exterior-peak moves are the same
  interior move under a sentinel framing, built by one helper
  (:func:`_peak_move`): a low entry prepended for a peak at position 2, a
  low entry appended for the right end.  A right peak moves right by the
  inverse move, which is the interior move with source and target
  swapped, so it too is a forward move on the appended framing.

``canonicalize`` iterates the appropriate move with a strictly decreasing
measure until the rewritten side reaches its canonical profile; the side
it rewrites follows from the statistic.  ``lpk``, ``udr``, ``(udr,pk)``
and ``epk`` share one left-peak mover, which differs per statistic only
in the least left peak it may move and in whether the target keeps the
final ascent of pi; ``epk`` adds the move of a peak at the last position
on the appended framing.  Each step is recorded in a trace that
``apply_trace`` replays on any interleaving of the starting pair as a
statistic-preserving bijection.  A :class:`ReductionStep` checks its pairs
once, when it is built; :func:`step_replay` reads its kind and constants
once into a check-free function of one interleaving, the one replay path
of the kind, which ``apply_step`` calls once and the pipeline audit maps
over a shuffle set.  The public ``theta_*`` functions build the step,
check that ``tau`` is a shuffle of the pair, and replay it.

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

from .perm import (
    Perm,
    mask_positions,
    perm_with_descent_set,
    perm_with_left_peak_profile,
    space_labels,
)
from .shuffle import _rename, _require_shuffle, t_swap
from .stats import (
    StatId,
    chi_plus,
    des_set,
    descent_mask,
    maj,
    peak_family,
    validate_stat,
)
from .traces import ReductionStep, ReductionTrace, run_reduction

SIGMA_SIDE_STATS = ("des", ("maj", "des"), "maj")
PI_SIDE_STATS = ("pk", "lpk", "rpk", "epk", "udr", ("udr", "pk"))
SUPPORTED_STATS = SIGMA_SIDE_STATS + PI_SIDE_STATS

# Framing entries.  The moves only locate them and test membership, never
# compare them, so any fresh objects can stand for a new maximum or for a
# value below everything.
_FRONT, _BACK = object(), object()


# ---------------------------------------------------------------------------
# descent-side moves


def _des_move(sigma: Perm, i: int, sigma_new: Perm):
    """Replay of :func:`theta_des`, as a function of one interleaving.

    The entry sigma_i is the only sigma entry strictly between sigma_{i-1}
    and sigma_{i+1} in an interleaving; it is removed from the block of pi
    entries around it and reinserted one labeled space lower (cyclically),
    after which the sigma entries are renamed to ``sigma_new``.
    """
    prev_v, peak_v, next_v, old = sigma[i - 2], sigma[i - 1], sigma[i], frozenset(sigma)

    def move(tau: Perm) -> Perm:
        pa, pc = tau.index(prev_v), tau.index(next_v)
        block = tau[pa + 1 : pc]
        r = block.index(peak_v)
        delta = block[:r] + block[r + 1 :]
        if delta:
            labels = space_labels(delta)
            r_new = labels.index((labels[r] - 1) % (len(delta) + 1))
            block = delta[:r_new] + (peak_v,) + delta[r_new:]
        return _rename(tau[: pa + 1] + block + tau[pc:], old, sigma_new)

    return move


def theta_des(tau: Perm, pi: Perm, sigma: Perm, i: int, sigma_new: Perm) -> Perm:
    """Move the descent of ``sigma`` at an interior peak position ``i`` one
    step left, rewriting ``tau`` accordingly.

    The image keeps the descent count and has major index exactly one
    lower.
    """
    step = ReductionStep("theta_des", {"i": i}, pi, sigma, pi, sigma_new)
    _require_shuffle(tau, pi, sigma)
    return apply_step(step, tau)


def theta_maj_first(tau: Perm, pi: Perm, sigma: Perm, sigma_new: Perm) -> Perm:
    """Remove a descent at position 1 of ``sigma``, lowering the major
    index of ``tau`` by one.

    Prepends a new maximum to the sigma side, which turns the front
    descent into an interior peak at position 2, applies the
    :func:`theta_des` move there, and strips the prepended entry.
    Requires sigma and ``sigma_new`` above pi, and ``sigma_new`` on
    sigma's values; the move compares no values, so any such domains do.
    """
    step = ReductionStep("theta_maj_first", {}, pi, sigma, pi, sigma_new)
    _require_shuffle(tau, pi, sigma)
    return apply_step(step, tau)


# ---------------------------------------------------------------------------
# peak-side moves


def _pk_core(a_src: Perm, a_tgt: Perm, j: int):
    """The move of the interior peak of ``a_src`` at position j (1-based,
    >= 3) to j-1, realized by ``a_tgt``, as a function of one interleaving.

    Entries outside ``a_src`` pass through and must all exceed every
    ``a_src`` entry.  The factor of an interleaving strictly between
    a_{j-2} and a_{j+1} splits as sa, a_{j-1}, sb, a_j, sc on the foreign
    entries; when exactly one outer foreign block is present it is carried
    across the two a-entries, otherwise only the a-entries are renamed in
    place.  Swapping ``a_src`` and ``a_tgt`` gives the inverse move.
    """
    low, high, pair, old = a_src[j - 3], a_src[j], a_src[j - 2 : j], frozenset(a_src)

    def move(tau: Perm) -> Perm:
        s, t = tau.index(low), tau.index(high)
        block = tau[s + 1 : t]
        i1, i2 = block.index(pair[0]), block.index(pair[1])
        sa, sb, sc = block[:i1], block[i1 + 1 : i2], block[i2 + 1 :]
        if sa and not sb and not sc:
            tau = tau[: s + 1] + pair + sa + tau[t:]
        elif sc and not sa and not sb:
            tau = tau[: s + 1] + sc + pair + tau[t:]
        return _rename(tau, old, a_tgt)

    return move


def _peak_move(src: Perm, tgt: Perm, j: int, append: bool = False):
    """:func:`_pk_core` at position j from ``src`` to ``tgt``, under a
    sentinel framing, as a function of one interleaving.

    With ``append`` a low entry is appended to all three sequences, so a
    peak at the last position counts; a move at position 2 gets a low
    entry in front, so the core sees position 3.
    """
    if j > 2 and not append:
        return _pk_core(src, tgt, j)
    front, back = (_FRONT,) * (j == 2), (_BACK,) * append
    core = _pk_core(front + src + back, front + tgt + back, j + len(front))
    strip = slice(len(front), -1 if append else None)
    return lambda tau: core(front + tau + back)[strip]


def theta_pk(tau: Perm, pi: Perm, pi_new: Perm, sigma: Perm, j: int) -> Perm:
    """Move the interior peak of ``pi`` at position j (>= 3) to j-1,
    rewriting ``tau``; the interleaving keeps its peak count."""
    step = ReductionStep("theta_pk", {"j": j}, pi, sigma, pi_new, sigma)
    _require_shuffle(tau, pi, sigma)
    return apply_step(step, tau)


def theta_lpk(tau: Perm, pi: Perm, sigma: Perm, pi_new: Perm) -> Perm:
    """Move a left peak at position 2 of ``pi`` to position 1.

    Prepends a low sentinel to both sides of the move, turning the left
    peak into an interior peak at position 3, applies the interior move,
    and strips the sentinel.
    """
    step = ReductionStep("theta_lpk", {"j": 2}, pi, sigma, pi_new, sigma)
    _require_shuffle(tau, pi, sigma)
    return apply_step(step, tau)


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
    stat = validate_stat(stat)
    if stat not in SUPPORTED_STATS:
        raise ValueError(f"no reduction pipeline for statistic {stat!r}")
    m, n = len(pi), len(sigma)
    if set(pi) != set(range(1, m + 1)) or set(sigma) != set(range(m + 1, m + n + 1)):
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
    return sum(1 for s in trace.steps if s.kind in ("theta_des", "theta_maj_first"))


def _theta_maj_first_replay(step: ReductionStep):
    # A new maximum in front of sigma turns its front descent into an
    # interior peak at position 2: move that, then strip it.
    move = _des_move((_FRONT,) + step.source_sigma, 2, (_FRONT,) + step.target_sigma)
    return lambda tau: move((_FRONT,) + tau)[1:]


def _rename_replay(old: Perm, new: Perm):
    old = frozenset(old)
    return lambda tau: _rename(tau, old, new)


def _t_swap_replay(step: ReductionStep):
    i = step.params["i"]
    return lambda tau: t_swap(tau, i)


# The replay of each step kind, built from the step.  The right peak moves
# from j to j+1 by the inverse of the move j+1 -> j from target to source:
# the core with its operands swapped, on the appended frame.  On that frame
# a theta_pk step moves an exterior peak at the last position one step left.
_REPLAYS = {
    "t_swap": _t_swap_replay,
    "phi": lambda s: _rename_replay(s.source_pi, s.target_pi),
    "phi_tilde": lambda s: _rename_replay(s.source_sigma, s.target_sigma),
    "theta_des": lambda s: _des_move(s.source_sigma, s.params["i"], s.target_sigma),
    "theta_maj_first": _theta_maj_first_replay,
    "theta_pk": lambda s: _peak_move(s.source_pi, s.target_pi, s.params["j"],
                                     s.params.get("frame") == "append"),
    "theta_lpk": lambda s: _peak_move(s.source_pi, s.target_pi, 2),
    "theta_rpk_inverse": lambda s: _peak_move(s.source_pi, s.target_pi, s.params["j"] + 1, True),
}


def step_replay(step: ReductionStep):
    """The replay of one recorded rewrite as a function of one interleaving,
    a shuffle of the step's source pair, with the kind and its constants
    read once.  The step checked its pairs when it was built, so the
    function checks nothing."""
    return _REPLAYS[step.kind](step)


def apply_step(step: ReductionStep, tau: Perm) -> Perm:
    """Replay one recorded rewrite on one interleaving, by :func:`step_replay`."""
    return step_replay(step)(tau)


def apply_trace(trace: ReductionTrace, tau: Perm) -> Perm:
    """Replay every step of a trace on one interleaving of its start pair."""
    _require_shuffle(tau, trace.start_pi, trace.start_sigma)
    for step in trace.steps:
        tau = apply_step(step, tau)
    return tau
