"""Reduction steps, their kinds, and replayable bijection traces.

A step rewrites one side of a pair of disjoint permutations and carries
everything needed to replay the corresponding bijection on any single
interleaving of the source pair: the step kind, its indices, the full
(source, target) pairs, and the termination measure after the step.

Each step kind is defined once, in :data:`_KINDS`: the integer parameter
it replays at, the check of its (source, target) pairs, and the builder
of its replay.  The kinds are the paper's elementary bijections:

* ``phi`` and ``phi_tilde`` replace the pi or the sigma side in place;
* ``t_swap`` exchanges the values i and i-1 unless they are adjacent;
* ``theta_des`` moves a descent of the sigma side one position left,
  preserving the descent count and lowering the major index by one;
* ``theta_maj_first`` kills a descent at position 1 of the sigma side by
  conjugating the ``theta_des`` move with a prepended new maximum;
* ``theta_pk`` moves an interior peak of the pi side one position left,
  preserving the peak count of every interleaving;
* ``theta_lpk`` and the right- and exterior-peak moves are the same
  interior move under a sentinel framing (:func:`_peak_move`): a low entry
  prepended for a peak at position 2, a low entry appended for the right
  end, where ``theta_rpk_inverse`` moves a right peak right by the inverse
  move (see :data:`_KINDS`).

Every move but ``t_swap`` renames one side by the map from its old to
its new values.  That equals renaming by position exactly when the move
keeps the side in order, as each does on a shuffle of its source pair:
``phi`` and ``phi_tilde`` move nothing, the descent move moves sigma_i
only between sigma_{i-1} and sigma_{i+1}, and the peak move carries
foreign entries across its pair a_{j-1}, a_j.  The descent move puts
sigma_i into the gap one space label lower (``perm.space_labels``,
cyclically).  Labels fall by one from gap 0 through the descent gaps to
the final gap, and rise through the other gaps, left to right; so
:func:`_gap_below` takes, from gap 0 or a descent gap, the next descent
gap to the right or else the final gap, and from any other gap the
nearest non-descent gap to its left.

A step runs its kind's check once, when it is built; :func:`step_replay`
then reads its kind and constants once into a check-free function of one
interleaving, the one replay path of the kind.  ``reduce.apply_trace``,
the pipeline audit and the public moves (``shuffle.phi`` and
``phi_tilde``, ``reduce.theta_*``, each one call of :func:`_replay_move`)
all replay through it.  ``shuffle.normalize_pair`` and the plans of
``reduce.canonicalize`` run their moves through one driver,
:func:`run_reduction`.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from .perm import Perm, _check_disjoint, format_perm, mask_positions
from .shuffle import _require_shuffle, t_swap
from .stats import descent_mask, format_stat, peak_family


def _require_separated(pi: Perm, sigma: Perm) -> None:
    if pi and sigma and max(pi) >= min(sigma):
        raise ValueError(f"every entry of {sigma} must exceed every entry of {pi}")


def _check_rename(old: Perm, new: Perm, other: Perm) -> None:
    if len(old) != len(new):
        raise ValueError("replacement permutation must have the same length")
    _check_disjoint(new, other)
    _check_disjoint(old, other)


def _check_theta_des(step: ReductionStep) -> None:
    pi, sigma, sigma_new = step.source_pi, step.source_sigma, step.target_sigma
    i = step.params["i"]
    _require_separated(pi, sigma)
    _require_separated(pi, sigma_new)
    n = len(sigma)
    if not 2 <= i <= n - 1:
        raise ValueError(f"index {i} has no neighbors on both sides")
    if not (sigma[i - 2] < sigma[i - 1] > sigma[i]):
        raise ValueError(f"{i} is not an interior peak of {sigma}")
    want = descent_mask(sigma) ^ (3 << i - 1)  # the descent at i moves to i-1
    if descent_mask(sigma_new) != want or len(sigma_new) != n:
        raise ValueError(
            f"replacement must have descent set {sorted(mask_positions(want))}, got {sigma_new}"
        )


def _check_theta_maj_first(step: ReductionStep) -> None:
    pi, sigma, sigma_new = step.source_pi, step.source_sigma, step.target_sigma
    _require_separated(pi, sigma)
    _require_separated(pi, sigma_new)
    if len(sigma) < 2 or not sigma[0] > sigma[1]:
        raise ValueError(f"{sigma} has no descent at position 1")
    want = descent_mask(sigma) ^ 2  # the descent at 1 goes
    if descent_mask(sigma_new) != want or set(sigma_new) != set(sigma):
        raise ValueError(
            f"replacement must have descent set {sorted(mask_positions(want))}, got {sigma_new}"
        )


def _check_peak_shift(step: ReductionStep, variant: str, j: int, by: int = -1) -> None:
    """The target's peak set is the source's with the peak at j moved to
    j+by, one position left (by = -1) or right (by = 1)."""
    pi, pi_new = step.source_pi, step.target_pi
    if set(pi) != set(pi_new):
        raise ValueError("replacement permutation must share the domain")
    peaks = peak_family(pi, variant)
    if j not in peaks:
        raise ValueError(f"{j} is not a {variant} peak of {pi}")
    if j + 2 * by in peaks:
        raise ValueError(f"peak at {j + 2 * by} blocks moving the peak at {j}")
    want = (peaks - {j}) | {j + by}
    if peak_family(pi_new, variant) != want:
        raise ValueError(
            f"replacement must have {variant} peak set {sorted(want)}, got {pi_new}"
        )


def _check_theta_pk(step: ReductionStep) -> None:
    _require_separated(step.source_pi, step.source_sigma)
    j = step.params["j"]
    if step.params.get("frame") == "append":
        if j != len(step.source_pi):
            raise ValueError(f"an appended-frame move starts at the last position, not {j}")
        _check_peak_shift(step, "exterior", j)
    else:
        if j < 3:
            raise ValueError(f"interior move needs position >= 3, got {j}")
        _check_peak_shift(step, "interior", j)


def _check_theta_lpk(step: ReductionStep) -> None:
    _require_separated(step.source_pi, step.source_sigma)
    if any(v <= 0 for v in step.source_pi):
        raise ValueError("pi must have positive entries")
    _check_peak_shift(step, "left", 2)


def _check_theta_rpk_inverse(step: ReductionStep) -> None:
    _require_separated(step.source_pi, step.source_sigma)
    _check_peak_shift(step, "right", step.params["j"], by=1)


# ---------------------------------------------------------------------------
# replays, each a function of one interleaving of its step's source pair

# Framing entries.  The moves only locate them and rename them to
# themselves, never compare them, so any fresh objects can stand for a new
# maximum or for a value below everything.
_FRONT, _BACK = object(), object()


def _rename_replay(old: Perm, new: Perm):
    """The replay of ``phi`` and ``phi_tilde``: ``old`` replaced by ``new``."""
    get = dict(zip(old, new)).get
    return lambda tau: tuple(map(get, tau, tau))


def _t_swap_replay(step: ReductionStep):
    i = step.params["i"]
    return lambda tau: t_swap(tau, i)


def _gap_below(delta: Perm, r: int) -> int:
    """The gap of ``delta`` one space label below gap r, read off its
    descents by the rule in the module docstring."""
    n = len(delta)
    if r == 0 or (r < n and delta[r - 1] > delta[r]):
        r += 1
        while r < n and delta[r - 1] < delta[r]:
            r += 1
        return r
    r -= 1
    while r and delta[r - 1] > delta[r]:
        r -= 1
    return r


def _des_move(sigma: Perm, i: int, sigma_new: Perm):
    """Replay of ``theta_des``.

    The entry sigma_i is the only sigma entry strictly between sigma_{i-1}
    and sigma_{i+1} in an interleaving; it is removed from the block of pi
    entries around it and reinserted one labeled space lower (cyclically,
    :func:`_gap_below`), after which the sigma entries are renamed to
    ``sigma_new``.
    """
    prev_v, peak_v, next_v = sigma[i - 2], sigma[i - 1], sigma[i]
    get = dict(zip(sigma, sigma_new)).get

    def move(tau: Perm) -> Perm:
        pa, pc = tau.index(prev_v), tau.index(next_v)
        block = tau[pa + 1 : pc]
        r = block.index(peak_v)
        delta = block[:r] + block[r + 1 :]
        if delta:
            r_new = _gap_below(delta, r)
            block = delta[:r_new] + (peak_v,) + delta[r_new:]
        tau = tau[: pa + 1] + block + tau[pc:]
        return tuple(map(get, tau, tau))

    return move


def _theta_maj_first_replay(step: ReductionStep):
    # A new maximum in front of sigma turns its front descent into an
    # interior peak at position 2: move that, then strip it.
    move = _des_move((_FRONT,) + step.source_sigma, 2, (_FRONT,) + step.target_sigma)
    return lambda tau: move((_FRONT,) + tau)[1:]


def _pk_core(a_src: Perm, a_tgt: Perm, j: int):
    """The move of the interior peak of ``a_src`` at position j (1-based,
    >= 3) to j-1, realized by ``a_tgt``.

    Entries outside ``a_src`` pass through and must all exceed every
    ``a_src`` entry.  The factor of an interleaving strictly between
    a_{j-2} and a_{j+1} splits as sa, a_{j-1}, sb, a_j, sc on the foreign
    entries; when exactly one outer foreign block is present it is carried
    across the two a-entries, otherwise only the a-entries are renamed in
    place.  Swapping ``a_src`` and ``a_tgt`` gives the inverse move.
    """
    low, high, pair = a_src[j - 3], a_src[j], a_src[j - 2 : j]
    get = dict(zip(a_src, a_tgt)).get

    def move(tau: Perm) -> Perm:
        s, t = tau.index(low), tau.index(high)
        block = tau[s + 1 : t]
        i1, i2 = block.index(pair[0]), block.index(pair[1])
        sa, sb, sc = block[:i1], block[i1 + 1 : i2], block[i2 + 1 :]
        if sa and not sb and not sc:
            tau = tau[: s + 1] + pair + sa + tau[t:]
        elif sc and not sa and not sb:
            tau = tau[: s + 1] + sc + pair + tau[t:]
        return tuple(map(get, tau, tau))

    return move


def _peak_move(src: Perm, tgt: Perm, j: int, append: bool = False):
    """:func:`_pk_core` at position j from ``src`` to ``tgt``, under a
    sentinel framing.

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


# ---------------------------------------------------------------------------
# the kinds


class _Kind(NamedTuple):
    index: Optional[str]  # the integer parameter the replay reads, if any
    check: Any  # step -> None, raising on a bad pair; None: no check
    replay: Any  # step -> its replay (step_replay)
    maj_drop: int = 0  # how far the replay lowers the major index of every interleaving


# Every step kind.  The right peak moves from j to j+1 by the inverse of the
# move j+1 -> j from target to source: the core with its operands swapped,
# on the appended frame.  On that frame a theta_pk step moves an exterior
# peak at the last position one step left.
_KINDS = {
    "t_swap": _Kind("i", None, _t_swap_replay),
    "phi": _Kind(None, lambda s: _check_rename(s.source_pi, s.target_pi, s.source_sigma),
                 lambda s: _rename_replay(s.source_pi, s.target_pi)),
    "phi_tilde": _Kind(None, lambda s: _check_rename(s.source_sigma, s.target_sigma, s.source_pi),
                       lambda s: _rename_replay(s.source_sigma, s.target_sigma)),
    "theta_des": _Kind("i", _check_theta_des,
                       lambda s: _des_move(s.source_sigma, s.params["i"], s.target_sigma), 1),
    "theta_maj_first": _Kind(None, _check_theta_maj_first, _theta_maj_first_replay, 1),
    "theta_pk": _Kind("j", _check_theta_pk,
                      lambda s: _peak_move(s.source_pi, s.target_pi, s.params["j"],
                                           s.params.get("frame") == "append")),
    "theta_lpk": _Kind(None, _check_theta_lpk, lambda s: _peak_move(s.source_pi, s.target_pi, 2)),
    "theta_rpk_inverse": _Kind("j", _check_theta_rpk_inverse, lambda s: _peak_move(
        s.source_pi, s.target_pi, s.params["j"] + 1, True)),
}
STEP_KINDS = tuple(_KINDS)


class _Step(NamedTuple):
    kind: str
    params: dict[str, Any]
    source_pi: Perm
    source_sigma: Perm
    target_pi: Perm
    target_sigma: Perm
    measure_after: int

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "source": {"pi": format_perm(self.source_pi), "sigma": format_perm(self.source_sigma)},
            "target": {"pi": format_perm(self.target_pi), "sigma": format_perm(self.target_sigma)},
            "measure_after": self.measure_after,
        }


class ReductionStep(_Step):
    """One step of a trace: an immutable tuple of its fields, the pairs
    frozen to tuples, checked against its kind when it is built."""

    __slots__ = ()

    def __new__(cls, kind: str, params=None, source_pi: Perm = (), source_sigma: Perm = (),
                target_pi: Perm = (), target_sigma: Perm = (), measure_after: int = 0):
        params = {} if params is None else params
        self = tuple.__new__(cls, (kind, params, tuple(source_pi), tuple(source_sigma),
                                   tuple(target_pi), tuple(target_sigma), measure_after))
        if kind not in _KINDS:
            raise ValueError(f"unknown step kind {kind!r}")
        index, check, _, _ = _KINDS[kind]
        value = params.get(index)
        if index is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise ValueError(f"a {kind} step needs an integer parameter {index!r}")
        if check is not None:
            check(self)
        return self


def step_replay(step: ReductionStep):
    """The replay of one recorded rewrite as a function of one interleaving,
    a shuffle of the step's source pair, with the kind and its constants
    read once.  The step checked its pairs when it was built, so the
    function checks nothing."""
    return _KINDS[step.kind].replay(step)


def _replay_move(tau: Perm, kind: str, params, pi: Perm, sigma: Perm,
                 pi_new: Perm, sigma_new: Perm) -> Perm:
    """A public move: build its step from (pi, sigma) to (pi_new,
    sigma_new), which checks the pairs, check that ``tau`` is a shuffle of
    the source pair, and replay the step on it."""
    step = ReductionStep(kind, params, pi, sigma, pi_new, sigma_new)
    _require_shuffle(tau, step.source_pi, step.source_sigma)
    return step_replay(step)(tau)


class _Trace(NamedTuple):
    statistic: Any
    steps: tuple[ReductionStep, ...]
    start_pi: Perm
    start_sigma: Perm
    final_pi: Perm
    final_sigma: Perm
    start_measure: int


class ReductionTrace(_Trace):
    """A reduction: its steps and the pairs and measure it starts and ends at."""

    __slots__ = ()

    @property
    def measure_values(self) -> tuple[int, ...]:
        """Measure after each step; strictly below ``start_measure`` and
        decreasing when every step claims progress."""
        return tuple(s.measure_after for s in self.steps)

    def __len__(self) -> int:
        """The number of steps, not of fields: a trace without steps is falsy."""
        return len(self.steps)

    @classmethod
    def _make(cls, iterable) -> ReductionTrace:
        """Build through the fields, as ``_replace`` does through this: the
        inherited check compares ``len``, which counts steps, with 7."""
        return cls(*iterable)

    def to_json(self) -> dict:
        return {
            "statistic": format_stat(self.statistic),
            "start": {"pi": format_perm(self.start_pi), "sigma": format_perm(self.start_sigma)},
            "final": {"pi": format_perm(self.final_pi), "sigma": format_perm(self.final_sigma)},
            "start_measure": self.start_measure,
            "steps": [s.to_json() for s in self.steps],
        }


def run_reduction(statistic, pi: Perm, sigma: Perm, measure, move, steps=()) -> ReductionTrace:
    """Apply ``move`` until it returns None and record the trace from
    (``pi``, ``sigma``).

    ``move`` maps the current pair to ``(kind, params, next_pi,
    next_sigma)``; each step records ``measure`` of the pair it reaches.
    The moves start where ``steps``, if any are given, leave the pair,
    and the start measure is taken there.
    """
    steps = list(steps)
    pair = (steps[-1].target_pi, steps[-1].target_sigma) if steps else (pi, sigma)
    start_measure = measure(*pair)
    while (found := move(*pair)) is not None:
        kind, params, nxt_pi, nxt_sg = found
        steps.append(ReductionStep(kind, params, *pair, nxt_pi, nxt_sg, measure(nxt_pi, nxt_sg)))
        pair = nxt_pi, nxt_sg
    return ReductionTrace(statistic, tuple(steps), pi, sigma, *pair, start_measure)
