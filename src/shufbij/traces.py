"""Replayable bijection traces.

A step rewrites one side of a pair of disjoint permutations and carries
everything needed to replay the corresponding bijection on any single
interleaving of the source pair: the step kind, its indices, the full
(source, target) pairs, and the termination measure after the step.

A step checks its (source, target) pairs once, when it is built, with the
checks of its kind below; replay (``reduce.step_replay``) then runs none.
``shuffle.normalize_pair`` and the plans of ``reduce.canonicalize`` run
their moves through one driver, :func:`run_reduction`.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .perm import Perm, _check_disjoint, format_perm, mask_positions
from .stats import descent_mask, format_stat, peak_family

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


# Pair checks per step kind; ``t_swap`` has none.
_PAIR_CHECKS = {
    "phi": lambda s: _check_rename(s.source_pi, s.target_pi, s.source_sigma),
    "phi_tilde": lambda s: _check_rename(s.source_sigma, s.target_sigma, s.source_pi),
    "theta_des": _check_theta_des,
    "theta_maj_first": _check_theta_maj_first,
    "theta_pk": _check_theta_pk,
    "theta_lpk": _check_theta_lpk,
    "theta_rpk_inverse": _check_theta_rpk_inverse,
}

# The index parameter each kind replays at.
_INDEX_PARAMS = {"t_swap": "i", "theta_des": "i", "theta_pk": "j", "theta_rpk_inverse": "j"}


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
    """One step of a trace: an immutable tuple of its fields, checked
    against its kind when it is built."""

    __slots__ = ()

    def __new__(cls, kind: str, params=None, source_pi: Perm = (), source_sigma: Perm = (),
                target_pi: Perm = (), target_sigma: Perm = (), measure_after: int = 0):
        params = {} if params is None else params
        self = tuple.__new__(cls, (kind, params, source_pi, source_sigma,
                                   target_pi, target_sigma, measure_after))
        if kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {kind!r}")
        index = _INDEX_PARAMS.get(kind)
        if index is not None and not isinstance(params.get(index), int):
            raise ValueError(f"a {kind} step needs an integer parameter {index!r}")
        check = _PAIR_CHECKS.get(kind)
        if check is not None:
            check(self)
        return self


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
