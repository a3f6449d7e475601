"""Exhaustive verification: compatibility sweeps, bijection audits,
identity checks, and counterexample search.

Everything here is exact exhaustive enumeration at desk scale.  Size
bounds are explicit parameters with one default per engine
(:func:`default_limit`); a request beyond the bound raises
:class:`~shufbij.errors.ResourceLimitError` instead of silently
truncating.  Searches run in a fixed enumeration order, so the
witness returned for a failing claim is deterministic.

For a descent statistic the distribution over a shuffle set depends only
on the descent classes of the operands (it is read off the product of
their fundamental quasisymmetric functions).  The sweeps in every mode,
the counterexample search and the identities therefore put sigma above
pi, walk the operands by class (:func:`~shufbij.perm.descent_classes`),
and read each class pair's distribution off one table per shape from one
transfer-matrix DP (:func:`~shufbij.shuffle.class_pair_distributions`):
every class pair for full mode and the identities; for a reduced sweep
(both of them at once in the conjecture) the mover classes in value
groups of two or more, and no table when there are none.  A reduced
sweep labels a class by the statistic's rule on its bitmask and builds
least members for a witness only; full mode and the identities walk each
class with its least member, and full mode over any other statistic
walks each permutation as its own class.  Cases and witnesses are those
a lexicographic pair-by-pair scan would report, read off the ranks of
the failing pair's members and the class sizes.  The pipeline audit and
:meth:`Witness.recheck` enumerate shuffle sets; the audit replays its
trace unchecked, one function per step, and reads the statistic's rule
once.  A report fails exactly when it has a witness.
"""

from __future__ import annotations

import time
from itertools import combinations, permutations, product
from math import factorial
from operator import le
from typing import NamedTuple, Optional

from .errors import DEFAULT_CLASS_LIMIT, DEFAULT_ENUM_LIMIT, DEFAULT_SHUFFLE_LIMIT, ENV_LIMIT_VAR
from .errors import _gate, _resolve_limit
from .perm import Perm, count_before, descent_classes, format_perm, lex_rank
from .perm import least_with_descent_set, mask_positions
from .qpoly import QPoly, distribution_poly, stanley_refined_table, stanley_rhs
from .reduce import canonicalize, maj_decrement, step_replay
from .shuffle import class_pair_distributions, shuffles
from .stats import (
    Distribution,
    StatId,
    descent_mask,
    descent_rule,
    distribution,
    distribution_entries,
    distribution_to_json,
    evaluate,
    format_stat,
    format_stat_value,
    is_descent_statistic,
    validate_stat,
)

MODES = ("reduced_pi", "reduced_sigma", "full")


def default_limit(stat: StatId) -> int:
    """The default largest m+n of every scan over ``stat``: 10 for a descent
    statistic, whose scans read class-pair tables, and 6 with ``inv``,
    whose scans enumerate shuffle sets."""
    return DEFAULT_CLASS_LIMIT if is_descent_statistic(stat) else DEFAULT_ENUM_LIMIT


class Witness:
    """A pair of equally-labeled instances whose distributions differ.

    Its fields can be reassigned, so :meth:`recheck` can be seen to fail
    on stale data."""

    __slots__ = ("pi", "pi_prime", "sigma", "sigma_prime", "statistic", "dist_left", "dist_right")

    def __init__(self, pi: Perm, pi_prime: Perm, sigma: Perm, sigma_prime: Perm,
                 statistic: StatId, dist_left: Distribution, dist_right: Distribution):
        self.pi, self.pi_prime, self.sigma, self.sigma_prime = pi, pi_prime, sigma, sigma_prime
        self.statistic, self.dist_left, self.dist_right = statistic, dist_left, dist_right

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is Witness else NotImplemented

    def __repr__(self) -> str:
        return f"Witness({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

    def recheck(self) -> bool:
        """Recompute everything from scratch and confirm the inequality."""
        same_labels = (
            evaluate(self.statistic, self.pi) == evaluate(self.statistic, self.pi_prime)
            and evaluate(self.statistic, self.sigma)
            == evaluate(self.statistic, self.sigma_prime)
        )
        left = distribution(self.statistic, shuffles(self.pi, self.sigma))
        right = distribution(self.statistic, shuffles(self.pi_prime, self.sigma_prime))
        return (
            same_labels
            and left != right
            and left == self.dist_left
            and right == self.dist_right
        )

    def to_json(self) -> dict:
        return {
            "pi": format_perm(self.pi),
            "pi_prime": format_perm(self.pi_prime),
            "sigma": format_perm(self.sigma),
            "sigma_prime": format_perm(self.sigma_prime),
            "statistic": format_stat(self.statistic),
            "dist_left": distribution_to_json(self.dist_left),
            "dist_right": distribution_to_json(self.dist_right),
        }


class Report(NamedTuple):
    subject: str
    scope: str
    witness: Optional[Witness]
    cases_checked: int
    elapsed: float

    @property
    def outcome(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_json(self, include_elapsed: bool = False) -> dict:
        out = {
            "subject": self.subject,
            "scope": self.scope,
            "outcome": self.outcome,
            "cases_checked": self.cases_checked,
            "witness": self.witness.to_json() if self.witness else None,
        }
        if include_elapsed:
            out["elapsed_seconds"] = self.elapsed
        return out


def _singletons(ground) -> list:
    """Every permutation of ``ground`` as its own class, keyed by itself."""
    return [(p, p) for p in permutations(ground)]


def _least_member(ground, mask: int) -> Perm:
    return least_with_descent_set(ground, mask_positions(mask))


def _least_members(ground) -> list:
    """Every descent class of ``ground``, as (bitmask, least member)."""
    return [(mask, _least_member(ground, mask)) for mask, _ in descent_classes(len(ground))]


def _first_failure(m: int, n: int, fails, lows, classes):
    """Walk the ``(key, member)`` pairs of ``classes`` for each splitting
    (pi on a ground in ``lows``) in the order a lexicographic pair-by-pair
    scan first meets them, pi first.  Returns ``(found, cases)`` at the
    first pair that ``fails``, the cases of such a scan read off the ranks
    of the members; None on a pass."""
    n_count = factorial(n)
    for split, low in enumerate(lows):
        high = [v for v in range(1, m + n + 1) if v not in low]
        for (key_pi, pi), (key_sigma, sigma) in product(classes(low), classes(high)):
            found = fails(key_pi, pi, key_sigma, sigma)
            if found:  # each earlier splitting holds m!·n! pairs
                return found, (split * factorial(m) + lex_rank(pi)) * n_count + lex_rank(sigma) + 1
    return None


def _reduced_scans(stat: StatId, m: int, n: int, sides):
    """The one-sided sweeps of ``sides`` in turn, up to the first witness:
    ``(witness, cases)``.  All read one :func:`class_pair_distributions`
    table over the least product of class sets that pairs every mover class
    in a value group of two or more with every partner; none if no group."""
    rule, groups = descent_rule(stat), {}
    for side in sides:  # mover classes by value, as (descent bitmask, size)
        k = m if side == "pi" else n
        groups[side] = by_value = {}
        for mask, size in descent_classes(k):
            by_value.setdefault(rule(mask, k), []).append((mask, size))
    pis, sigmas = ({mask for members in groups.get(side, {}).values() if len(members) > 1
                    for mask, _ in members} for side in ("pi", "sigma"))
    table = class_pair_distributions(stat, m, n, None if sigmas else pis,
                                     None if pis else sigmas) if pis or sigmas else {}
    cases = 0
    for side in sides:
        witness, scanned = _reduced_scan(stat, m, n, side, groups[side], table)
        cases += scanned
        if witness:
            break
    return witness, cases


def _reduced_scan(stat: StatId, m: int, n: int, side: str, groups: dict, table: dict):
    """One-sided sweep: group the varying side by statistic value and
    require equal distributions within each group, for every fixed partner.

    A distribution depends only on the descent classes of the pair, so it
    is read off ``table`` (:func:`_reduced_scans`), and both sides are
    walked by descent bitmask (:func:`descent_classes`), never by
    permutation; ``groups`` holds the mover classes, labeled by the
    statistic's rule on the bitmask.  Cases and the first failing witness
    are those of a scan pair by pair in lexicographic order: the mover
    classes, grouped by value in rank order, meet the groups and their
    classes in first-occurrence order, and a failure's offset within its
    group is counted by :func:`count_before`.  Least members are built
    for the witness alone.
    """
    low, high = range(1, m + 1), range(m + 1, m + n + 1)
    mover_ground, partner_ground = (low, high) if side == "pi" else (high, low)
    mover_count = factorial(len(mover_ground))

    def dist_of(mover, partner):
        return table[mover, partner] if side == "pi" else table[partner, mover]

    for partner_mask, _ in descent_classes(len(partner_ground)):
        done = 0  # movers in the groups already passed for this partner
        for members in groups.values():
            if len(members) > 1:  # one class alone cannot disagree
                ref_mask = members[0][0]
                ref_dist = dist_of(ref_mask, partner_mask)
                for index, (mover_mask, _) in enumerate(members[1:], start=1):
                    dist = dist_of(mover_mask, partner_mask)
                    if dist != ref_dist:
                        ref = _least_member(mover_ground, ref_mask)
                        mover = _least_member(mover_ground, mover_mask)
                        partner = _least_member(partner_ground, partner_mask)
                        if side == "pi":
                            witness = Witness(ref, mover, partner, partner, stat, ref_dist, dist)
                        else:
                            witness = Witness(partner, partner, ref, mover, stat, ref_dist, dist)
                        offset = sum(
                            count_before(mover_ground, k, mover) for k, _ in members[:index]
                        )
                        return witness, lex_rank(partner) * mover_count + done + offset + 1
            done += sum(size for _, size in members)
    return None, mover_count * factorial(len(partner_ground))


def _full_scan(stat: StatId, m: int, n: int):
    """All splittings of [m+n]: distributions must agree across every pair
    of instances whose statistic labels agree.

    For a descent statistic the other splittings repeat the class pair
    distributions of the first (by the descent-preserving
    :func:`~shufbij.shuffle.normalize_pair`), so only the first is walked,
    by descent class with its least member, and a pass counts all (m+n)!
    pairs.  Any other statistic walks every splitting with each
    permutation as its own class.
    """

    def dist_of(pair):
        return distribution(stat, shuffles(*pair))

    lows, classes = combinations(range(1, m + n + 1), m), _singletons
    if is_descent_statistic(stat):
        lows, classes = [range(1, m + 1)], _least_members
        dist_of = class_pair_distributions(stat, m, n).__getitem__
    seen: dict = {}

    def fails(key_pi, pi, key_sigma, sigma):
        dist = dist_of((key_pi, key_sigma))
        prev = seen.setdefault((evaluate(stat, pi), evaluate(stat, sigma)), (dist, pi, sigma))
        return None if prev[0] == dist else Witness(prev[1], pi, prev[2], sigma, stat, prev[0], dist)

    return _first_failure(m, n, fails, lows, classes) or (None, factorial(m + n))


def check_compatibility(
    stat: StatId, m: int, n: int, mode: str = "reduced_pi", limit: Optional[int] = None
) -> Report:
    """Exhaustively test whether the distribution over the shuffle set
    depends only on the statistic values and lengths of the operands.

    ``reduced_pi`` varies the low side over [m] against every partner on
    [n]+m; ``reduced_sigma`` is the mirror; ``full`` covers all domain
    splittings of [m+n], walking the class pairs of the first alone for a
    descent statistic (:func:`_full_scan`).  For descent statistics each
    reduced mode, taken over all shapes, is equivalent to full
    compatibility, but not at one shape: ``(maj,Pk)`` at 1+7 passes
    ``reduced_pi`` (pi has one class, so nothing is compared) and fails
    ``reduced_sigma`` and ``full``.  Other statistics are refused there,
    since only ``full`` is meaningful evidence for them.
    """
    stat = validate_stat(stat)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "full" and not is_descent_statistic(stat):
        raise ValueError(
            f"{format_stat(stat)} is not a descent statistic, so mode {mode!r} "
            "is no evidence for it; use mode 'full' (--mode full)"
        )
    _gate(m, n, _resolve_limit(limit, default_limit(stat)), f"compatibility sweep ({mode})")
    start = time.perf_counter()
    if mode == "full":
        witness, cases = _full_scan(stat, m, n)
    else:
        witness, cases = _reduced_scans(stat, m, n, [mode.removeprefix("reduced_")])
    return Report(
        subject=f"shuffle compatibility of {format_stat(stat)} ({mode})",
        scope=f"|pi|={m}, |sigma|={n}",
        witness=witness,
        cases_checked=cases,
        elapsed=time.perf_counter() - start,
    )


def check_bijection_pipeline(stat: StatId, pi: Perm, sigma: Perm) -> Report:
    """Audit one canonicalization end to end.

    Refuses m+n above the shuffle-set bound, replays the trace step by step
    on the shuffle set, and checks that the measures strictly decrease, the
    images form the canonical shuffle set (of the same size, so this is a
    bijection), and the statistic is preserved pointwise (major-index
    components drop by exactly the number of descent-side steps).
    """
    limit = _resolve_limit(None, DEFAULT_SHUFFLE_LIMIT)
    _gate(len(pi), len(sigma), limit, "bijection audit", how=f"set {ENV_LIMIT_VAR}")
    start = time.perf_counter()
    _, trace = canonicalize(stat, pi, sigma)

    problems = []
    ms = (trace.start_measure,) + trace.measure_values
    if any(map(le, ms, ms[1:])):
        problems.append(f"measures not strictly decreasing: {ms}")

    source = shuffles(pi, sigma)
    images = source
    for step in trace.steps:
        images = list(map(step_replay(step), images))
    if set(images) != set(shuffles(trace.final_pi, trace.final_sigma)):
        problems.append("replay is not a bijection onto the canonical shuffle set")

    rule, k, drop = descent_rule(stat), len(pi) + len(sigma), maj_decrement(trace)

    def lowered(value):  # a source's value, its maj component lowered by drop
        if isinstance(stat, tuple):
            return tuple(v - drop if name == "maj" else v for name, v in zip(stat, value))
        return value - drop if stat == "maj" else value

    for t, img in zip(source, images):
        if rule(descent_mask(img), k) != lowered(rule(descent_mask(t), k)):
            problems.append(f"statistic not preserved on {t} -> {img}")
            break

    witness = None
    if problems:
        witness = Witness(
            pi, trace.final_pi, sigma, trace.final_sigma, stat,
            distribution(stat, source), distribution(stat, images),
        )
    return Report(
        subject=(
            f"reduction pipeline for {format_stat(stat)}"
            + (f": {'; '.join(problems)}" if problems else "")
        ),
        scope=f"pi={format_perm(pi)}, sigma={format_perm(sigma)}, steps={len(trace)}",
        witness=witness,
        cases_checked=len(source),
        elapsed=time.perf_counter() - start,
    )


def _poly_as_counter(p: QPoly) -> Distribution:
    return Distribution({e: c for e, c in enumerate(p) if c})


def check_identity(which: str, m: int, n: int, limit: Optional[int] = None) -> Report:
    """Exact polynomial identity checks over all normalized pairs.

    ``maj``: the maj generating polynomial over the shuffle set equals the
    shifted q-binomial closed form, which depends only on maj(pi)+maj(sigma).
    ``maj_des``: the same refined by descent count.  ``word_base``: the
    increasing/increasing pair gives the bare q-binomial.  Each class pair
    is checked once, on its least members.
    """
    if which not in ("maj", "maj_des", "word_base"):
        raise ValueError(f"unknown identity {which!r}")
    stat: StatId = ("des", "maj") if which == "maj_des" else "maj"
    _gate(m, n, _resolve_limit(limit, default_limit(stat)), f"identity check ({which})")
    start = time.perf_counter()

    def classes(ground):  # word_base: the increasing class alone, bitmask 0
        return [(0, tuple(ground))] if which == "word_base" else _least_members(ground)

    masks = {0} if which == "word_base" else None  # maj_des splits (des, maj) by des
    table = class_pair_distributions(stat, m, n, masks, masks)

    def fails(mask_pi, pi, mask_sigma, sigma):
        dist = table[mask_pi, mask_sigma]
        if which == "maj_des":
            by_des: dict = {}
            for (des, maj), count in dist.items():
                by_des.setdefault(des, {})[maj] = count
            checks = (
                (f"refined identity fails at k={k}", distribution_poly(by_des.get(k, {})), rhs)
                for k, rhs in enumerate(stanley_refined_table(pi, sigma))
            )
        else:
            problem = "closed form mismatch" if which == "maj" else "increasing-pair identity fails"
            checks = [(problem, distribution_poly(dist), stanley_rhs(pi, sigma))]
        for problem, lhs, rhs in checks:
            if lhs != rhs:
                return problem, Witness(pi, pi, sigma, sigma, "maj",
                                        _poly_as_counter(lhs), _poly_as_counter(rhs))
        return None

    passed = (None, 1 if which == "word_base" else factorial(m) * factorial(n))
    found, cases = _first_failure(m, n, fails, [range(1, m + 1)], classes) or passed
    problem, witness = found or (None, None)
    if which == "word_base":
        pi, sigma = format_perm(range(1, m + 1)), format_perm(range(m + 1, m + n + 1))
        scope = f"increasing pair pi={pi}, sigma={sigma}"
    else:
        scope = f"all pi on [{m}], sigma on [{n}]+{m}"
    return Report(
        subject=f"identity {which}" + (f": {problem}" if problem else ""),
        scope=scope,
        witness=witness,
        cases_checked=cases,
        elapsed=time.perf_counter() - start,
    )


def find_counterexample(stat: StatId, max_total_length: int, limit: Optional[int] = None) -> Report:
    """Search all domain splittings in increasing total length for a pair of
    equally-labeled instances with different distributions; first hit wins.
    Only ``limit`` moves the default bound; ``SHUFBIJ_MAX_TOTAL`` does not."""
    stat = validate_stat(stat)
    if max_total_length < 0:
        raise ValueError(
            f"the largest m+n to scan must be >= 0, got {max_total_length}"
        )
    _gate(max_total_length, 0, default_limit(stat) if limit is None else limit,
          "counterexample search", how="pass a larger limit (--limit)")
    start = time.perf_counter()
    cases = 0
    scope = f"all splittings with m+n <= {max_total_length}"
    splits = ((m, total - m) for total in range(max_total_length + 1) for m in range(total + 1))
    for m, n in splits:
        witness, scanned = _full_scan(stat, m, n)
        cases += scanned
        if witness:
            scope += f"; witness at |pi|={m}, |sigma|={n}"
            break
    return Report(
        subject=f"counterexample search for {format_stat(stat)}",
        scope=scope,
        witness=witness,
        cases_checked=cases,
        elapsed=time.perf_counter() - start,
    )


def check_conjecture_udr_pk_des(m: int, n: int, limit: Optional[int] = None) -> Report:
    """Empirical sweep for the tuple (udr, pk, des) in both reduced modes.

    A passing report is finite evidence only, not a proof; the subject line
    says so explicitly.
    """
    stat: StatId = ("udr", "pk", "des")
    _gate(m, n, _resolve_limit(limit, default_limit(stat)), "conjecture sweep")
    start = time.perf_counter()
    witness, cases = _reduced_scans(stat, m, n, ["pi", "sigma"])
    return Report(
        subject=(
            "conjectured shuffle compatibility of (udr,pk,des) -- "
            "empirical evidence only, not a proof"
        ),
        scope=f"|pi|={m}, |sigma|={n}, both reduced modes",
        witness=witness,
        cases_checked=cases,
        elapsed=time.perf_counter() - start,
    )


def format_report(report: Report) -> str:
    """Stable human-readable rendering (timing excluded on purpose)."""
    lines = [
        f"subject: {report.subject}",
        f"scope: {report.scope}",
        f"outcome: {report.outcome.upper()}",
        f"cases checked: {report.cases_checked}",
    ]
    w = report.witness
    if w is not None:
        lines.append("witness:")
        lines.append(f"  pi = {format_perm(w.pi)}  pi' = {format_perm(w.pi_prime)}")
        lines.append(
            f"  sigma = {format_perm(w.sigma)}  sigma' = {format_perm(w.sigma_prime)}"
        )
        lines.append(
            f"  {format_stat(w.statistic)}(pi) = "
            f"{format_stat_value(evaluate(w.statistic, w.pi))}, "
            f"{format_stat(w.statistic)}(sigma) = "
            f"{format_stat_value(evaluate(w.statistic, w.sigma))}"
        )
        left = ", ".join(f"{v}:{c}" for v, c in distribution_entries(w.dist_left))
        right = ", ".join(f"{v}:{c}" for v, c in distribution_entries(w.dist_right))
        lines.append(f"  distributions: {{{left}}} vs {{{right}}}")
    return "\n".join(lines)
