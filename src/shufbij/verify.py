"""Exhaustive verification: compatibility sweeps, bijection audits,
identity checks, and counterexample search.

Everything here is exact exhaustive enumeration at desk scale.  Size
bounds are explicit parameters with safe defaults; a request beyond the
bound raises :class:`~shufbij.errors.ResourceLimitError` instead of
silently truncating.  Searches run in a fixed enumeration order, so the
witness returned for a failing claim is deterministic.

The reduced-mode sweeps and the ``maj``/``maj_des`` identities put sigma
above pi, where the descent sets over a shuffle set depend only on the
descent classes of the operands; they compute one descent-set histogram
per class pair (:func:`~shufbij.shuffle.des_histogram`) instead of one
shuffle set per pair.  They walk the operands by class too
(:func:`~shufbij.perm.descent_classes`: size, least member and its rank,
all without enumeration), and derive the cases and the witness a
lexicographic pair-by-pair scan would report from those ranks and sizes.
Full mode, the counterexample search, the pipeline audit and
:meth:`Witness.recheck` enumerate shuffle sets directly.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product
from math import factorial
from typing import Optional

from .errors import ResourceLimitError
from .perm import Perm, count_before, descent_classes, format_perm
from .qpoly import QPoly, gen_poly, q_binomial, qp, stanley_refined_rhs, stanley_rhs
from .reduce import apply_trace, canonicalize, maj_decrement
from .shuffle import des_histogram, shuffles
from .stats import (
    Distribution,
    StatId,
    distribution,
    distribution_entries,
    distribution_to_json,
    evaluate,
    evaluate_descent_class,
    format_stat,
    format_stat_value,
    is_descent_statistic,
    validate_stat,
)

ENV_LIMIT_VAR = "SHUFBIJ_MAX_TOTAL"
DEFAULT_REDUCED_LIMIT = 7
DEFAULT_FULL_LIMIT = 6
DEFAULT_IDENTITY_LIMIT = 8
DEFAULT_SHUFFLE_LIMIT = 20  # one shuffle set of C(20, 10) = 184,756 interleavings
MODES = ("reduced_pi", "reduced_sigma", "full")


@dataclass
class Witness:
    """A pair of equally-labeled instances whose distributions differ."""

    pi: Perm
    pi_prime: Perm
    sigma: Perm
    sigma_prime: Perm
    statistic: StatId
    dist_left: Distribution
    dist_right: Distribution

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


@dataclass
class Report:
    subject: str
    scope: str
    outcome: str
    witness: Optional[Witness]
    cases_checked: int
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

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


def _resolve_limit(explicit: Optional[int], fallback: int) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(ENV_LIMIT_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ResourceLimitError(f"{ENV_LIMIT_VAR}={env!r} is not an integer") from None
    return fallback


def _gate(total: int, limit: int, what: str) -> None:
    if total > limit:
        raise ResourceLimitError(
            f"{what} with m+n={total} exceeds the bound {limit}; "
            f"pass limit explicitly or set {ENV_LIMIT_VAR} to allow it"
        )


def _reduced_scan(stat: StatId, m: int, n: int, side: str):
    """One-sided sweep: group the varying side by statistic value and
    require equal distributions within each group, for every fixed partner.

    A distribution depends only on the descent classes of the pair, so it
    is built once per class pair from :func:`des_histogram`, and both sides
    are walked by class (:func:`descent_classes`), never by permutation.
    Cases and the first failing witness are those of a scan pair by pair
    in lexicographic order: the mover classes, grouped by value in rank
    order, meet the groups and their classes in first-occurrence order, and
    a failure's offset within its group is counted by :func:`count_before`.
    """
    low = range(1, m + 1)
    high = range(m + 1, m + n + 1)
    mover_ground, partner_ground = (low, high) if side == "pi" else (high, low)
    mover_count = factorial(len(mover_ground))

    @cache
    def value_of(descents, length):
        return evaluate_descent_class(stat, descents, length)

    def dist_of(mover_des, partner_des):
        pair = (mover_des, partner_des) if side == "pi" else (partner_des, mover_des)
        dist = Counter()
        for descents, count in des_histogram(*pair, m, n).items():
            dist[value_of(descents, m + n)] += count
        return dist

    # Mover classes by statistic value, as (descents, size, least member).
    groups: dict = {}
    for _, descents, size, first in descent_classes(mover_ground):
        groups.setdefault(value_of(descents, len(mover_ground)), []).append(
            (descents, size, first)
        )

    for rank, partner_des, _, partner in descent_classes(partner_ground):
        done = 0  # movers in the groups already passed for this partner
        for members in groups.values():
            if len(members) > 1:  # one class alone cannot disagree
                ref_des, _, ref = members[0]
                ref_dist = dist_of(ref_des, partner_des)
                for index, (mover_des, _, mover) in enumerate(members[1:], start=1):
                    dist = dist_of(mover_des, partner_des)
                    if dist != ref_dist:
                        if side == "pi":
                            witness = Witness(ref, mover, partner, partner, stat, ref_dist, dist)
                        else:
                            witness = Witness(partner, partner, ref, mover, stat, ref_dist, dist)
                        offset = sum(
                            count_before(mover_ground, d, mover) for d, _, _ in members[:index]
                        )
                        return witness, rank * mover_count + done + offset + 1
            done += sum(size for _, size, _ in members)
    return None, mover_count * factorial(len(partner_ground))


def _full_scan(stat: StatId, m: int, n: int):
    """All splittings of [m+n]: distributions must agree across every pair
    of instances whose statistic labels agree."""
    total = m + n
    seen: dict = {}
    cases = 0
    for domain_pi in combinations(range(1, total + 1), m):
        pi_set = set(domain_pi)
        domain_sigma = tuple(v for v in range(1, total + 1) if v not in pi_set)
        for pi in permutations(domain_pi):
            pi_value = evaluate(stat, pi)
            for sigma in permutations(domain_sigma):
                key = (pi_value, evaluate(stat, sigma))
                dist = distribution(stat, shuffles(pi, sigma))
                cases += 1
                prev = seen.get(key)
                if prev is None:
                    seen[key] = (dist, pi, sigma)
                elif prev[0] != dist:
                    return Witness(prev[1], pi, prev[2], sigma, stat, prev[0], dist), cases
    return None, cases


def check_compatibility(
    stat: StatId, m: int, n: int, mode: str = "reduced_pi", limit: Optional[int] = None
) -> Report:
    """Exhaustively test whether the distribution over the shuffle set
    depends only on the statistic values and lengths of the operands.

    ``reduced_pi`` varies the low side over [m] against every partner on
    [n]+m; ``reduced_sigma`` is the mirror; ``full`` ranges over all domain
    splittings of [m+n].  For descent statistics the reduced modes are each
    equivalent to full compatibility; other statistics are refused there,
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
    if m < 0 or n < 0:
        raise ValueError("sizes must be nonnegative")
    fallback = DEFAULT_FULL_LIMIT if mode == "full" else DEFAULT_REDUCED_LIMIT
    _gate(m + n, _resolve_limit(limit, fallback), f"compatibility sweep ({mode})")
    start = time.perf_counter()
    if mode == "full":
        witness, cases = _full_scan(stat, m, n)
    else:
        witness, cases = _reduced_scan(stat, m, n, "pi" if mode == "reduced_pi" else "sigma")
    return Report(
        subject=f"shuffle compatibility of {format_stat(stat)} ({mode})",
        scope=f"|pi|={m}, |sigma|={n}",
        outcome="fail" if witness else "pass",
        witness=witness,
        cases_checked=cases,
        elapsed=time.perf_counter() - start,
    )


def check_bijection_pipeline(stat: StatId, pi: Perm, sigma: Perm) -> Report:
    """Audit one canonicalization end to end.

    Builds the trace, replays it on every interleaving, and checks that the
    measures strictly decrease, the images hit the canonical shuffle set
    bijectively, and the statistic is preserved pointwise (major-index
    components drop by exactly the number of descent-side steps).
    """
    start = time.perf_counter()
    _, trace = canonicalize(stat, pi, sigma)

    problems = []
    ms = (trace.start_measure,) + trace.measure_values
    if any(ms[i] <= ms[i + 1] for i in range(len(ms) - 1)):
        problems.append(f"measures not strictly decreasing: {ms}")

    source = shuffles(pi, sigma)
    images = [apply_trace(trace, t) for t in source]
    target = shuffles(trace.final_pi, trace.final_sigma)
    if len(set(images)) != len(images) or sorted(images) != sorted(target):
        problems.append("replay is not a bijection onto the canonical shuffle set")

    drop = maj_decrement(trace)
    for t, img in zip(source, images):
        if stat == "maj":
            ok = evaluate("maj", img) == evaluate("maj", t) - drop
        elif stat == ("maj", "des"):
            ok = (
                evaluate("maj", img) == evaluate("maj", t) - drop
                and evaluate("des", img) == evaluate("des", t)
            )
        else:
            ok = evaluate(stat, img) == evaluate(stat, t)
        if not ok:
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
        outcome="fail" if problems else "pass",
        witness=witness,
        cases_checked=len(source),
        elapsed=time.perf_counter() - start,
    )


def _poly_as_counter(p: QPoly) -> Distribution:
    return Distribution({e: c for e, c in enumerate(p) if c})


def _maj_poly(hist: Counter, des: Optional[int] = None) -> QPoly:
    """Generating polynomial of maj = sum(D) over a descent-set histogram,
    restricted to the sets with ``des`` elements when given."""
    coeffs = [0] * (max(map(sum, hist), default=0) + 1)
    for descents, count in hist.items():
        if des is None or len(descents) == des:
            coeffs[sum(descents)] += count
    return qp(coeffs)


def _closed_form_mismatch(which: str, pi: Perm, sigma: Perm, hist: Counter):
    """First mismatch, as (problem, lhs, rhs), between the descent-set
    histogram of a class pair and the closed form; None when they agree."""
    if which == "maj":
        lhs = _maj_poly(hist)
        rhs = stanley_rhs(pi, sigma)
        return None if lhs == rhs else ("closed form mismatch", lhs, rhs)
    for k in range(len(pi) + len(sigma) + 1):
        lhs = _maj_poly(hist, k)
        rhs = stanley_refined_rhs(pi, sigma, k)
        if lhs != rhs:
            return f"refined identity fails at k={k}", lhs, rhs
    return None


def check_identity(which: str, m: int, n: int, limit: Optional[int] = None) -> Report:
    """Exact polynomial identity checks over all normalized pairs.

    ``maj``: the maj generating polynomial over the shuffle set equals the
    shifted q-binomial closed form, and the distribution depends only on
    maj(pi)+maj(sigma).  ``maj_des``: the same refined by descent count.
    ``word_base``: the increasing/increasing pair gives the bare q-binomial.
    """
    if which not in ("maj", "maj_des", "word_base"):
        raise ValueError(f"unknown identity {which!r}")
    _gate(m + n, _resolve_limit(limit, DEFAULT_IDENTITY_LIMIT), f"identity check ({which})")
    start = time.perf_counter()
    cases = 0
    witness = None
    problem = ""

    if which == "word_base":
        pi = tuple(range(1, m + 1))
        sigma = tuple(range(m + 1, m + n + 1))
        lhs = gen_poly("maj", shuffles(pi, sigma))
        rhs = q_binomial(m + n, m)
        cases = 1
        if lhs != rhs:
            problem = "increasing-pair identity fails"
            witness = Witness(pi, pi, sigma, sigma, "maj",
                              _poly_as_counter(lhs), _poly_as_counter(rhs))
    else:
        # Class pairs in the order a pair-by-pair scan first meets them;
        # a failure is a property of the class pair, so it is met there.
        by_maj_sum: dict[int, Distribution] = {}
        n_count = factorial(n)
        cases = factorial(m) * n_count
        pairs = product(
            descent_classes(range(1, m + 1)), descent_classes(range(m + 1, m + n + 1))
        )
        for (rank_pi, des_pi, _, pi), (rank_sigma, des_sigma, _, sigma) in pairs:
            hist = des_histogram(des_pi, des_sigma, m, n)
            mismatch = _closed_form_mismatch(which, pi, sigma, hist)
            if mismatch:
                problem, lhs, rhs = mismatch
                witness = Witness(pi, pi, sigma, sigma, "maj",
                                  _poly_as_counter(lhs), _poly_as_counter(rhs))
            elif which == "maj":
                dist = _poly_as_counter(_maj_poly(hist))
                prev = by_maj_sum.setdefault(sum(des_pi) + sum(des_sigma), dist)
                if prev != dist:
                    problem = "distribution not determined by maj(pi)+maj(sigma)"
                    witness = Witness(pi, pi, sigma, sigma, "maj", dist, prev)
            if problem:
                cases = rank_pi * n_count + rank_sigma + 1
                break

    return Report(
        subject=f"identity {which}" + (f": {problem}" if problem else ""),
        scope=f"all pi on [{m}], sigma on [{n}]+{m}",
        outcome="fail" if problem else "pass",
        witness=witness,
        cases_checked=cases,
        elapsed=time.perf_counter() - start,
    )


def find_counterexample(stat: StatId, max_total_length: int) -> Report:
    """Search all domain splittings in increasing total length for a pair of
    equally-labeled instances with different distributions; first hit wins."""
    stat = validate_stat(stat)
    if max_total_length < 0:
        raise ValueError(
            f"the largest m+n to scan must be >= 0, got {max_total_length}"
        )
    start = time.perf_counter()
    cases = 0
    for total in range(max_total_length + 1):
        for m in range(total + 1):
            witness, scanned = _full_scan(stat, m, total - m)
            cases += scanned
            if witness:
                return Report(
                    subject=f"counterexample search for {format_stat(stat)}",
                    scope=(
                        f"all splittings with m+n <= {max_total_length}; "
                        f"witness at |pi|={m}, |sigma|={total - m}"
                    ),
                    outcome="fail",
                    witness=witness,
                    cases_checked=cases,
                    elapsed=time.perf_counter() - start,
                )
    return Report(
        subject=f"counterexample search for {format_stat(stat)}",
        scope=f"all splittings with m+n <= {max_total_length}",
        outcome="pass",
        witness=None,
        cases_checked=cases,
        elapsed=time.perf_counter() - start,
    )


def check_conjecture_udr_pk_des(m: int, n: int, limit: Optional[int] = None) -> Report:
    """Empirical sweep for the tuple (udr, pk, des) in both reduced modes.

    A passing report is finite evidence only, not a proof; the subject line
    says so explicitly.
    """
    stat: StatId = ("udr", "pk", "des")
    _gate(m + n, _resolve_limit(limit, DEFAULT_REDUCED_LIMIT), "conjecture sweep")
    start = time.perf_counter()
    cases = 0
    witness = None
    for side in ("pi", "sigma"):
        witness, scanned = _reduced_scan(stat, m, n, side)
        cases += scanned
        if witness:
            break
    return Report(
        subject=(
            "conjectured shuffle compatibility of (udr,pk,des) -- "
            "empirical evidence only, not a proof"
        ),
        scope=f"|pi|={m}, |sigma|={n}, both reduced modes",
        outcome="fail" if witness else "pass",
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
