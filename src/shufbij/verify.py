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
the conjecture, the counterexample search and the identities therefore
put sigma above pi and read class pairs by descent bitmask
(:func:`~shufbij.perm.descent_classes`) off one table per shape from one
transfer-matrix DP (:func:`~shufbij.shuffle.class_pair_counts`).  Its
rows are opaque here: two pairs' rows are equal exactly when their
distributions are, and the table's row type reads, writes and shifts
them by value.  Every verdict compares each pair's row with the row it
should equal: a compatibility scan with the row of the first pair of its
key (labels on the sides that vary, classes on the others), an identity
with the row of its label's closed form.  Each passes on one comparison
of the whole table, and only a failure walks the class pairs in order
(:func:`_first_failure`), comparing alike, to locate the first failing
pair, its cases and its witness, and reads that pair's distributions
alone.  A compatibility scan labels each class by the statistic's rule
on its bitmask (once per statistic and length), and tables only the
classes that share their label with another class, with both operands
nonempty: none for ``Des``, which builds no table.  An identity labels
each class by (des, maj) once per length, writes the closed form at maj
sum 0 as a row once per (des pi, des sigma) (once per call for ``maj``
and ``word_base``) and shifts it by each label's maj sum.  Least
members are built for a witness only.  Full mode over any other
statistic walks every pair of permutations.  Cases and
witnesses are those a lexicographic pair-by-pair scan would report, read
off the ranks of the failing pair's members and the class sizes.  The
pipeline audit and :meth:`Witness.recheck` enumerate shuffle sets.  The
audit does each piece of its work once per call: it replays its trace
unchecked, one function per step, checks the measures in one pass over
the steps (none without a step), reads the statistic's rule once and the
statistic once per interleaving on each side, and counts the ``maj`` drop
only for an id with a ``maj`` component.  It compares the final pair
with the operands as tuples, never with the start pair the trace claims,
takes a trace that ends there as its own target, and lists no set for a
canonical pair (no step, ending where it starts).  A report fails
exactly when it has a witness.  ``reduce`` is bound on the first audit
and ``qpoly`` on the first closed form: a scan loads neither.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial
from operator import le
from typing import NamedTuple, Optional

from .errors import DEFAULT_CLASS_LIMIT, DEFAULT_ENUM_LIMIT, DEFAULT_SHUFFLE_LIMIT, ENV_LIMIT_VAR
from .errors import _gate, _resolve_limit
from .perm import Perm, count_before, descent_classes, format_perm, lex_rank
from .perm import least_with_descent_set, mask_positions
from .shuffle import class_pair_counts, shuffles
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
)

MODES = ("reduced_pi", "reduced_sigma", "full")
_LIMITS = (DEFAULT_ENUM_LIMIT, DEFAULT_CLASS_LIMIT)  # by whether the statistic is a descent one
_reduce = _qpoly = None  # the modules, bound by the first audit and the first closed form


def default_limit(stat: StatId) -> int:
    """The default largest m+n of every scan over ``stat``: 10 for a descent
    statistic, whose scans read class-pair tables, and 6 with ``inv``,
    whose scans enumerate shuffle sets."""
    return _LIMITS[is_descent_statistic(stat)]


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


def _least_member(ground, mask: int) -> Perm:
    return least_with_descent_set(ground, mask_positions(mask))


@lru_cache(maxsize=128)  # eleven statistics at every length to 10; groups hold at most 512 classes
def _label_groups(stat: StatId, k: int) -> tuple:
    """``(groups, first)`` of the descent classes of length ``k``:
    ``groups`` holds them as ``(bitmask, size)`` in rank order, grouped by
    the statistic's rule on the bitmask, the groups in order of first
    occurrence; ``first`` maps each class of a group of two or more to the
    first class of its group.  Cached per statistic and length, as scans
    revisit both; the caller reads the result and never writes it."""
    rule, groups = descent_rule(stat), {}
    for mask, size in descent_classes(k):
        groups.setdefault(rule(mask, k), []).append((mask, size))
    groups = tuple(tuple(members) for members in groups.values())
    first = {mask: members[0][0] for members in groups if len(members) > 1 for mask, _ in members}
    return groups, first


def _first_failure(m: int, n: int, inner: str, groups, table: dict, want, explain):
    """Locate the first failing class pair of ``table`` (pi on [m], sigma
    on [n]+m), once a whole-table comparison has found that one fails: walk
    the outer side's classes in rank order, and for each the ``inner``
    side's classes group by group in ``groups`` (sequences of ``(bitmask,
    size)``).  A pair fails when its row is not ``want(mask_pi,
    mask_sigma)``; at the first that does, returns ``(explain(mask_pi,
    mask_sigma, row, wanted row), cases)``, and None if none does.  The
    cases are those of a pair-by-pair scan in that order: the rank of the
    outer least member times inner!, the members of the earlier groups,
    and the members of the group's earlier classes before the inner least
    member (:func:`count_before`), plus one; with the inner side as one
    group, the last two are its rank."""
    grounds = {"pi": range(1, m + 1), "sigma": range(m + 1, m + n + 1)}
    outer = "sigma" if inner == "pi" else "pi"
    for outer_mask, _ in descent_classes(len(grounds[outer])):
        done = 0  # inner members in the groups already passed
        for members in groups:
            for index, (mask, _) in enumerate(members):
                pair = (mask, outer_mask) if inner == "pi" else (outer_mask, mask)
                row = table.get(pair)
                if row is not None and row != (wanted := want(*pair)):
                    x = _least_member(grounds[inner], mask)
                    done += sum(count_before(grounds[inner], k, x) for k, _ in members[:index])
                    rank = lex_rank(_least_member(grounds[outer], outer_mask))
                    cases = rank * factorial(len(grounds[inner])) + done + 1
                    return explain(*pair, row, wanted), cases
            done += sum(size for _, size in members)
    return None


def _class_scans(stat: StatId, m: int, n: int, scans):
    """The scans of a descent statistic in ``scans``, each named by the
    sides that vary, in turn up to the first witness: ``(witness, cases)``.

    Two class pairs must agree when their keys agree.  Per side, the key
    is the class's value group (:func:`_label_groups`) if that side varies
    and the class itself if not, and the reference pair of a key is its
    first classes, the first of each group, as the groups keep rank order.
    Every scan reads one :func:`~shufbij.shuffle.class_pair_counts` table
    over the least product of class sets that holds every varying class in
    a group of two or more, and none is built if there is none, or if an
    operand is empty, whose shuffle set is the other operand alone, so
    classes of one label have one distribution: a pair outside it has a
    key of its own.  Two pairs' rows are equal exactly when their
    distributions are, so a scan is one pass that compares every row with
    the row of its key's reference pair, and a pass counts m!·n! pairs, or
    (m+n)! in full mode, whose other splittings repeat the first's
    distributions (by the descent-preserving
    :func:`~shufbij.shuffle.normalize_pair`).  Only a scan that finds a
    difference walks (:func:`_first_failure`), to locate the first failing
    pair of a pair-by-pair scan, its cases and its witness: a one-sided
    scan walks the varying side inner, group by group, and full mode walks
    pi outer and sigma inner as one group.  The walk reads the two
    distributions of the witness and builds its least members alone.
    """
    low, high, lengths = range(1, m + 1), range(m + 1, m + n + 1), {"pi": m, "sigma": n}
    labels = {side: _label_groups(stat, lengths[side]) for scan in scans for side in scan}
    pis, sigmas = (labels[side][1].keys() if side in labels else () for side in lengths)
    table, rows = (class_pair_counts(stat, m, n, None if sigmas else pis, None if pis else sigmas)
                   if m and n and (pis or sigmas) else ({}, None))
    cases = 0
    for scan in scans:
        first_pi, first_sigma = (labels[side][1] if side in scan else {} for side in lengths)
        ref_pi, ref_sigma = first_pi.get, first_sigma.get
        full = len(scan) == 2

        def want(mask_pi, mask_sigma):  # the row of the pair's reference pair
            return table[ref_pi(mask_pi, mask_pi), ref_sigma(mask_sigma, mask_sigma)]

        if any(row != want(*pair) for pair, row in table.items()):

            def explain(mask_pi, mask_sigma, row, ref):
                p, s = ref_pi(mask_pi, mask_pi), ref_sigma(mask_sigma, mask_sigma)
                return Witness(_least_member(low, p), _least_member(low, mask_pi),
                               _least_member(high, s), _least_member(high, mask_sigma),
                               stat, rows.read(ref), rows.read(row))

            inner, walk = ("sigma", [descent_classes(n)]) if full else (scan[0], labels[scan[0]][0])
            found, located = _first_failure(m, n, inner, walk, table, want, explain)
            return found, cases + located
        cases += factorial(m + n) if full else factorial(m) * factorial(n)
    return None, cases


def _full_scan(stat: StatId, m: int, n: int, descent: bool):
    """Full mode at one shape: ``(witness, cases)``.  A ``descent``
    statistic takes its class scan (:func:`_class_scans`); any other
    statistic walks every pair of every splitting of [m+n] in lexicographic
    order, labeling each permutation once, and compares each pair with the
    first pair of its labels."""
    if descent:
        return _class_scans(stat, m, n, [("pi", "sigma")])
    total, seen = range(1, m + n + 1), {}

    def labeled(ground):
        return [(p, evaluate(stat, p)) for p in permutations(ground)]

    pairs = (pair for low in combinations(total, m)
             for pair in product(labeled(low), labeled([v for v in total if v not in low])))
    for cases, ((pi, label_pi), (sigma, label_sigma)) in enumerate(pairs, start=1):
        dist = distribution(stat, shuffles(pi, sigma))
        prev = seen.setdefault((label_pi, label_sigma), (dist, pi, sigma))
        if prev[0] != dist:
            return Witness(prev[1], pi, prev[2], sigma, stat, prev[0], dist), cases
    return None, factorial(m + n)


def check_compatibility(
    stat: StatId, m: int, n: int, mode: str = "reduced_pi", limit: Optional[int] = None
) -> Report:
    """Exhaustively test whether the distribution over the shuffle set
    depends only on the statistic values and lengths of the operands.

    ``reduced_pi`` varies the low side over [m] against every partner on
    [n]+m; ``reduced_sigma`` is the mirror; ``full`` covers all domain
    splittings of [m+n], walking the class pairs of the first alone for a
    descent statistic (:func:`_class_scans`).  For descent statistics each
    reduced mode, taken over all shapes, is equivalent to full
    compatibility, but not at one shape: ``(maj,Pk)`` at 1+7 passes
    ``reduced_pi`` (pi has one class, so nothing is compared) and fails
    ``reduced_sigma`` and ``full``.  Other statistics are refused there,
    since only ``full`` is meaningful evidence for them.
    """
    descent = is_descent_statistic(stat)  # validates the id
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "full" and not descent:
        raise ValueError(
            f"{format_stat(stat)} is not a descent statistic, so mode {mode!r} "
            "is no evidence for it; use mode 'full' (--mode full)"
        )
    _gate(m, n, _resolve_limit(limit, _LIMITS[descent]), f"compatibility sweep ({mode})")
    start = time.perf_counter()
    if mode == "full":
        witness, cases = _full_scan(stat, m, n, descent)
    else:
        witness, cases = _class_scans(stat, m, n, [(mode.removeprefix("reduced_"),)])
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

    Each comparison runs once.  A trace with no step that ends on its
    start pair (the operands as tuples, whatever start the trace
    records) passes with binomial(m+n, m) cases and lists no set; one
    that ends there after some steps takes the start pair's set as its
    target.  When a step ran, the statistic
    is read once per interleaving on each side, as two lists compared
    whole; the first mismatch is located on a failure only.
    """
    global _reduce
    limit = _resolve_limit(None, DEFAULT_SHUFFLE_LIMIT)
    _gate(len(pi), len(sigma), limit, "bijection audit", how=f"set {ENV_LIMIT_VAR}")
    if _reduce is None:
        from . import reduce as _reduce
    start = time.perf_counter()
    _, trace = _reduce.canonicalize(stat, pi, sigma)
    steps, final = trace.steps, (trace.final_pi, trace.final_sigma)
    start_pair = (tuple(pi), tuple(sigma))  # the operands, not the trace's claim

    problems = []
    if steps:
        ms = (trace.start_measure, *[s.measure_after for s in steps])
        if any(map(le, ms, ms[1:])):
            problems.append(f"measures not strictly decreasing: {ms}")

    if steps or final != start_pair:  # else the identity on the start pair's set
        source = images = shuffles(*start_pair)
        for step in steps:
            images = list(map(_reduce.step_replay(step), images))
        target = source if final == start_pair else shuffles(*final)
        if not (images is target or set(images) == set(target)):
            problems.append("replay is not a bijection onto the canonical shuffle set")

    if steps:
        rule, k = descent_rule(stat), len(pi) + len(sigma)
        want = [rule(descent_mask(t), k) for t in source]
        got = [rule(descent_mask(img), k) for img in images]
        if stat == "maj":
            drop = _reduce.maj_decrement(trace)
            want = [v - drop for v in want]
        elif isinstance(stat, tuple) and "maj" in stat:
            drop, at = _reduce.maj_decrement(trace), stat.index("maj")
            want = [v[:at] + (v[at] - drop,) + v[at + 1:] for v in want]
        if want != got:
            t, img = next((t, img) for t, img, w, g in zip(source, images, want, got) if w != g)
            problems.append(f"statistic not preserved on {t} -> {img}")

    witness = None
    if problems:
        witness = Witness(
            pi, trace.final_pi, sigma, trace.final_sigma, stat,
            distribution(stat, source), distribution(stat, images),
        )
    return Report(
        f"reduction pipeline for {format_stat(stat)}"
        + (f": {'; '.join(problems)}" if problems else ""),
        f"pi={format_perm(pi)}, sigma={format_perm(sigma)}, steps={len(steps)}",
        witness, comb(len(pi) + len(sigma), len(pi)), time.perf_counter() - start,
    )


def _closed_form(which: str, m: int, n: int, des_pi: int, des_sigma: int, maj_sum: int) -> dict:
    """Identity ``which``'s claim for operands of lengths m, n with these descent
    counts and maj sum: ``{maj: count}``, or ``{(des, maj): count}`` for maj_des."""
    global _qpoly
    if _qpoly is None:
        from . import qpoly as _qpoly
    if which == "maj_des":
        forms = enumerate(_qpoly._refined_forms(m, n, des_pi, des_sigma))
        return {(k, maj_sum + e): c for k, form in forms for e, c in enumerate(form) if c}
    return {maj_sum + e: c for e, c in enumerate(_qpoly.q_binomial(m + n, m)) if c}


@lru_cache(maxsize=16)  # identity scans revisit the same few lengths
def _des_maj_labels(k: int) -> dict:
    """``{bitmask: (des, maj)}`` of the descent classes of length ``k``, never written."""
    rule = descent_rule(("des", "maj"))
    return {mask: rule(mask, k) for mask, _ in descent_classes(k)}


def check_identity(which: str, m: int, n: int, limit: Optional[int] = None) -> Report:
    """Exact polynomial identity checks over all normalized pairs.

    ``maj``: the maj generating polynomial over the shuffle set equals the
    shifted q-binomial closed form, which depends only on maj(pi)+maj(sigma).
    ``maj_des``: the same refined by descent count.  ``word_base``: the
    increasing/increasing pair gives the bare q-binomial.  A class pair's
    row is compared, with one ``==``, with the row of the closed form of
    its label, (des pi, des sigma, maj pi + maj sigma): the form at maj sum
    0, written as a row once per (des pi, des sigma) for ``maj_des`` and
    once per call for ``maj`` and ``word_base``, shifted by the label's maj
    sum.  A pair that differs is read and reported.
    """
    if which not in ("maj", "maj_des", "word_base"):
        raise ValueError(f"unknown identity {which!r}")
    refined = which == "maj_des"
    stat: StatId = ("des", "maj") if refined else "maj"
    _gate(m, n, _resolve_limit(limit, default_limit(stat)), f"identity check ({which})")
    start = time.perf_counter()

    low, high = range(1, m + 1), range(m + 1, m + n + 1)
    masks = {0} if which == "word_base" else None
    table, rows = class_pair_counts(stat, m, n, masks, masks)
    forms = {}  # (des pi, des sigma), or None: the form at maj sum 0, as a row
    labels_pi, labels_sigma = _des_maj_labels(m), _des_maj_labels(n)

    def want(mask_pi, mask_sigma):  # the row of the pair's closed form
        (des_pi, maj_pi), (des_sigma, maj_sigma) = labels_pi[mask_pi], labels_sigma[mask_sigma]
        by = (des_pi, des_sigma) if refined else None
        if (form := forms.get(by)) is None:
            form = forms[by] = rows.write(_closed_form(which, m, n, des_pi, des_sigma, 0))
        maj = maj_pi + maj_sigma
        return rows.shift(form, (0, maj) if refined else maj)

    def explain(mask_pi, mask_sigma, row, form):
        dist, form = rows.read(row), rows.read(form)
        if refined:
            checks = ((f"refined identity fails at k={k}", *(Distribution(
                {maj: c for (des, maj), c in d.items() if des == k}) for d in (dist, form)))
                for k in range(m + n + 1))
        else:
            problem = "closed form mismatch" if which == "maj" else "increasing-pair identity fails"
            checks = [(problem, dist, form)]
        pi, sigma = _least_member(low, mask_pi), _least_member(high, mask_sigma)
        return next((problem, Witness(pi, pi, sigma, sigma, "maj", lhs, rhs))
                    for problem, lhs, rhs in checks if lhs != rhs)

    located = any(row != want(*pair) for pair, row in table.items()) and _first_failure(
        m, n, "sigma", [descent_classes(n)], table, want, explain)
    (problem, witness), cases = located or (
        (None, None), 1 if which == "word_base" else factorial(m) * factorial(n))
    scope = (f"increasing pair pi={format_perm(low)}, sigma={format_perm(high)}"
             if which == "word_base" else f"all pi on [{m}], sigma on [{n}]+{m}")
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
    descent = is_descent_statistic(stat)  # validates the id
    if max_total_length < 0:
        raise ValueError(
            f"the largest m+n to scan must be >= 0, got {max_total_length}"
        )
    _gate(max_total_length, 0, _LIMITS[descent] if limit is None else limit,
          "counterexample search", how="pass a larger limit (--limit)")
    start = time.perf_counter()
    cases = 0
    scope = f"all splittings with m+n <= {max_total_length}"
    splits = ((m, total - m) for total in range(max_total_length + 1) for m in range(total + 1))
    for m, n in splits:
        witness, scanned = _full_scan(stat, m, n, descent)
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
    witness, cases = _class_scans(stat, m, n, [("pi",), ("sigma",)])
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
