"""Core permutation values and constructors.

A permutation is a tuple of distinct integers read left to right; its
domain is the set of entries.  User-facing permutations contain strictly
positive integers only.

Besides relabeling (standardization), this module provides the space
labeling of the gaps of a permutation, insertion of a new maximum into a
labeled space, the least and the greatest permutation with a prescribed
descent set, a deterministic one with a prescribed left-peak profile, and
the descent classes of a ground set, counted without enumerating their
members.  A class is named by its descent bitmask (bit d set for a descent
at d), the one format between this module, :mod:`shufbij.shuffle` and
:mod:`shufbij.verify`; a member and its rank (:func:`lex_rank`) are built
only where a permutation is wanted.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

from .errors import DomainOverlapError, InfeasibleProfileError

Perm = tuple[int, ...]


def as_perm(values: Iterable[int]) -> Perm:
    """Validate and freeze a sequence of distinct integers as a permutation.

    >>> as_perm([2, 1, 5])
    (2, 1, 5)
    """
    pi = tuple(values)
    for v in pi:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"permutation entries must be integers, got {v!r}")
        if v <= 0:
            raise ValueError(f"permutation entries must be positive, got {v}")
    if len(set(pi)) != len(pi):
        raise ValueError(f"permutation entries must be distinct: {pi}")
    return pi


def parse_perm(text: str) -> Perm:
    """Parse the comma-separated text form, e.g. ``"2,1,5,7,3,6,4"``.

    Whitespace is ignored; the empty string denotes the empty permutation.
    """
    stripped = text.strip()
    if not stripped:
        return ()
    try:
        values = [int(part.strip()) for part in stripped.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse permutation from {text!r}") from None
    return as_perm(values)


def format_perm(pi: Sequence[int]) -> str:
    return ",".join(map(str, pi))


def _check_disjoint(pi: Perm, sigma: Perm) -> None:
    shared = set(pi) & set(sigma)
    if shared:
        raise DomainOverlapError(f"domains share {sorted(shared)}")


def standardize(pi: Perm, target: Iterable[int]) -> Perm:
    """Relabel ``pi`` onto ``target`` by the unique increasing bijection.

    The i-th smallest entry of ``pi`` becomes the i-th smallest element of
    ``target``; relative order is preserved.

    >>> standardize((3, 9, 2), (1, 7, 8))
    (7, 8, 1)
    """
    tgt = sorted(set(target))
    if len(tgt) != len(pi):
        raise ValueError(
            f"target size {len(tgt)} does not match permutation length {len(pi)}"
        )
    if tgt and tgt[0] < 1:
        raise ValueError("standardization targets must be positive integers")
    mapping = dict(zip(sorted(pi), tgt))
    return tuple(mapping[v] for v in pi)


def standardize_unit(pi: Perm) -> Perm:
    """Relabel onto {1, ..., m}; two permutations agree here iff they have
    the same relative order."""
    return standardize(pi, range(1, len(pi) + 1))


def space_labels(pi: Perm) -> tuple[int, ...]:
    """Label the m+1 gaps of ``pi`` with 0..m.

    Entry g of the result labels the gap after position g (g = 0 is the gap
    before the first entry, g = m the final gap).  The final gap gets 0,
    gaps at descents get 1..k right to left, and the remaining gaps get
    k+1..m left to right.  The defining property is that inserting a new
    maximum into the gap labeled x raises the major index by exactly x.

    >>> space_labels((2, 6, 5, 7, 8, 1))
    (3, 4, 2, 5, 6, 1, 0)
    """
    m = len(pi)
    if m == 0:
        raise ValueError("space labeling requires a nonempty permutation")
    labels: list[int | None] = [None] * (m + 1)
    labels[m] = 0
    descents = [i for i in range(1, m) if pi[i - 1] > pi[i]]
    for rank, d in enumerate(sorted(descents, reverse=True), start=1):
        labels[d] = rank
    nxt = len(descents) + 1
    for g in range(m):
        if labels[g] is None:
            labels[g] = nxt
            nxt += 1
    return tuple(labels)  # type: ignore[arg-type]


def insert_in_space(pi: Perm, v: int, label: int) -> Perm:
    """Insert ``v`` (a new maximum) into the gap of ``pi`` carrying ``label``.

    Raises the major index by exactly ``label``.
    """
    if pi and v <= max(pi):
        raise ValueError(f"inserted value {v} must exceed max entry {max(pi)}")
    if v <= 0:
        raise ValueError("inserted value must be positive")
    if not 0 <= label <= len(pi):
        raise ValueError(f"space label {label} out of range 0..{len(pi)}")
    if not pi:
        return (v,)
    gap = space_labels(pi).index(label)
    return pi[:gap] + (v,) + pi[gap:]


def perm_with_descent_set(ground: Iterable[int], descents: Iterable[int]) -> Perm:
    """Lexicographically greatest permutation of ``ground`` with descent set
    ``descents``: the value complement of the least member of the
    complementary descent class (:func:`least_with_descent_set`), since
    complementing values swaps ascents with descents and reverses
    lexicographic order.

    >>> perm_with_descent_set([1, 2, 3], {2})
    (2, 3, 1)
    """
    g = sorted(set(ground))
    m = len(g)
    dset = set(descents)
    if not dset <= set(range(1, m)):
        raise ValueError(f"descent set {sorted(dset)} not within 1..{m - 1}")
    flip = dict(zip(g, reversed(g)))
    return tuple(flip[v] for v in least_with_descent_set(g, set(range(1, m)) - dset))


def mask_positions(mask: int) -> frozenset[int]:
    """The set bits of ``mask``, as positions: a descent bitmask's set."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def least_with_descent_set(ground: Iterable[int], descents: Iterable[int]) -> Perm:
    """Lexicographically least permutation of ``ground`` with descent set
    ``descents``: the increasing arrangement with every maximal run of
    positions joined by descents reversed.

    >>> least_with_descent_set([1, 2, 3, 4], {2, 3})
    (1, 4, 3, 2)
    """
    g = sorted(ground)
    dset = set(descents)
    if dset and not 0 < min(dset) <= max(dset) < len(g):
        raise ValueError(f"descent set {sorted(dset)} not within 1..{len(g) - 1}")
    first: list[int] = []
    start = 0
    for p in range(1, len(g) + 1):
        if p not in dset:
            first.extend(reversed(g[start:p]))
            start = p
    return tuple(first)


def _extend_counts(counts: list[int], up: bool) -> list[int]:
    """One more position of the rank DP for a descent pattern.

    ``counts[r]`` counts the arrangements of t entries whose end entry has
    rank r among them.  Adding an entry of rank s among t+1 next to that
    end entry sums r < s when the new entry is the larger, r >= s otherwise.
    """
    new = [0] * (len(counts) + 1)
    if up:
        for s, c in enumerate(counts):
            new[s + 1] = new[s] + c
    else:
        for s in range(len(counts) - 1, -1, -1):
            new[s] = new[s + 1] + counts[s]
    return new


def lex_rank(x: Perm) -> int:
    """Lexicographic rank of ``x`` among the permutations of its entries,
    from its Lehmer code (each digit counts the smaller entries after it).

    >>> lex_rank((5, 2, 7))
    2
    """
    rank, k = 0, len(x)
    for p, v in enumerate(x):
        rank = rank * (k - p) + sum(1 for w in x[p + 1:] if w < v)
    return rank


@lru_cache(maxsize=16)  # sweeps walk the same few lengths for every statistic and mode
def descent_classes(k: int) -> tuple[tuple[int, int], ...]:
    """``(mask, size)`` for every descent bitmask of the permutations of a
    k-element ground set, in the lexicographic order of the least members
    (:func:`least_with_descent_set`), without enumerating a member.

    The sizes come from the rank DP, grown one position at a time and
    shared by the patterns with a common prefix.  Two least members first
    differ where their runs first differ in length, and the shorter run
    puts the smaller entry there, so taking an ascent (ending a run)
    before a descent at each position yields rank order.

    >>> descent_classes(3)
    ((0, 1), (4, 2), (2, 2), (6, 1))
    """
    classes = [(0, [1])]
    for t in range(1, k):  # an ascent, then a descent, at position t
        classes = [(mask | d << t, _extend_counts(counts, not d))
                   for mask, counts in classes for d in (0, 1)]
    return tuple([(mask, sum(counts)) for mask, counts in classes])


def count_before(ground: Iterable[int], mask: int, x: Perm) -> int:
    """Number of permutations of ``ground`` with descent bitmask ``mask``
    that come lexicographically before ``x``, a permutation of ``ground``.

    A member before ``x`` agrees with it on a prefix, then puts a smaller
    entry y; the completions after y are counted by the rank DP run from
    the right end, by the rank of y among the entries not yet placed.

    >>> count_before([1, 2, 3], 0b10, (3, 1, 2))
    1
    """
    g = sorted(ground)
    k = len(g)
    # suffix[i][s]: arrangements of positions i+1..k (1-based) with the
    # descents of mask there whose entry at position i+1 has rank s among them.
    suffix = [[1]] * k
    for i in range(k - 2, -1, -1):
        suffix[i] = _extend_counts(suffix[i + 1], mask >> (i + 1) & 1)
    total = 0
    remaining = g
    for i, v in enumerate(x):
        for s, y in enumerate(remaining):
            if y >= v:
                break
            if i == 0 or (x[i - 1] > y) == mask >> i & 1:
                total += suffix[i][s]
        if i and (x[i - 1] > v) != mask >> i & 1:
            break
        remaining = [y for y in remaining if y != v]
    return total


def perm_with_left_peak_profile(m: int, left_peaks: Iterable[int], chi_plus: int) -> Perm:
    """Deterministic permutation of [m] with the given left-peak set and
    final-ascent indicator.

    Left peaks are exactly the starts of maximal descent runs, so the
    construction chooses the descent set: each requested left peak starts a
    run, and when ``chi_plus`` is 0 the last run is extended to position
    m-1.  Infeasible profiles (adjacent left peaks, a final ascent demanded
    together with a left peak at m-1, or no left peak available to kill the
    final ascent) raise :class:`InfeasibleProfileError`.
    """
    lset = set(left_peaks)
    if chi_plus not in (0, 1):
        raise ValueError(f"chi_plus must be 0 or 1, got {chi_plus!r}")
    if m < 0:
        raise ValueError("length must be nonnegative")
    if not lset <= set(range(1, m)):
        raise InfeasibleProfileError(f"left peaks {sorted(lset)} not within 1..{m - 1}")
    if any(j + 1 in lset for j in lset):
        raise InfeasibleProfileError(f"adjacent left peaks in {sorted(lset)}")
    if m <= 1:
        if lset or chi_plus != 0:
            raise InfeasibleProfileError(
                f"length {m} admits only the empty profile with chi_plus=0"
            )
        return tuple(range(1, m + 1))
    if chi_plus == 1:
        if m - 1 in lset:
            raise InfeasibleProfileError(
                f"left peak at {m - 1} forces a final descent; chi_plus=1 infeasible"
            )
        dset = lset
    else:
        if not lset:
            raise InfeasibleProfileError(
                "chi_plus=0 with no left peaks is infeasible for length >= 2"
            )
        dset = lset | set(range(max(lset), m))
    return perm_with_descent_set(range(1, m + 1), dset)
