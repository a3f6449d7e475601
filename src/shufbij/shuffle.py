"""Shuffle sets, their word encoding, distributions over them, and
elementary shuffle bijections.

An interleaving of two domain-disjoint permutations is encoded by a word
over {a, b} marking which side each position came from; enumeration is in
lexicographic word order with a < b, which makes every listing stable.

Des is shuffle compatible, so the distribution of a descent statistic over
a shuffle set depends only on the operands' descent bitmasks (bit d set
for a descent at d, :func:`~shufbij.stats.descent_mask`) and lengths.
:func:`des_histogram` counts the descent bitmasks of a class pair by a
transfer-matrix DP over (letters placed, last letter), without listing a
word, and :func:`class_pair_distributions` reads any descent statistic off
it through the statistic's rule.  :func:`shuffle_distribution` serves one
pair: by the DP for a descent statistic, by enumeration otherwise.

The bijections here are the building blocks for statistic-preserving
reductions: positional replacement of one side (``phi`` / ``phi_tilde``),
the value swap ``t_swap`` exchanging i and i-1 when they are not adjacent,
and ``normalize_pair``, which rewrites any disjoint pair onto the standard
separated domains while recording a replayable descent-preserving trace
through the same driver as ``reduce.canonicalize``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations

from .errors import NotAShuffleError
from .perm import Perm, _check_disjoint
from .stats import (
    Distribution,
    StatId,
    descent_mask,
    descent_rule,
    distribution,
    is_descent_statistic,
    validate_stat,
)
from .traces import ReductionStep, ReductionTrace, run_reduction

ShuffleWord = str


def iter_shuffles(pi: Perm, sigma: Perm):
    """Yield all interleavings in lexicographic word order (a < b)."""
    _check_disjoint(pi, sigma)
    m, n = len(pi), len(sigma)
    for apos in combinations(range(m + n), m):
        out = [0] * (m + n)
        aset = set(apos)
        ai = bi = 0
        for p in range(m + n):
            if p in aset:
                out[p] = pi[ai]
                ai += 1
            else:
                out[p] = sigma[bi]
                bi += 1
        yield tuple(out)


def shuffles(pi: Perm, sigma: Perm) -> tuple[Perm, ...]:
    """All interleavings of ``pi`` and ``sigma``, in lexicographic word order.

    The result always has binomial(m+n, m) entries.
    """
    return tuple(iter_shuffles(pi, sigma))


def des_histogram(mask_pi: int, mask_sigma: int, m: int, n: int) -> dict[int, int]:
    """Descent sets, as bitmasks with bit d set for a descent at position d,
    over the shuffle set of any pi on [m] with descent bitmask ``mask_pi``
    and sigma on [n]+m with descent bitmask ``mask_sigma``.

    Every sigma entry exceeds every pi entry, so the descent set of an
    interleaving is fixed by its word: adjacent letters b, a give a
    descent, a, b an ascent, and a, a or b, b copy the comparison of the
    operand they come from.  The transfer-matrix DP runs over the words
    letter by letter; its state is the number of a's placed and the last
    letter, and each state keeps a count per descent bitmask so far.
    Equals ``Counter(descent_mask(t) for t in shuffles(pi, sigma))``
    without listing a word.
    """
    if not m or not n:  # one interleaving: the other operand itself
        return {mask_pi | mask_sigma: 1}
    # ends_a[i] / ends_b[i]: counts of the words with i a's placed that end
    # in a / in b.  Each state feeds exactly two states of the next layer
    # and is dropped once read, so about one layer of counts is alive.
    ends_a, ends_b = {1: {0: 1}}, {0: {0: 1}}
    for t in range(1, m + n):  # t letters placed; the next step is position t
        bit = 1 << t
        next_a, next_b = {}, {}
        for i in range(max(0, t - n), min(t, m) + 1):
            end_a, end_b = ends_a.pop(i, {}), ends_b.pop(i, {})
            if i < m:  # a after a copies Des pi; a after b is a descent
                next_a[i + 1] = _join(end_a, bit if mask_pi >> i & 1 else 0, end_b, bit)
            if t - i < n:  # b after a is an ascent; b after b copies Des sigma
                next_b[i] = _join(end_a, 0, end_b, bit if mask_sigma >> (t - i) & 1 else 0)
        ends_a, ends_b = next_a, next_b
    return _join(ends_a.get(m, {}), 0, ends_b.get(m, {}), 0)


def _with_bit(counts: dict, bit: int) -> dict:
    return {mask | bit: count for mask, count in counts.items()} if bit else counts


def _join(x: dict, x_bit: int, y: dict, y_bit: int) -> dict:
    """The counts of ``x`` with ``x_bit`` set in every mask, plus those of
    ``y`` with ``y_bit``; the bit is one that no mask has yet.  The result
    may be ``x`` or ``y`` itself: no count table is changed once built."""
    if not y:
        return _with_bit(x, x_bit)
    if not x:
        return _with_bit(y, y_bit)
    if x_bit != y_bit:  # one side gains the bit, so no mask is shared
        return {**_with_bit(x, x_bit), **_with_bit(y, y_bit)}
    if len(x) < len(y):
        x, y = y, x
    joined = dict(x)
    for mask, count in y.items():
        joined[mask] = joined.get(mask, 0) + count
    return _with_bit(joined, x_bit)


def class_pair_distributions(stat: StatId, m: int, n: int):
    """``dist_of(mask_pi, mask_sigma)``: the distribution of a descent
    statistic over the shuffle set of a class pair, pi on [m] and sigma on
    [n]+m with those descent bitmasks, read off :func:`des_histogram` by the
    statistic's rule.  The values of the last 1024 bitmasks are kept
    across calls: a sweep meets the same bitmasks in every class pair,
    while one class pair at 9+9 can have over 20,000, too many to keep."""
    rule = descent_rule(stat)
    value_of = lru_cache(maxsize=1 << 10)(lambda mask: rule(mask, m + n))

    def dist_of(mask_pi: int, mask_sigma: int) -> Distribution:
        dist: Distribution = Counter()
        for mask, count in des_histogram(mask_pi, mask_sigma, m, n).items():
            dist[value_of(mask)] += count
        return dist

    return dist_of


def shuffle_distribution(stat: StatId, pi: Perm, sigma: Perm) -> Distribution:
    """Distribution of a statistic over the shuffle set of ``pi`` and
    ``sigma``.

    For a descent statistic (or a tuple of them) it is a function of
    (Des pi, Des sigma, m, n), Des being shuffle compatible, so it is read
    off :func:`class_pair_distributions` without building the shuffle set;
    the operands need not be separated.  A statistic involving ``inv`` is
    evaluated on every interleaving.
    """
    stat = validate_stat(stat)
    _check_disjoint(pi, sigma)
    if is_descent_statistic(stat):
        dist_of = class_pair_distributions(stat, len(pi), len(sigma))
        return dist_of(descent_mask(pi), descent_mask(sigma))
    return distribution(stat, iter_shuffles(pi, sigma))


def shuffles_with_k_descents(pi: Perm, sigma: Perm, k: int) -> tuple[Perm, ...]:
    return tuple(t for t in shuffles(pi, sigma) if descent_mask(t).bit_count() == k)


def is_shuffle(tau: Perm, pi: Perm, sigma: Perm) -> bool:
    _check_disjoint(pi, sigma)
    if set(tau) != set(pi) | set(sigma) or len(tau) != len(pi) + len(sigma):
        return False
    pset = set(pi)
    left = tuple(v for v in tau if v in pset)
    right = tuple(v for v in tau if v not in pset)
    return left == pi and right == sigma


def _require_shuffle(tau: Perm, pi: Perm, sigma: Perm) -> None:
    if not is_shuffle(tau, pi, sigma):
        raise NotAShuffleError(f"{tau} is not a shuffle of {pi} and {sigma}")


def word_of(tau: Perm, pi: Perm, sigma: Perm) -> ShuffleWord:
    """Word of an interleaving: ``a`` at positions from ``pi``, ``b`` from
    ``sigma``."""
    _require_shuffle(tau, pi, sigma)
    pset = set(pi)
    return "".join("a" if v in pset else "b" for v in tau)


def from_word(pi: Perm, sigma: Perm, word: ShuffleWord) -> Perm:
    """The unique interleaving with the given word; inverse of word_of."""
    _check_disjoint(pi, sigma)
    if word.count("a") != len(pi) or word.count("b") != len(sigma):
        raise ValueError(
            f"word {word!r} does not match lengths ({len(pi)}, {len(sigma)})"
        )
    if set(word) - {"a", "b"}:
        raise ValueError(f"word {word!r} has letters outside a/b")
    out = []
    ai = bi = 0
    for ch in word:
        if ch == "a":
            out.append(pi[ai])
            ai += 1
        else:
            out.append(sigma[bi])
            bi += 1
    return tuple(out)


def _rename(tau: Perm, old: Perm, new: Perm) -> Perm:
    """Replace the entries of ``old`` in ``tau``, in order of occurrence, by
    the entries of ``new``; the replay of ``phi`` and ``phi_tilde``."""
    oset = set(old)
    rep = iter(new)
    return tuple(next(rep) if v in oset else v for v in tau)


def phi(tau: Perm, pi: Perm, pi_new: Perm, sigma: Perm) -> Perm:
    """Replace the ``pi``-entries of ``tau`` by the entries of ``pi_new``,
    preserving positions; the unique member of the new shuffle set with the
    same word."""
    ReductionStep("phi", {}, pi, sigma, pi_new, sigma)  # checks the pair
    _require_shuffle(tau, pi, sigma)
    return _rename(tau, pi, pi_new)


def phi_tilde(tau: Perm, pi: Perm, sigma: Perm, sigma_new: Perm) -> Perm:
    """Mirror of :func:`phi`, replacing the ``sigma`` side."""
    ReductionStep("phi_tilde", {}, pi, sigma, pi, sigma_new)  # checks the pair
    _require_shuffle(tau, pi, sigma)
    return _rename(tau, sigma, sigma_new)


def t_swap(tau: Perm, i: int) -> Perm:
    """Exchange the values i and i-1 unless they are adjacent in ``tau``.

    An involution that never changes the descent set.
    """
    try:
        p = tau.index(i)
        q = tau.index(i - 1)
    except ValueError:
        raise ValueError(f"both {i} and {i - 1} must occur in {tau}") from None
    if abs(p - q) == 1:
        return tau
    out = list(tau)
    out[p], out[q] = out[q], out[p]
    return tuple(out)


def _relabel_steps(pi, sigma, pi1, sgm1, measure):
    """Steps rewriting (pi, sigma) to the jointly standardized (pi1, sgm1).

    Tries to replace one side at a time; when either order would collide,
    detours the pi side through values above everything.  Each step
    replaces one side: ``phi`` when sigma is kept, ``phi_tilde`` otherwise.
    """
    if sgm1 == sigma:
        path = [(pi1, sigma)]
    elif pi1 == pi:
        path = [(pi, sgm1)]
    elif not set(pi) & set(sgm1):
        path = [(pi, sgm1), (pi1, sgm1)]
    elif not set(pi1) & set(sigma):
        path = [(pi1, sigma), (pi1, sgm1)]
    else:
        lift = max(max(pi), max(sigma))
        pi_hi = tuple(v + lift for v in pi1)
        path = [(pi_hi, sigma), (pi_hi, sgm1), (pi1, sgm1)]
    steps, cur = [], (pi, sigma)
    for nxt in path:
        kind = "phi" if nxt[1] == cur[1] else "phi_tilde"
        steps.append(ReductionStep(kind, {}, *cur, *nxt, measure))
        cur = nxt
    return steps


def normalize_pair(pi: Perm, sigma: Perm, mode: str) -> tuple[Perm, Perm, ReductionTrace]:
    """Rewrite a disjoint pair onto separated standard domains.

    ``pi_low`` produces (std to [m], std to [n]+m); ``sigma_low`` the
    mirror.  The returned trace replays on any interleaving of the original
    pair as a bijection onto the normalized shuffle set that preserves the
    descent set, hence every descent statistic.  After joint relabeling the
    value swap with the smallest applicable index is applied until the two
    domains are separated.  The relabeling steps and the swaps are
    recorded by the reduction driver (``traces.run_reduction``); the mode
    only picks which side must end low.
    """
    if mode not in ("pi_low", "sigma_low"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_disjoint(pi, sigma)

    union = sorted(set(pi) | set(sigma))
    relabel = {v: r + 1 for r, v in enumerate(union)}
    pi1 = tuple(relabel[v] for v in pi)
    sgm1 = tuple(relabel[v] for v in sigma)

    def low_high(p, s):
        return (p, s) if mode == "pi_low" else (s, p)

    def measure(p, s):
        low, high = low_high(p, s)
        return sum(1 for a in low for b in high if a > b)

    def swap_move(p, s):
        low, high = low_high(p, s)
        partner = set(high)
        i = min((v for v in low if v - 1 in partner), default=None)
        if i is None:
            return None
        swap = {i: i - 1, i - 1: i}
        p, s = [tuple([swap.get(v, v) for v in w]) for w in (p, s)]
        return "t_swap", {"i": i}, p, s

    steps = []
    if (pi1, sgm1) != (pi, sigma):
        steps = _relabel_steps(pi, sigma, pi1, sgm1, measure(pi1, sgm1))
    trace = run_reduction("Des", pi, sigma, measure, swap_move, steps)
    return trace.final_pi, trace.final_sigma, trace
