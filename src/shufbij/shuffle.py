"""Shuffle sets, their word encoding, distributions over them, and
elementary shuffle bijections.

An interleaving of two domain-disjoint permutations is encoded by a word
over {a, b} marking which side each position came from; enumeration is in
lexicographic word order with a < b, which makes every listing stable.
Where each entry goes depends only on (m, n) and the word: a shape of at
most ``_TABLE_CUT`` entries (words times m+n) is a cached table of one
``operator.itemgetter`` per word, and a larger one streams, recursing on
its first letter, a before b, down to tabled rests.

Des is shuffle compatible, so the distribution of a descent statistic over
a shuffle set depends only on the operands' descent bitmasks (bit d set
for a descent at d, :func:`~shufbij.stats.descent_mask`) and lengths.
:func:`class_pair_distributions` computes it for a class pair by one
transfer-matrix DP over (a's placed, last letter), without listing a
word.  Each state counts packed keys that carry every component's partial
value, moved by the step deltas of :func:`~shufbij.stats.value_dp` as
each step is decided: a handful of keys for ``pk`` or ``maj``, the whole
descent bitmask for ``Des``, whose instance is :func:`des_histogram`.
:func:`shuffle_distribution` serves one pair: by the DP for a descent
statistic, by enumeration otherwise.

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
from math import comb
from operator import itemgetter

from .errors import NotAShuffleError
from .perm import Perm, _check_disjoint
from .stats import (
    Distribution,
    StatId,
    descent_mask,
    distribution,
    is_descent_statistic,
    mark_tables,
    validate_stat,
    value_dp,
    walk,
)
from .traces import ReductionStep, ReductionTrace, run_reduction

ShuffleWord = str


_TABLE_CUT = 1 << 12  # most entries (words times m+n) of a tabled shape


@lru_cache(maxsize=256)  # every shape with m+n <= 20; the tables take about 2 MB
def _word_getters(m: int, n: int):
    """One getter per word of m a's and n b's, in lexicographic word order,
    that reads the word's interleaving off ``pi + sigma``; None above the cut."""
    if m and n and comb(m + n, m) * (m + n) > _TABLE_CUT:
        return None
    if m + n < 2:  # an itemgetter of one index returns the bare entry
        return (tuple,)
    getters = []
    for apos in combinations(range(m + n), m):
        slots = apos + tuple(p for p in range(m + n) if p not in apos)  # entry -> slot
        getters.append(itemgetter(*sorted(range(m + n), key=slots.__getitem__)))
    return tuple(getters)


def _blocks(prefix: Perm, pi: Perm, sigma: Perm):
    """``(prefix, pi + sigma, getters)`` per tabled rest, in word order."""
    if getters := _word_getters(len(pi), len(sigma)):
        yield prefix, pi + sigma, getters
    else:
        yield from _blocks(prefix + pi[:1], pi[1:], sigma)
        yield from _blocks(prefix + sigma[:1], pi, sigma[1:])


def iter_shuffles(pi: Perm, sigma: Perm):
    """Yield all interleavings in lexicographic word order (a < b), by :func:`_blocks`."""
    _check_disjoint(pi, sigma)
    for prefix, rest, getters in _blocks((), tuple(pi), tuple(sigma)):
        for get in getters:
            yield prefix + get(rest)


def shuffles(pi: Perm, sigma: Perm) -> tuple[Perm, ...]:
    """All interleavings of ``pi`` and ``sigma``, in lexicographic word order.

    The result always has binomial(m+n, m) entries.  A tabled shape reads
    them off its word getters; a larger one collects :func:`iter_shuffles`.
    """
    _check_disjoint(pi, sigma)
    if getters := _word_getters(len(pi), len(sigma)):
        rest = tuple(pi) + tuple(sigma)
        return tuple([get(rest) for get in getters])
    return tuple(iter_shuffles(pi, sigma))


def _value_counts(dp, mask_pi: int, mask_sigma: int, m: int, n: int) -> dict:
    """Packed keys with their counts over the shuffle set of any pi on [m]
    with descent bitmask ``mask_pi`` and sigma on [n]+m with descent
    bitmask ``mask_sigma``, by the DP ``dp`` of :func:`~shufbij.stats.value_dp`.

    Every sigma entry exceeds every pi entry, so each step of an
    interleaving is fixed by its word: adjacent letters b, a fall, a, b
    rise, and a, a or b, b copy the step of the operand they come from.
    The transfer-matrix DP runs over the words letter by letter; its state
    is the number of a's placed and the last letter, and each state keeps
    a count per key.  With an operand empty there is one word, the other
    operand's, and the key is that of its rule (:func:`~shufbij.stats.walk`).
    """
    if not m or not n:  # one interleaving, the other operand itself
        return {walk(dp, mask_pi | mask_sigma): 1}
    start, steps, _ = dp
    # ends_a[i] / ends_b[i]: counts of the words with i a's placed that end
    # in a / in b.  Each state feeds the two states of the next layer that
    # fit in (m, n), and is dropped once read.
    ends_a, ends_b = {1: {start: 1}}, {0: {start: 1}}
    for t in range(1, m + n):  # t letters placed; the next step is step t
        rise, fall = steps[t]
        moves = []  # (counts, next layer: 1 for a, a's placed, key deltas)
        for i, counts in ends_a.items():  # a after a copies Des pi; b after a rises
            moves += [(counts, 1, i + 1, fall if mask_pi >> i & 1 else rise), (counts, 0, i, rise)]
        for i, counts in ends_b.items():  # a after b falls; b after b copies Des sigma
            moves += [(counts, 1, i + 1, fall),
                      (counts, 0, i, fall if mask_sigma >> (t - i) & 1 else rise)]
        ends_b, ends_a = layers = ({}, {})
        for counts, ends_with_a, i, (step, step_after_fall) in moves:
            if i > m or t + 1 - i > n:
                continue
            layer = layers[ends_with_a]
            if step != step_after_fall:
                into = layer.setdefault(i, {})
                for key, count in counts.items():
                    key += step_after_fall if key & 1 else step
                    into[key] = into.get(key, 0) + count
            elif i not in layer:  # no mark reads the step before: keys move as one
                layer[i] = {key + step: count for key, count in counts.items()}
            else:
                into = layer[i]
                for key, count in counts.items():
                    key += step
                    into[key] = into.get(key, 0) + count
    final = ends_a.get(m, {})
    for key, count in ends_b.get(m, {}).items():
        final[key] = final.get(key, 0) + count
    return final


def des_histogram(mask_pi: int, mask_sigma: int, m: int, n: int) -> dict[int, int]:
    """Descent sets, as bitmasks with bit d set for a descent at position d,
    over the shuffle set of any pi on [m] with descent bitmask ``mask_pi``
    and sigma on [n]+m with descent bitmask ``mask_sigma``: the DP of
    :func:`_value_counts` for ``Des``, whose packed key is the bitmask.
    Equals ``Counter(descent_mask(t) for t in shuffles(pi, sigma))``
    without listing a word.
    """
    return _value_counts(value_dp(mark_tables("Des"), m + n), mask_pi, mask_sigma, m, n)


def class_pair_distributions(stat: StatId, m: int, n: int):
    """``dist_of(mask_pi, mask_sigma)``: the distribution of a descent
    statistic over the shuffle set of a class pair, pi on [m] and sigma on
    [n]+m with those descent bitmasks.  One DP (:func:`_value_counts`)
    carries each component's partial value in a packed key, with the step
    deltas and the decode that the statistic's rule walks over one word.
    The decode keeps the values of its last 1024 final keys across calls
    and class pairs: a sweep meets the same keys in every class pair, while
    one class pair of ``Des`` at 9+9 has over 20,000."""
    dp = value_dp(mark_tables(stat), m + n)
    decode = dp[2]

    def dist_of(mask_pi: int, mask_sigma: int) -> Distribution:
        dist: Distribution = Counter()
        for key, count in _value_counts(dp, mask_pi, mask_sigma, m, n).items():
            dist[decode(key)] += count
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
    a, b = iter(pi), iter(sigma)
    return tuple(next(a) if ch == "a" else next(b) for ch in word)


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
