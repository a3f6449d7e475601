"""Shuffle sets, their word encoding, and elementary shuffle bijections.

An interleaving of two domain-disjoint permutations is encoded by a word
over {a, b} marking which side each position came from; enumeration is in
lexicographic word order with a < b, which makes every listing stable.

The bijections here are the building blocks for statistic-preserving
reductions: positional replacement of one side (``phi`` / ``phi_tilde``),
the value swap ``t_swap`` exchanging i and i-1 when they are not adjacent,
and ``normalize_pair``, which rewrites any disjoint pair onto the standard
separated domains while recording a replayable descent-preserving trace.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .errors import NotAShuffleError
from .perm import Perm, _check_disjoint
from .stats import des_set
from .traces import ReductionStep, ReductionTrace

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


def des_histogram(
    des_pi: frozenset[int], des_sigma: frozenset[int], m: int, n: int
) -> Counter:
    """Descent sets over the shuffle set of any pi on [m] with descent set
    ``des_pi`` and sigma on [n]+m with descent set ``des_sigma``.

    Every sigma entry exceeds every pi entry, so the descent set of an
    interleaving is fixed by its word: adjacent letters b, a give a
    descent, a, b an ascent, and a, a or b, b copy the comparison of the
    operand they come from.  Equals
    ``Counter(des_set(t) for t in shuffles(pi, sigma))`` without building
    the shuffle set.
    """
    hist: Counter = Counter()
    for apos in combinations(range(m + n), m):
        aset = set(apos)
        descents = []
        ai = bi = 0  # entries of pi / sigma placed so far
        for p in range(m + n):
            if p in aset:
                if p and (p - 1 not in aset or ai in des_pi):
                    descents.append(p)
                ai += 1
            else:
                if p and p - 1 not in aset and bi in des_sigma:
                    descents.append(p)
                bi += 1
        hist[frozenset(descents)] += 1
    return hist


def shuffles_with_k_descents(pi: Perm, sigma: Perm, k: int) -> tuple[Perm, ...]:
    return tuple(t for t in shuffles(pi, sigma) if len(des_set(t)) == k)


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


def _order_lowering_count(first: Perm, second: Perm) -> int:
    return sum(1 for a in first for b in second if a > b)


def _relabel_steps(pi, sigma, pi1, sgm1, measure):
    """Steps rewriting (pi, sigma) to the jointly standardized (pi1, sgm1).

    Tries to replace one side at a time; when either order would collide,
    detours the pi side through values above everything.
    """
    steps = []

    def phi_step(src_pi, src_sg, tgt_pi):
        return ReductionStep("phi", {}, src_pi, src_sg, tgt_pi, src_sg, measure)

    def phi_tilde_step(src_pi, src_sg, tgt_sg):
        return ReductionStep("phi_tilde", {}, src_pi, src_sg, src_pi, tgt_sg, measure)

    if sgm1 == sigma:
        steps.append(phi_step(pi, sigma, pi1))
    elif pi1 == pi:
        steps.append(phi_tilde_step(pi, sigma, sgm1))
    elif not set(pi) & set(sgm1):
        steps.append(phi_tilde_step(pi, sigma, sgm1))
        steps.append(phi_step(pi, sgm1, pi1))
    elif not set(pi1) & set(sigma):
        steps.append(phi_step(pi, sigma, pi1))
        steps.append(phi_tilde_step(pi1, sigma, sgm1))
    else:
        lift = max(max(pi), max(sigma))
        pi_hi = tuple(v + lift for v in pi1)
        steps.append(phi_step(pi, sigma, pi_hi))
        steps.append(phi_tilde_step(pi_hi, sigma, sgm1))
        steps.append(phi_step(pi_hi, sgm1, pi1))
    return steps


def normalize_pair(pi: Perm, sigma: Perm, mode: str) -> tuple[Perm, Perm, ReductionTrace]:
    """Rewrite a disjoint pair onto separated standard domains.

    ``pi_low`` produces (std to [m], std to [n]+m); ``sigma_low`` the
    mirror.  The returned trace replays on any interleaving of the original
    pair as a bijection onto the normalized shuffle set that preserves the
    descent set, hence every descent statistic.  After joint relabeling the
    value swap with the smallest applicable index is applied until the two
    domains are separated.
    """
    if mode not in ("pi_low", "sigma_low"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_disjoint(pi, sigma)

    union = sorted(set(pi) | set(sigma))
    relabel = {v: r + 1 for r, v in enumerate(union)}
    pi1 = tuple(relabel[v] for v in pi)
    sgm1 = tuple(relabel[v] for v in sigma)

    def measure(p, s):
        if mode == "pi_low":
            return _order_lowering_count(p, s)
        return _order_lowering_count(s, p)

    start_measure = measure(pi1, sgm1)
    steps = []
    if (pi1, sgm1) != (pi, sigma):
        steps.extend(_relabel_steps(pi, sigma, pi1, sgm1, start_measure))

    cur_pi, cur_sg = pi1, sgm1
    while True:
        if mode == "pi_low":
            partner = set(cur_sg)
            cands = [i for i in cur_pi if (i - 1) in partner]
        else:
            partner = set(cur_pi)
            cands = [i for i in cur_sg if (i - 1) in partner]
        if not cands:
            break
        i = min(cands)
        if mode == "pi_low":
            nxt_pi = tuple(i - 1 if v == i else v for v in cur_pi)
            nxt_sg = tuple(i if v == i - 1 else v for v in cur_sg)
        else:
            nxt_sg = tuple(i - 1 if v == i else v for v in cur_sg)
            nxt_pi = tuple(i if v == i - 1 else v for v in cur_pi)
        steps.append(
            ReductionStep(
                "t_swap", {"i": i}, cur_pi, cur_sg, nxt_pi, nxt_sg,
                measure(nxt_pi, nxt_sg),
            )
        )
        cur_pi, cur_sg = nxt_pi, nxt_sg

    trace = ReductionTrace(
        statistic="Des",
        steps=tuple(steps),
        start_pi=pi,
        start_sigma=sigma,
        final_pi=cur_pi,
        final_sigma=cur_sg,
        start_measure=start_measure,
    )
    return cur_pi, cur_sg, trace
