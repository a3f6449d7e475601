import tracemalloc
from itertools import combinations, permutations
from math import comb

import pytest
from conftest import disjoint_pairs, perms
from hypothesis import given
from hypothesis import strategies as st

from oracles import shuffle_set_oracle
from shufbij import traces
from shufbij.errors import DomainOverlapError, NotAShuffleError
from shufbij.reduce import apply_trace
from shufbij.shuffle import (
    _word_getters,
    from_word,
    is_shuffle,
    iter_shuffles,
    normalize_pair,
    phi,
    phi_tilde,
    shuffle_distribution,
    shuffles,
    shuffles_with_k_descents,
    t_swap,
    word_of,
)
from shufbij.stats import DESCENT_NAMES, distribution, evaluate
from shufbij.traces import ReductionStep


def test_shuffle_set_worked_example():
    listed = [
        (1, 3, 2, 7, 6), (1, 3, 7, 2, 6), (1, 3, 7, 6, 2), (1, 7, 3, 2, 6),
        (1, 7, 3, 6, 2), (1, 7, 6, 3, 2), (7, 1, 3, 2, 6), (7, 1, 3, 6, 2),
        (7, 1, 6, 3, 2), (7, 6, 1, 3, 2),
    ]
    assert list(shuffles((1, 3, 2), (7, 6))) == listed


def test_shuffle_set_sizes_and_edges():
    assert shuffles((2, 4, 1), (7, 3)) == tuple(sorted(
        shuffle_set_oracle((2, 4, 1), (7, 3)),
        key=lambda t: word_of(t, (2, 4, 1), (7, 3)),
    ))
    assert len(shuffles((2, 4, 1), (7, 3))) == comb(5, 3)
    assert shuffles((3, 1, 2), ()) == ((3, 1, 2),)
    assert shuffles((), ()) == ((),)
    with pytest.raises(DomainOverlapError):
        shuffles((1, 2), (2, 3))


@given(disjoint_pairs(max_total=6))
def test_shuffles_match_recursive_oracle(pair):
    pi, sigma = pair
    out = shuffles(pi, sigma)
    assert len(out) == comb(len(pi) + len(sigma), len(pi))
    assert set(out) == shuffle_set_oracle(pi, sigma)
    assert len(set(out)) == len(out)
    words = [word_of(t, pi, sigma) for t in out]
    assert words == sorted(words)


def _near_misses(tau, pi):
    """Sequences one edit away from ``tau``: an entry repeated, dropped or
    replaced by a foreign value, the length changed, two entries of pi
    swapped."""
    foreign = max(tau, default=0) + 1
    for p in range(len(tau)):
        yield tau[:p] + tau[p + 1:]
        yield tau[:p] + (foreign,) + tau[p + 1:]
        yield tau[:p + 1] + tau[p:]
        for q in range(len(tau)):
            if q != p:
                yield tau[:p] + (tau[q],) + tau[p + 1:]
    yield tau + (foreign,)
    yield tau + tau[-1:]
    at = [p for p, v in enumerate(tau) if v in pi]
    for p, q in combinations(at, 2):
        swapped = list(tau)
        swapped[p], swapped[q] = swapped[q], swapped[p]
        yield tuple(swapped)


@pytest.mark.parametrize("ground", [(1, 2, 3, 4, 5), (1, 3, 5, 7, 9)], ids=str)
def test_is_shuffle_matches_oracle(ground):
    """Every disjoint pair over the ground set, given as tuples or as lists:
    each permutation of the union, and each near miss of a member, is a
    shuffle exactly when the recursive oracle lists it."""
    for m in range(len(ground) + 1):
        for dom in combinations(ground, m):
            rest = tuple(v for v in ground if v not in dom)
            for pi in permutations(dom):
                for sigma in permutations(rest):
                    members = shuffle_set_oracle(pi, sigma)
                    for tau in permutations(ground):
                        assert is_shuffle(tau, pi, sigma) == (tau in members)
                        assert is_shuffle(tau, list(pi), list(sigma)) == (tau in members)
                    for tau in members:
                        for miss in _near_misses(tau, pi):
                            assert is_shuffle(miss, pi, sigma) == (miss in members)


def test_is_shuffle_refuses_overlapping_domains():
    with pytest.raises(DomainOverlapError, match=r"^domains share \[2, 3\]$"):
        is_shuffle((1, 2, 3), (3, 1, 2), (2, 3))


def _per_position_shuffles(pi, sigma):
    """The enumeration the word tables replaced: each interleaving built
    position by position from the a positions of its word."""
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


def test_word_tables_match_oracle_on_every_small_shape():
    for total in range(9):
        for m in range(total + 1):
            # Interleaved domains: pi the first m odd values, descending;
            # sigma the smallest other values, ascending.
            pi = tuple(range(2 * m - 1, 0, -2))
            sigma = tuple(sorted(set(range(1, 2 * total + 1)) - set(pi)))[: total - m]
            out = shuffles(pi, sigma)
            assert set(out) == shuffle_set_oracle(pi, sigma)
            assert len(out) == comb(total, m)
            words = [word_of(t, pi, sigma) for t in out]
            assert all(u < v for u, v in zip(words, words[1:]))
            assert tuple(iter_shuffles(pi, sigma)) == out


@pytest.mark.parametrize("m,n", [(6, 7), (7, 7), (1, 15), (12, 1)])
def test_word_tables_keep_the_per_position_order_across_the_cut(m, n):
    pi = tuple(range(2 * m, 0, -2))
    sigma = tuple(range(1, 2 * n, 2))
    expected = tuple(_per_position_shuffles(pi, sigma))
    assert shuffles(pi, sigma) == expected
    assert tuple(iter_shuffles(list(pi), list(sigma))) == expected


def test_word_tables_take_lists_and_the_smallest_shapes():
    assert shuffles([], []) == ((),)
    assert shuffles([5], []) == shuffles([], [5]) == ((5,),)
    assert shuffles([2, 1], [3]) == ((2, 1, 3), (2, 3, 1), (3, 2, 1))
    assert list(iter_shuffles([4], [])) == [(4,)]
    assert all(type(t) is tuple for t in iter_shuffles([2, 1], [4, 3]))
    for pi, sigma in [((1, 2), (2, 3)), (tuple(range(1, 8)), tuple(range(7, 14)))]:
        with pytest.raises(DomainOverlapError):
            shuffles(pi, sigma)
        with pytest.raises(DomainOverlapError):
            list(iter_shuffles(pi, sigma))
    assert _word_getters.cache_info().maxsize is not None


def test_streaming_a_10_10_pair_stays_small():
    pi = (3, 17, 1, 9, 12, 20, 6, 14, 8, 11)
    sigma = (15, 2, 19, 7, 10, 4, 18, 13, 5, 16)
    # The first pass builds the word tables it reads (about 1.1 MB, kept in
    # the bounded cache); a stream itself holds only its prefixes.
    for _ in iter_shuffles(pi, sigma):
        pass
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_shuffles(pi, sigma))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == comb(20, 10)
    assert peak < 1 << 20


def test_a_long_lopsided_set_streams_without_recursion():
    listed = shuffles((1,), tuple(range(2, 1102)))
    assert len(listed) == 1101
    assert all(tau.index(1) == i for i, tau in enumerate(listed))
    assert shuffle_distribution("inv", (1,), range(2, 1102)) == dict.fromkeys(range(1101), 1)


def test_a_long_lopsided_set_keeps_the_cached_word_tables():
    """Only tabled shapes with two nonempty operands take cache entries:
    listing the 1+1100 set between two listings of a 10+10 pair leaves
    the pair's tables cached, so the second listing misses none."""
    pi = (3, 17, 1, 9, 12, 20, 6, 14, 8, 11)
    sigma = (15, 2, 19, 7, 10, 4, 18, 13, 5, 16)
    first = [tau[0] for tau in iter_shuffles(pi, sigma)]
    assert sum(1 for _ in iter_shuffles((1,), range(2, 1102))) == 1101
    misses = _word_getters.cache_info().misses
    assert [tau[0] for tau in iter_shuffles(pi, sigma)] == first
    assert _word_getters.cache_info().misses == misses


def test_cardinality_exhaustive_by_sizes():
    for total in range(9):
        for m in range(total + 1):
            pi = tuple(range(1, m + 1))
            sigma = tuple(range(m + 1, total + 1))
            assert len(shuffles(pi, sigma)) == comb(total, m)


def test_shuffles_with_k_descents():
    assert shuffles_with_k_descents((1, 2), (3, 4), 0) == ((1, 2, 3, 4),)
    assert shuffles_with_k_descents((1,), (2,), 1) == ((2, 1),)
    pi, sigma = (2, 4, 1), (7, 3)
    union = []
    for k in range(6):
        union.extend(shuffles_with_k_descents(pi, sigma, k))
    assert sorted(union) == sorted(shuffles(pi, sigma))


def test_word_roundtrip_worked_example():
    tau = (1, 4, 5, 3, 8, 2, 9)
    assert word_of(tau, (1, 3, 2), (4, 5, 8, 9)) == "abbabab"
    assert from_word((1, 3, 2), (4, 5, 8, 9), "abbabab") == tau
    assert word_of((7, 6, 1, 3, 2), (1, 3, 2), (7, 6)) == "bbaaa"
    assert from_word((1, 3, 2), (7, 6), "bbaaa") == (7, 6, 1, 3, 2)
    assert word_of((3, 1, 2), (3, 1, 2), ()) == "aaa"
    with pytest.raises(NotAShuffleError):
        word_of((1, 2, 3), (2, 1), (3,))
    with pytest.raises(ValueError):
        from_word((1, 2), (3,), "ab")


@given(disjoint_pairs(max_total=6))
def test_word_of_from_word_inverse(pair):
    pi, sigma = pair
    for tau in shuffles(pi, sigma):
        assert from_word(pi, sigma, word_of(tau, pi, sigma)) == tau


def test_phi_worked_example():
    assert phi((1, 4, 5, 3, 8, 2, 9), (1, 3, 2), (3, 6, 1), (4, 5, 8, 9)) == (
        3, 4, 5, 6, 8, 1, 9,
    )
    tau = (1, 3, 2, 7, 6)
    assert phi(tau, (1, 3, 2), (1, 3, 2), (7, 6)) == tau
    assert phi_tilde(tau, (1, 3, 2), (7, 6), (7, 6)) == tau
    assert phi_tilde((1, 3, 2, 7, 6), (1, 3, 2), (7, 6), (9, 8)) == (1, 3, 2, 9, 8)


def test_phi_bijection_and_word_preservation():
    pi, pi_new, sigma = (2, 4, 1), (5, 4, 1), (7, 3)
    images = set()
    for tau in shuffles(pi, sigma):
        out = phi(tau, pi, pi_new, sigma)
        assert word_of(out, pi_new, sigma) == word_of(tau, pi, sigma)
        images.add(out)
    assert images == set(shuffles(pi_new, sigma))


def test_phi_validation():
    with pytest.raises(ValueError):
        phi((1, 2, 3), (1, 2), (9,), (3,))
    with pytest.raises(DomainOverlapError):
        phi((1, 2, 3), (1, 2), (3, 4), (3,))
    with pytest.raises(NotAShuffleError):
        phi((2, 1, 3), (1, 2), (8, 9), (3,))


def test_phi_and_phi_tilde_replay_through_the_kind_table(monkeypatch):
    """Each builds its step and replays it by ``traces.step_replay``, which
    reads the rename replay off the kinds' table."""
    monkeypatch.setattr(traces, "_rename_replay", lambda old, new: lambda tau: ("replayed", tau))
    tau = (1, 3, 2, 4)
    assert phi(tau, (1, 2), (2, 1), (3, 4)) == ("replayed", tau)
    assert phi_tilde(tau, (1, 2), (3, 4), (4, 3)) == ("replayed", tau)


def test_phi_preserves_descent_and_peak_families_pointwise():
    # Replacing the low side by an equal-profile permutation fixes each
    # descent/peak family at every position of every interleaving.
    for m, n in [(3, 2), (4, 2), (2, 3)]:
        lows = [tuple(p) for p in permutations(range(1, m + 1))]
        highs = [tuple(s) for s in permutations(range(m + 1, m + n + 1))]
        for name in ("Des", "Pk", "Lpk", "Rpk", "Epk"):
            groups = {}
            for p in lows:
                groups.setdefault(evaluate(name, p), []).append(p)
            for members in groups.values():
                ref = members[0]
                for other in members[1:]:
                    for sigma in highs:
                        for tau in shuffles(ref, sigma):
                            out = phi(tau, ref, other, sigma)
                            assert evaluate(name, out) == evaluate(name, tau)


def test_phi_tilde_preserves_ascent_and_valley_families_pointwise():
    for m, n in [(2, 3), (2, 4), (3, 2)]:
        lows = [tuple(p) for p in permutations(range(1, m + 1))]
        highs = [tuple(s) for s in permutations(range(m + 1, m + n + 1))]
        for name in ("Asc", "Val", "Lval", "Rval", "Eval"):
            groups = {}
            for s in highs:
                groups.setdefault(evaluate(name, s), []).append(s)
            for members in groups.values():
                ref = members[0]
                for other in members[1:]:
                    for pi in lows:
                        for tau in shuffles(pi, ref):
                            out = phi_tilde(tau, pi, ref, other)
                            assert evaluate(name, out) == evaluate(name, tau)


def test_t_swap_worked_examples():
    assert t_swap((5, 2, 4, 1, 3), 4) == (5, 2, 3, 1, 4)
    assert t_swap((5, 2, 3, 4, 1), 4) == (5, 2, 3, 4, 1)
    with pytest.raises(ValueError):
        t_swap((1, 2, 3), 5)


@given(perms(min_size=2), st.data())
def test_t_swap_involution_and_des_preserving(pi, data):
    values = sorted(pi)
    idx = data.draw(st.integers(0, len(values) - 2))
    lo, hi = values[idx], values[idx + 1]
    if hi != lo + 1:
        return  # value swap defined for consecutive values only
    once = t_swap(pi, hi)
    assert t_swap(once, hi) == pi
    assert evaluate("Des", once) == evaluate("Des", pi)


def test_normalize_pair_worked_example():
    npi, nsg, trace = normalize_pair((2, 4, 1), (7, 3), "pi_low")
    assert (npi, nsg) == ((2, 3, 1), (5, 4))
    assert ("t_swap", {"i": 4}) in [(s.kind, dict(s.params)) for s in trace.steps]
    assert apply_trace(trace, (7, 2, 4, 1, 3)) == (5, 2, 3, 1, 4)


def test_normalize_pair_already_normalized():
    npi, nsg, trace = normalize_pair((2, 1, 3), (5, 4), "pi_low")
    assert (npi, nsg) == ((2, 1, 3), (5, 4))
    assert len(trace.steps) == 0


@pytest.mark.parametrize("mode", ["pi_low", "sigma_low"])
def test_normalize_pair_freezes_list_operands(mode):
    """A pair of lists gives the tuple pair's trace, which replays on the
    pair's whole shuffle set onto the normalized one."""
    for pi, sigma in [((1, 2), (3, 4)), ((2, 4, 1), (7, 3)), ((2, 9), (4, 3))]:
        npi, nsg, trace = normalize_pair(list(pi), list(sigma), mode)
        assert (npi, nsg, trace) == normalize_pair(pi, sigma, mode)
        images = [apply_trace(trace, tau) for tau in shuffles(pi, sigma)]
        assert sorted(images) == sorted(shuffles(npi, nsg))


def test_normalize_pair_sigma_low_mode():
    npi, nsg, trace = normalize_pair((2, 4, 1), (7, 3), "sigma_low")
    assert set(nsg) == {1, 2}
    assert set(npi) == {3, 4, 5}
    for tau in shuffles((2, 4, 1), (7, 3)):
        out = apply_trace(trace, tau)
        assert is_shuffle(out, npi, nsg)
        assert evaluate("Des", out) == evaluate("Des", tau)


def test_normalize_pair_colliding_relabel_orders():
    # U' meets V and V' meets U, forcing the three-step detour.
    pi, sigma = (2, 9), (4, 3)
    npi, nsg, trace = normalize_pair(pi, sigma, "pi_low")
    assert (set(npi), set(nsg)) == ({1, 2}, {3, 4})
    for tau in shuffles(pi, sigma):
        out = apply_trace(trace, tau)
        assert is_shuffle(out, npi, nsg)
        assert evaluate("Des", out) == evaluate("Des", tau)


def test_normalize_trace_preserves_every_descent_statistic_exhaustive():
    for total in range(5 + 1):
        for m in range(total + 1):
            for dom_pi in combinations(range(1, total + 1), m):
                dom_sigma = tuple(v for v in range(1, total + 1) if v not in dom_pi)
                for pi in permutations(dom_pi):
                    for sigma in permutations(dom_sigma):
                        for mode in ("pi_low", "sigma_low"):
                            npi, nsg, trace = normalize_pair(pi, sigma, mode)
                            src = shuffles(pi, sigma)
                            imgs = [apply_trace(trace, t) for t in src]
                            assert sorted(imgs) == sorted(shuffles(npi, nsg))
                            for name in DESCENT_NAMES:
                                assert distribution(name, src) == distribution(name, imgs)
                            for t, im in zip(src, imgs):
                                assert evaluate("Des", t) == evaluate("Des", im)


@given(disjoint_pairs(max_total=7), st.sampled_from(["pi_low", "sigma_low"]))
def test_normalize_trace_des_preserving_random(pair, mode):
    pi, sigma = pair
    npi, nsg, trace = normalize_pair(pi, sigma, mode)
    src = shuffles(pi, sigma)
    imgs = [apply_trace(trace, t) for t in src]
    assert sorted(imgs) == sorted(shuffles(npi, nsg))
    assert all(evaluate("Des", a) == evaluate("Des", b) for a, b in zip(src, imgs))
    swap_measures = [s.measure_after for s in trace.steps if s.kind == "t_swap"]
    assert all(a > b for a, b in zip(swap_measures, swap_measures[1:]))
    if swap_measures:
        assert trace.start_measure > swap_measures[0]


@pytest.mark.parametrize("call, fragment", [
    (lambda: from_word((1,), (2,), "abc"), "letters outside a/b"),
    (lambda: normalize_pair((1,), (2,), "middle"), "unknown mode"),
    (lambda: ReductionStep("theta_pk", {"j": 3}, (1, 3, 2), (7,), (1, 3, 4), (7,)),
     "must share the domain"),
    (lambda: ReductionStep("theta_pk", {"j": 4}, (1, 3, 2, 5, 4, 6), (7,), (1, 2, 3, 4, 5, 6), (7,)),
     "peak at 2 blocks moving the peak at 4"),
])
def test_shuffle_and_traces_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
