"""Differential tests of the descent-class quotient against brute force.

Exhaustive over every normalized pair with m+n <= 7 (pi on [m], sigma on
[n]+m).  The descent-set histogram is checked against enumeration, the
class representative against its descent set, and the reduced-mode sweeps
and the maj identities against pair-by-pair references that enumerate
every shuffle set.
"""

from collections import Counter
from itertools import permutations

import pytest

from oracles import des_set_oracle, shuffle_set_oracle
from shufbij.qpoly import gen_poly, stanley_refined_rhs, stanley_rhs
from shufbij.shuffle import des_histogram, shuffles
from shufbij.stats import (
    STATISTICS,
    des_set,
    distribution,
    evaluate,
    evaluate_descent_class,
    format_stat,
)
from shufbij.verify import Witness, check_compatibility, check_identity

MAX_TOTAL = 7
SPLITS = [(m, total - m) for total in range(MAX_TOTAL + 1) for m in range(total + 1)]
DESCENT_STATS = [name for name, d in STATISTICS.items() if d.descent_statistic] + [
    ("maj", "des"), ("udr", "pk"), ("udr", "pk", "des"), ("biruns", "des"),
]


def _low(m):
    return list(permutations(range(1, m + 1)))


def _high(m, n):
    return list(permutations(range(m + 1, m + n + 1)))


@pytest.fixture(scope="module")
def shuffle_sets():
    return {
        (pi, sigma): shuffles(pi, sigma)
        for m, n in SPLITS for pi in _low(m) for sigma in _high(m, n)
    }


def _outcome(report):
    payload = report.to_json()
    return payload["outcome"], payload["cases_checked"], payload["witness"]


def _reference_reduced(stat, m, n, side, dist_of):
    """The reduced scan pair by pair, every distribution enumerated."""
    movers, partners = (_low(m), _high(m, n)) if side == "pi" else (_high(m, n), _low(m))
    groups = {}
    for mover in movers:
        groups.setdefault(evaluate(stat, mover), []).append(mover)
    cases = 0
    for partner in partners:
        for members in groups.values():
            ref = None
            for mover in members:
                dist = dist_of((mover, partner) if side == "pi" else (partner, mover))
                cases += 1
                if ref is None:
                    ref = (mover, dist)
                elif dist != ref[1]:
                    if side == "pi":
                        witness = Witness(ref[0], mover, partner, partner, stat, ref[1], dist)
                    else:
                        witness = Witness(partner, partner, ref[0], mover, stat, ref[1], dist)
                    return "fail", cases, witness.to_json()
    return "pass", cases, None


def _reference_identity(which, m, n, shuffle_sets):
    """The maj / maj_des identity check pair by pair, every polynomial
    enumerated."""
    cases = 0
    by_maj_sum = {}
    for pi in _low(m):
        for sigma in _high(m, n):
            cases += 1
            tau_set = shuffle_sets[pi, sigma]
            if which == "maj":
                if gen_poly("maj", tau_set) != stanley_rhs(pi, sigma):
                    return "fail", cases
                dist = distribution("maj", tau_set)
                if by_maj_sum.setdefault(evaluate("maj", pi) + evaluate("maj", sigma), dist) != dist:
                    return "fail", cases
            else:
                for k in range(m + n + 1):
                    lhs = gen_poly("maj", [t for t in tau_set if evaluate("des", t) == k])
                    if lhs != stanley_refined_rhs(pi, sigma, k):
                        return "fail", cases
    return "pass", cases


def test_des_histogram_matches_enumeration():
    for m, n in SPLITS:
        for pi in _low(m):
            for sigma in _high(m, n):
                brute = Counter(
                    frozenset(des_set_oracle(t)) for t in shuffle_set_oracle(pi, sigma)
                )
                assert des_histogram(des_set(pi), des_set(sigma), m, n) == brute, (pi, sigma)


def test_descent_class_representative_has_that_descent_set():
    for length in range(MAX_TOTAL + 1):
        for mask in range(1 << max(length - 1, 0)):
            descents = frozenset(d for d in range(1, length) if mask >> (d - 1) & 1)
            assert evaluate_descent_class("Des", descents, length) == descents
    with pytest.raises(ValueError):
        evaluate_descent_class("inv", frozenset({1}), 3)


@pytest.mark.parametrize("stat", DESCENT_STATS, ids=format_stat)
def test_reduced_sweeps_match_brute_force(stat, shuffle_sets):
    dists = {}

    def dist_of(pair):
        if pair not in dists:
            dists[pair] = distribution(stat, shuffle_sets[pair])
        return dists[pair]

    for m, n in SPLITS:
        for mode, side in (("reduced_pi", "pi"), ("reduced_sigma", "sigma")):
            report = check_compatibility(stat, m, n, mode=mode)
            assert _outcome(report) == _reference_reduced(stat, m, n, side, dist_of), (m, n, mode)
            assert report.witness is None or report.witness.recheck()


def test_differential_sweep_covers_failing_witnesses():
    assert any(
        not check_compatibility("biruns", m, n, mode=mode).passed
        for m, n in SPLITS for mode in ("reduced_pi", "reduced_sigma")
    )


@pytest.mark.parametrize("which", ["maj", "maj_des"])
def test_maj_identities_match_brute_force(which, shuffle_sets):
    for m, n in SPLITS:
        outcome, cases, _ = _outcome(check_identity(which, m, n))
        assert (outcome, cases) == _reference_identity(which, m, n, shuffle_sets), (m, n)
