"""Differential tests of the descent-class quotient against brute force.

Exhaustive over every normalized pair with m+n <= 7 (pi on [m], sigma on
[n]+m).  The Des distribution of the transfer-matrix DP is
checked against enumeration (and, up to m+n = 10, on the least members of
every class pair); the DP of every descent statistic and catalog tuple
against brute force on every class pair with m+n <= 7, against its rule
read off the histogram up to m+n = 8, and against itself with the
operands' roles swapped up to m+n = 8; its tables over four shapes of
bitmask sets (all x all, a subset x all, all x a subset, singletons)
against the oracle's shuffle sets up to m+n = 7 and against each other
at m+n = 8; its key tables, read, against its distributions, and
their equality against the distributions' up to m+n = 6; the class tables (bitmasks, sizes
and rank order, the least member built from each bitmask,
``count_before``) against the permutations they count, and the
reduced-mode sweeps and the maj identities against pair-by-pair
references that enumerate every shuffle set.  Full mode and the
counterexample search are checked against a pair-by-pair scan of every
splitting, m+n <= 6 (5 for statistics built on ``inv``).
"""

from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import combinations, permutations
from math import factorial

import pytest

import shufbij.verify as verify
from oracles import des_set_oracle, shuffle_set_oracle
import shufbij.perm as perm
from shufbij.perm import (
    count_before,
    descent_classes,
    format_perm,
    least_with_descent_set,
    lex_rank,
    mask_positions,
)
from shufbij.qpoly import gen_poly, stanley_refined_rhs, stanley_rhs
from shufbij.shuffle import class_pair_counts, class_pair_distributions, shuffles
from shufbij.stats import (
    CATALOG_TUPLES,
    DESCENT_NAMES,
    STATISTICS,
    descent_mask,
    descent_rule,
    distribution,
    evaluate,
    format_stat,
    is_descent_statistic,
)
from shufbij.verify import (
    Witness,
    check_compatibility,
    check_conjecture_udr_pk_des,
    check_identity,
    find_counterexample,
)

MAX_TOTAL = 7
SPLITS = [(m, total - m) for total in range(MAX_TOTAL + 1) for m in range(total + 1)]
DESCENT_STATS = [*DESCENT_NAMES, *CATALOG_TUPLES]
CATALOG = [*STATISTICS, *CATALOG_TUPLES, ("maj", "inv")]
FULL_MAX_TOTAL = 6
FULL_SPLITS = [(m, total - m) for total in range(FULL_MAX_TOTAL + 1) for m in range(total + 1)]


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


def _poly_counter(p):
    return Counter({e: c for e, c in enumerate(p) if c})


def _reference_identity(which, m, n, shuffle_sets):
    """The maj / maj_des identity check pair by pair, every polynomial
    enumerated; returns the outcome, the cases and the witness."""
    cases = 0
    by_maj_sum = {}
    for pi in _low(m):
        for sigma in _high(m, n):
            cases += 1
            tau_set = shuffle_sets[pi, sigma]
            if which == "maj":
                checks = [(tau_set, stanley_rhs(pi, sigma))]
            else:
                checks = [
                    ([t for t in tau_set if evaluate("des", t) == k],
                     stanley_refined_rhs(pi, sigma, k))
                    for k in range(m + n + 1)
                ]
            for subset, rhs in checks:
                lhs = gen_poly("maj", subset)
                if lhs != rhs:
                    witness = Witness(pi, pi, sigma, sigma, "maj",
                                      _poly_counter(lhs), _poly_counter(rhs))
                    return "fail", cases, witness.to_json()
            if which == "maj":
                dist = distribution("maj", tau_set)
                prev = by_maj_sum.setdefault(evaluate("maj", pi) + evaluate("maj", sigma), dist)
                if prev != dist:
                    witness = Witness(pi, pi, sigma, sigma, "maj", dist, prev)
                    return "fail", cases, witness.to_json()
    return "pass", cases, None


def _reference_full(stat, m, n, dist_of):
    """Full mode pair by pair: every splitting, every permutation pair,
    every shuffle set; returns the witness (or None) and the cases."""
    total = m + n
    seen = {}
    cases = 0
    for domain_pi in combinations(range(1, total + 1), m):
        domain_sigma = tuple(v for v in range(1, total + 1) if v not in domain_pi)
        for pi in permutations(domain_pi):
            pi_value = evaluate(stat, pi)
            for sigma in permutations(domain_sigma):
                key = (pi_value, evaluate(stat, sigma))
                dist = dist_of(pi, sigma)
                cases += 1
                prev = seen.get(key)
                if prev is None:
                    seen[key] = (dist, pi, sigma)
                elif prev[0] != dist:
                    return Witness(prev[1], pi, prev[2], sigma, stat, prev[0], dist), cases
    return None, cases


def _expected_full(witness, cases):
    return ("fail" if witness else "pass"), cases, witness.to_json() if witness else None


def _mask(descents):
    return sum(1 << d for d in descents)


def _members_by_class(ground):
    """Every permutation of ``ground`` in lexicographic order, with its
    index, grouped by descent bitmask."""
    members = defaultdict(list)
    for index, p in enumerate(permutations(ground)):
        members[_mask(des_set_oracle(p))].append((index, p))
    return members


def _least(ground, mask):
    return least_with_descent_set(ground, mask_positions(mask))


@pytest.mark.parametrize("k", range(9))
def test_descent_classes_match_enumeration(k):
    """Bitmasks, sizes and rank order against enumeration; the least member
    built from each bitmask is the first member, at its lexicographic
    rank."""
    ground = tuple(range(2, 2 + 3 * k, 3))
    members = _members_by_class(ground)
    classes = descent_classes(k)
    assert len(classes) == len(members) == 2 ** max(k - 1, 0)
    ranks = [members[mask][0][0] for mask, _ in classes]
    assert ranks == sorted(ranks)
    for mask, size in classes:
        first = _least(ground, mask)
        assert (lex_rank(first), first) == members[mask][0], (k, mask)
        assert size == len(members[mask]), (k, mask)


@pytest.mark.parametrize("k", range(7))
def test_count_before_matches_enumeration(k):
    ground = tuple(range(2, 2 + 3 * k, 3))
    members = _members_by_class(ground)
    everything = list(permutations(ground))
    for mask, indexed in members.items():
        ordered = [p for _, p in indexed]
        for x in everything:
            assert count_before(ground, mask, x) == bisect_left(ordered, x), (mask, x)


def _des_histogram(mask_pi, mask_sigma, m, n):
    """The Des distribution of one class pair, read off the DP."""
    return class_pair_distributions("Des", m, n, {mask_pi}, {mask_sigma})[mask_pi, mask_sigma]


def test_des_histogram_matches_enumeration():
    for m, n in SPLITS:
        for pi in _low(m):
            for sigma in _high(m, n):
                brute = Counter(
                    frozenset(des_set_oracle(t)) for t in shuffle_set_oracle(pi, sigma)
                )
                masks = _mask(des_set_oracle(pi)), _mask(des_set_oracle(sigma))
                assert _des_histogram(*masks, m, n) == brute, (pi, sigma)


@pytest.mark.parametrize("total", range(11))
def test_des_histogram_matches_least_members_shuffle_sets(total):
    """Every class pair with m+n = total, m = 0 and n = 0 included: the
    DP's histogram is the Des histogram of the real shuffle set of the
    least members built from the two bitmasks."""
    for m in range(total + 1):
        for mask_pi, _ in descent_classes(m):
            pi = _least(range(1, m + 1), mask_pi)
            for mask_sigma, _ in descent_classes(total - m):
                sigma = _least(range(m + 1, total + 1), mask_sigma)
                brute = Counter(frozenset(des_set_oracle(t)) for t in shuffles(pi, sigma))
                assert _des_histogram(mask_pi, mask_sigma, m, total - m) == brute, (pi, sigma)


def _class_pairs(max_total):
    """Every class pair with m+n <= max_total, m = 0 and n = 0 included, as
    (m, n, mask_pi, mask_sigma)."""
    return [
        (m, total - m, mask_pi, mask_sigma)
        for total in range(max_total + 1) for m in range(total + 1)
        for mask_pi, _ in descent_classes(m) for mask_sigma, _ in descent_classes(total - m)
    ]


@pytest.fixture(scope="module")
def class_pair_histograms():
    """The Des histogram of every class pair with m+n <= 8, and the real
    shuffle set of its least members where m+n <= MAX_TOTAL."""
    out = {}
    for m, n, mask_pi, mask_sigma in _class_pairs(8):
        histogram = _des_histogram(mask_pi, mask_sigma, m, n)
        members = None
        if m + n <= MAX_TOTAL:
            members = shuffles(_least(range(1, m + 1), mask_pi),
                               _least(range(m + 1, m + n + 1), mask_sigma))
        out[m, n, mask_pi, mask_sigma] = histogram, members
    return out


@pytest.mark.parametrize("stat", DESCENT_STATS, ids=format_stat)
def test_value_dp_matches_brute_force_and_des_histogram(stat, class_pair_histograms):
    """The packed-key DP of every descent statistic and catalog tuple: equal
    to brute force over the least members' shuffle set on every class pair
    with m+n <= 7, and to the statistic's rule read off the Des histogram
    on every class pair with m+n <= 8."""
    rule = descent_rule(stat)
    tables = {}
    for (m, n, mask_pi, mask_sigma), (histogram, members) in class_pair_histograms.items():
        if (m, n) not in tables:
            tables[m, n] = class_pair_distributions(stat, m, n)
        dist = tables[m, n][mask_pi, mask_sigma]
        if members is not None:
            assert dist == distribution(stat, members), (m, n, mask_pi, mask_sigma)
        by_rule = Counter()
        for descents, count in histogram.items():
            by_rule[rule(_mask(descents), m + n)] += count
        assert dist == by_rule, (m, n, mask_pi, mask_sigma)


@pytest.mark.parametrize("stat", DESCENT_STATS, ids=format_stat)
def test_class_pair_distributions_commute(stat):
    """Swapping the operands' roles changes no distribution: Des is shuffle
    compatible, so pi ш sigma and sigma ш pi have equal statistic
    distributions, on every class pair with m+n <= 8.  Needs no
    enumeration, and reads each DP from both ends."""
    tables = {(m, total - m): class_pair_distributions(stat, m, total - m)
              for total in range(9) for m in range(total + 1)}
    for m, n, mask_pi, mask_sigma in _class_pairs(8):
        forward = tables[m, n][mask_pi, mask_sigma]
        assert forward == tables[n, m][mask_sigma, mask_pi], (m, n, mask_pi, mask_sigma)


def _mask_set_tables(stat, m, n):
    """The class pair tables of four mask-set shapes: every class times
    every class, every other class of pi (in rank order) times every
    class, every class times every other class of sigma, and one table per
    class pair."""
    pis, sigmas = ([mask for mask, _ in descent_classes(k)] for k in (m, n))
    return {
        "all x all": class_pair_distributions(stat, m, n),
        "subset x all": class_pair_distributions(stat, m, n, set(pis[::2]), None),
        "all x subset": class_pair_distributions(stat, m, n, None, set(sigmas[1::2])),
        "singletons": {
            (p, s): dist for p in pis for s in sigmas
            for dist in class_pair_distributions(stat, m, n, {p}, {s}).values()
        },
    }, {
        "all x all": {(p, s) for p in pis for s in sigmas},
        "subset x all": {(p, s) for p in pis[::2] for s in sigmas},
        "all x subset": {(p, s) for p in pis for s in sigmas[1::2]},
        "singletons": {(p, s) for p in pis for s in sigmas},
    }


@pytest.fixture(scope="module")
def least_member_oracle_sets():
    """The oracle's shuffle set of the least members of every class pair
    with m+n <= MAX_TOTAL."""
    return {
        (m, n, mask_pi, mask_sigma): shuffle_set_oracle(
            _least(range(1, m + 1), mask_pi), _least(range(m + 1, m + n + 1), mask_sigma))
        for m, n, mask_pi, mask_sigma in _class_pairs(MAX_TOTAL)
    }


@pytest.mark.parametrize("stat", DESCENT_STATS, ids=format_stat)
def test_mask_set_tables_match_brute_force(stat, least_member_oracle_sets):
    """Every mask-set shape of the class pair DP holds exactly the pairs of
    its product, each with the distribution over the oracle's shuffle set
    of the least members, on every shape with m+n <= 7; at m+n = 8 the four
    shapes agree pair by pair."""
    for m, n in SPLITS:
        tables, products = _mask_set_tables(stat, m, n)
        for shape, table in tables.items():
            assert set(table) == products[shape], (shape, m, n)
            for (mask_pi, mask_sigma), dist in table.items():
                brute = distribution(stat, least_member_oracle_sets[m, n, mask_pi, mask_sigma])
                assert dist == brute, (shape, m, n, mask_pi, mask_sigma)
    for m in range(9):
        tables, products = _mask_set_tables(stat, m, 8 - m)
        whole = tables["all x all"]
        for shape, table in tables.items():
            assert set(table) == products[shape], (shape, m)
            assert all(dist == whole[pair] for pair, dist in table.items()), (shape, m)


@pytest.mark.parametrize("stat", DESCENT_STATS, ids=format_stat)
def test_key_tables_compare_as_their_distributions(stat):
    """The scans compare key tables undecoded: on every split with m+n <= 6,
    the key table of :func:`class_pair_counts`, its rows read,
    is the table of :func:`class_pair_distributions`, and two class pairs'
    rows are equal exactly when their distributions are."""
    for total in range(7):
        for m in range(total + 1):
            table, rows = class_pair_counts(stat, m, total - m)
            dists = class_pair_distributions(stat, m, total - m)
            decoded = {pair: rows.read(row) for pair, row in table.items()}
            assert decoded == dists, (m, total - m)
            for one, other in combinations(table, 2):
                assert (table[one] == table[other]) == (dists[one] == dists[other]), (one, other)


def test_class_pair_distributions_refuse_other_statistics():
    """Refused before any table is built or cached, whatever the id."""
    for stat, message in ((["maj"], "must be a name or tuple"), ("nope", "unknown statistic"),
                          ("inv", "not a descent statistic"),
                          (("maj", "inv"), "not a descent statistic")):
        with pytest.raises(ValueError, match=message):
            class_pair_distributions(stat, 2, 2)


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


SWEEP_STATS = ["Des", "Pk", "Epk", "maj", "udr", ("maj", "des"), ("udr", "pk")]


def test_reduced_passes_build_no_least_member(monkeypatch):
    """A passing scan reads every class by its descent bitmask alone: with
    each least-member construction refused, both reduced modes, full mode
    and the conjecture still pass at every split of m+n = 7, and so does
    the counterexample search over maj.  A failing scan builds its witness
    from least members, and it re-verifies."""

    def refuse(ground, descents):
        raise AssertionError("a passing scan needs no least member")

    modes = ("reduced_pi", "reduced_sigma")
    with monkeypatch.context() as patch:
        patch.setattr(perm, "least_with_descent_set", refuse)
        patch.setattr(verify, "least_with_descent_set", refuse)
        for m in range(8):
            for stat in SWEEP_STATS:
                for mode in modes + ("full",):
                    assert check_compatibility(stat, m, 7 - m, mode=mode).passed, (stat, m, mode)
            assert check_conjecture_udr_pk_des(m, 7 - m).passed, m
        assert find_counterexample("maj", 7).passed
        with pytest.raises(AssertionError, match="least member"):
            check_compatibility("biruns", 3, 4)
    failures = [
        check_compatibility("biruns", m, 7 - m, mode=mode).witness
        for m in range(8) for mode in modes
    ]
    assert any(failures)
    assert all(w.recheck() for w in failures if w)


def test_scans_without_shared_labels_build_no_table(monkeypatch):
    """Every class of Des or Asc is alone in its value group, so full mode
    and the counterexample search compare nothing and build no class pair
    table: with the table refused they still pass, and full mode counts
    all (m+n)! pairs."""

    def refuse(*args):
        raise AssertionError("a scan with no shared label built a table")

    monkeypatch.setattr(verify, "class_pair_counts", refuse)
    for stat in ("Des", "Asc"):
        report = check_compatibility(stat, 5, 5, "full")
        assert report.passed and report.cases_checked == 3628800, stat
    assert find_counterexample("Asc", 10).passed


def test_scans_with_an_empty_operand_build_no_table(monkeypatch):
    """With an empty operand the shuffle set is the other operand alone,
    so classes of one label have one distribution and no scan can fail:
    with the table refused, both reduced modes and full mode, over every
    descent statistic and catalog tuple, and the conjecture still pass at
    every shape with m = 0 or n = 0 and m+n <= 10, counting (m+n)! pairs
    per mode."""

    def refuse(*args):
        raise AssertionError("a scan with an empty operand built a table")

    monkeypatch.setattr(verify, "class_pair_counts", refuse)
    shapes = sorted({(0, k) for k in range(11)} | {(k, 0) for k in range(11)})
    for m, n in shapes:
        pairs = factorial(m + n)  # m!·n! too, with one side empty
        for stat in DESCENT_STATS:
            for mode in ("reduced_pi", "reduced_sigma", "full"):
                report = check_compatibility(stat, m, n, mode)
                assert (report.passed, report.cases_checked) == (True, pairs), (stat, m, n, mode)
        report = check_conjecture_udr_pk_des(m, n)
        assert (report.passed, report.cases_checked) == (True, 2 * pairs), (m, n)


@pytest.mark.parametrize("which", ["maj", "maj_des"])
def test_maj_identities_match_brute_force(which, shuffle_sets):
    for m, n in SPLITS:
        expected = _reference_identity(which, m, n, shuffle_sets)
        assert _outcome(check_identity(which, m, n)) == expected, (m, n)


def _bump_rows(picked, bumped):
    """A stand-in for :func:`class_pair_counts` whose table has one more
    count of the first value of each picked pair's row, written as a new
    row by the row type's own write; ``bumped`` maps each pair to that
    value."""
    real = verify.class_pair_counts

    def bumped_table(*args):
        table, rows = real(*args)
        wrong = {}
        for pair in filter(picked, table):
            dist = rows.read(table[pair])
            value = bumped[pair] = next(iter(dist))
            wrong[pair] = rows.write({**dist, value: dist[value] + 1})
        return {**table, **wrong}, rows

    return bumped_table


def _bumped_sets(which, m, n, shuffle_sets, bumped):
    """The shuffle sets, each set of a bumped class pair with one more
    interleaving of the bumped value."""
    stat = ("des", "maj") if which == "maj_des" else "maj"
    sets = dict(shuffle_sets)
    for (pi, sigma), tau_set in shuffle_sets.items():
        pair = descent_mask(pi), descent_mask(sigma)
        if (len(pi), len(sigma)) == (m, n) and pair in bumped:
            again = next(t for t in tau_set if evaluate(stat, t) == bumped[pair])
            sets[pi, sigma] = tau_set + (again,)
    return sets


@pytest.mark.parametrize("which", ["maj", "maj_des"])
@pytest.mark.parametrize(
    "m, n, broken",
    [
        (3, 3, [({1}, {2})]),
        (4, 2, [({1, 3}, set())]),
        (2, 4, [(set(), {1, 3})]),
        (0, 4, [(set(), {2})]),
        # two broken class pairs: the scan must meet the earlier one first
        (3, 3, [({1}, {2}), ({2}, set())]),
        (3, 3, [({1}, {2}), ({1}, {1})]),
    ],
)
def test_identity_failure_matches_pair_by_pair_scan(
    which, m, n, broken, shuffle_sets, monkeypatch
):
    """Break the rows of chosen class pairs, so every pair that shares
    their closed form is wrong: for ``maj_des`` every pair with the same
    label (des pi, des sigma, maj pi + maj sigma), for ``maj``, whose form
    depends on no more, every pair with the same maj sum.  Each such pair's
    row gains one count of its first key, and each shuffle set of its
    classes one interleaving of that value.  The class-pair scan must stop
    where a pair-by-pair scan over those sets stops, with the same witness."""

    def form_of(des_pi, des_sigma, maj_sum):
        return (des_pi, des_sigma, maj_sum) if which == "maj_des" else maj_sum

    def form_of_sets(a, b):
        return form_of(len(a), len(b), sum(a) + sum(b))

    bad, bumped = {form_of_sets(a, b) for a, b in broken}, {}

    def picked(pair):
        return form_of_sets(*map(mask_positions, pair)) in bad

    monkeypatch.setattr(verify, "class_pair_counts", _bump_rows(picked, bumped))
    report = check_identity(which, m, n)
    expected = _reference_identity(which, m, n, _bumped_sets(which, m, n, shuffle_sets, bumped))
    assert expected[0] == "fail"
    assert _outcome(report) == expected


@pytest.mark.parametrize("which", ["maj", "maj_des"])
@pytest.mark.parametrize("m, n", [(3, 3), (1, 5), (5, 1), (3, 4)])
def test_identity_checks_every_pair_of_a_label(which, m, n, shuffle_sets, monkeypatch):
    """One class pair's row of key counts is wrong in the table the identity
    reads: the last pair in walk order (pi outer, sigma inner, by rank)
    that is not the first of its label.  The scan must stop at that pair
    with the cases and witness of a pair-by-pair scan over shuffle sets
    wrong alike, so a scan that checks one pair per label fails here."""
    low, high = range(1, m + 1), range(m + 1, m + n + 1)
    seen, repeats = set(), []
    for mask_pi, _ in descent_classes(m):
        for mask_sigma, _ in descent_classes(n):
            a, b = mask_positions(mask_pi), mask_positions(mask_sigma)
            label = (len(a), len(b), sum(a) + sum(b))
            if label in seen:
                repeats.append((mask_pi, mask_sigma))
            seen.add(label)
    target, bumped = repeats[-1], {}
    monkeypatch.setattr(verify, "class_pair_counts", _bump_rows(target.__eq__, bumped))
    report = check_identity(which, m, n)
    assert list(bumped) == [target]
    expected = _reference_identity(which, m, n, _bumped_sets(which, m, n, shuffle_sets, bumped))
    assert expected[0] == "fail"
    pi, sigma = (least_with_descent_set(ground, mask_positions(mask))
                 for ground, mask in zip((low, high), target))
    assert (expected[2]["pi"], expected[2]["sigma"]) == (format_perm(pi), format_perm(sigma))
    assert _outcome(report) == expected


@pytest.fixture(scope="module")
def all_shuffle_sets():
    """Shuffle sets of every pair on every splitting of [t], t <= 6."""
    sets = {}
    for m, n in FULL_SPLITS:
        for domain_pi in combinations(range(1, m + n + 1), m):
            domain_sigma = [v for v in range(1, m + n + 1) if v not in domain_pi]
            for pi in permutations(domain_pi):
                for sigma in permutations(domain_sigma):
                    sets[pi, sigma] = shuffles(pi, sigma)
    return sets


def _table_dist(stat, shuffle_sets):
    """Distribution over the stored shuffle set of a pair, each
    permutation of [t] evaluated once."""
    values = {}

    def dist_of(pi, sigma):
        dist = Counter()
        for tau in shuffle_sets.get((pi, sigma)) or shuffles(pi, sigma):
            if tau not in values:
                values[tau] = evaluate(stat, tau)
            dist[values[tau]] += 1
        return dist

    return dist_of


@pytest.mark.parametrize("stat", CATALOG, ids=format_stat)
def test_full_mode_and_search_match_pair_by_pair_scan(stat, all_shuffle_sets):
    dist_of = _table_dist(stat, all_shuffle_sets)
    references = {}

    def reference(m, n):
        if (m, n) not in references:
            references[m, n] = _expected_full(*_reference_full(stat, m, n, dist_of))
        return references[m, n]

    max_total = FULL_MAX_TOTAL if is_descent_statistic(stat) else FULL_MAX_TOTAL - 1
    for m, n in FULL_SPLITS:
        if m + n <= max_total:
            report = check_compatibility(stat, m, n, mode="full")
            assert _outcome(report) == reference(m, n), (m, n)
            assert report.witness is None or report.witness.recheck()

    # The search is the full-mode scans in split order up to the first failure.
    cases, scope = 0, f"all splittings with m+n <= {FULL_MAX_TOTAL}"
    for m, n in FULL_SPLITS:
        outcome, scanned, witness = reference(m, n)
        cases += scanned
        if witness:
            scope += f"; witness at |pi|={m}, |sigma|={n}"
            break
    report = find_counterexample(stat, FULL_MAX_TOTAL)
    assert (report.scope, *_outcome(report)) == (scope, outcome, cases, witness)
    assert report.witness is None or report.witness.recheck()


@pytest.mark.parametrize("stat", ["Des", "biruns"])
@pytest.mark.parametrize("m, n", [(3, 4), (4, 3)])
def test_full_mode_matches_pair_by_pair_scan_at_7(stat, m, n):
    expected = _expected_full(*_reference_full(stat, m, n, _table_dist(stat, {})))
    report = check_compatibility(stat, m, n, mode="full", limit=7)
    assert _outcome(report) == expected
    assert report.witness is None or report.witness.recheck()


def test_full_mode_and_search_build_no_shuffle_set_for_descent_statistics(monkeypatch):
    expected = [
        _outcome(check_compatibility(stat, 3, 3, mode="full"))
        for stat in ("Des", "biruns", ("udr", "pk"))
    ]
    search = _outcome(find_counterexample("maj", 6))

    def refuse(pi, sigma):
        raise AssertionError("a descent statistic needs no shuffle set")

    monkeypatch.setattr(verify, "shuffles", refuse)
    assert [
        _outcome(check_compatibility(stat, 3, 3, mode="full"))
        for stat in ("Des", "biruns", ("udr", "pk"))
    ] == expected
    assert expected[1][0] == "fail"
    assert _outcome(find_counterexample("maj", 6)) == search
    with pytest.raises(AssertionError):
        check_compatibility("inv", 1, 1, mode="full")
