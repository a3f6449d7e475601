import random
from collections import Counter
from itertools import islice, permutations, product

import pytest
from conftest import perms
from hypothesis import given

import oracles
from shufbij import stats
from shufbij.perm import least_with_descent_set, perm_with_descent_set, standardize
from shufbij.stats import (
    CATALOG_TUPLES,
    DESCENT_NAMES,
    FALL,
    NONE,
    RISE,
    STATISTICS,
    MarkTable,
    asc_set,
    biruns,
    chi_minus,
    chi_plus,
    des_set,
    descent_rule,
    distribution,
    distribution_entries,
    evaluate,
    format_stat,
    format_stat_value,
    inv,
    is_descent_statistic,
    is_integer_valued,
    maj,
    parse_stat,
    peak_family,
    stat_value_sort_key,
    udr,
    valley_family,
    value_dp,
    walk,
)

RUNNING = (6, 8, 5, 9, 3, 4)  # the catalog's running example


def test_descents_and_maj_worked_examples():
    pi = (2, 1, 5, 7, 3, 6, 4)
    assert des_set(pi) == {1, 4, 6}
    assert maj(pi) == 11
    assert des_set(RUNNING) == {2, 4}
    assert maj((4, 3, 1, 2)) == 3 == maj((2, 3, 4, 1))
    assert des_set(tuple(range(1, 8))) == frozenset()
    assert asc_set(tuple(range(1, 8))) == frozenset(range(1, 7))


def test_inv_worked_examples():
    assert inv((1, 3, 2)) == 1
    assert inv((2, 3, 1)) == 2
    assert inv(tuple(range(1, 9))) == 0


def test_peak_and_valley_catalog_on_running_example():
    assert peak_family(RUNNING, "interior") == {2, 4}
    assert peak_family(RUNNING, "left") == {2, 4}
    assert peak_family(RUNNING, "right") == {2, 4, 6}
    assert peak_family(RUNNING, "exterior") == {2, 4, 6}
    assert valley_family(RUNNING, "interior") == {3, 5}
    assert valley_family(RUNNING, "left") == {1, 3, 5}
    assert valley_family(RUNNING, "right") == {3, 5}
    assert valley_family(RUNNING, "exterior") == {1, 3, 5}
    assert chi_minus(RUNNING) == 0
    assert chi_plus(RUNNING) == 1
    assert udr(RUNNING) == 5
    for family in (peak_family, valley_family):
        with pytest.raises(ValueError, match="^unknown peak variant 'middle'$"):
            family(RUNNING, "middle")


def test_monotone_extremes():
    inc = tuple(range(1, 7))
    dec = tuple(range(6, 0, -1))
    assert peak_family(inc, "interior") == frozenset()
    assert peak_family(inc, "left") == frozenset()
    assert peak_family(inc, "right") == {6}
    assert valley_family(dec, "interior") == frozenset()
    assert chi_minus(dec) == 1
    assert chi_plus(inc) == 1
    assert udr(inc) == 1


def test_length_zero_and_one_conventions():
    assert udr(()) == 0
    assert udr((5,)) == 1
    assert biruns(()) == 0
    assert biruns((5,)) == 1
    assert chi_minus((5,)) == 0 == chi_plus((5,))
    for variant in ("interior", "left", "right"):
        assert peak_family((5,), variant) == frozenset()
    assert peak_family((5,), "exterior") == {1}
    assert valley_family((5,), "exterior") == {1}


def test_biruns_on_running_example_matches_factor_enumeration():
    assert biruns(RUNNING) == oracles.biruns_oracle(RUNNING) == 5


@given(perms())
def test_families_match_sentinel_oracles(pi):
    assert peak_family(pi, "interior") == frozenset(oracles.pk_set_oracle(pi))
    assert peak_family(pi, "left") == frozenset(oracles.lpk_set_oracle(pi))
    assert peak_family(pi, "right") == frozenset(oracles.rpk_set_oracle(pi))
    assert peak_family(pi, "exterior") == frozenset(oracles.epk_set_oracle(pi))
    assert valley_family(pi, "interior") == frozenset(oracles.val_set_oracle(pi))
    assert valley_family(pi, "left") == frozenset(oracles.lval_set_oracle(pi))
    assert valley_family(pi, "right") == frozenset(oracles.rval_set_oracle(pi))
    assert valley_family(pi, "exterior") == frozenset(oracles.eval_set_oracle(pi))
    assert biruns(pi) == oracles.biruns_oracle(pi)
    assert udr(pi) == oracles.udr_oracle(pi)


def test_structural_identities_exhaustive_small():
    for m in range(2, 7):
        for pi in permutations(range(1, m + 1)):
            lpk = len(peak_family(pi, "left"))
            pk = len(peak_family(pi, "interior"))
            assert udr(pi) == 2 * lpk + chi_plus(pi)
            assert udr(pi) == 2 * pk + 2 * chi_minus(pi) + chi_plus(pi)
            assert lpk == pk + chi_minus(pi)
            assert peak_family(pi, "exterior") == (
                peak_family(pi, "left") | peak_family(pi, "right")
            )
            assert (chi_minus(pi) == 1) == (1 in peak_family(pi, "left"))


def test_evaluate_and_tuples():
    assert evaluate(("maj", "des"), (4, 3, 1, 2)) == (3, 2)
    assert evaluate("Des", (2, 1, 5, 7, 3, 6, 4)) == {1, 4, 6}
    assert evaluate(("udr", "pk"), RUNNING) == (5, 2)
    with pytest.raises(ValueError):
        evaluate("nope", (1,))
    with pytest.raises(ValueError):
        evaluate(("maj", "nope"), (1,))


def test_descent_statistic_flags():
    assert not is_descent_statistic("inv")
    for name in STATISTICS:
        if name != "inv":
            assert is_descent_statistic(name)
    assert is_descent_statistic(("udr", "pk", "des"))
    assert not is_descent_statistic(("maj", "inv"))
    assert is_integer_valued("maj")
    assert not is_integer_valued("Des")
    assert not is_integer_valued(("maj", "des"))


@given(perms(min_size=1))
def test_descent_statistics_invariant_under_standardize(pi):
    target = [2 * v + 5 for v in range(len(pi))]
    moved = standardize(pi, target)
    for name, table in STATISTICS.items():
        if table:
            assert evaluate(name, pi) == evaluate(name, moved), name


def test_descent_statistics_determined_by_descent_set_exhaustive():
    # Same descent set implies the same value, for every catalog statistic
    # flagged as a descent statistic; inv genuinely fails this.
    for m in range(5 + 1):
        by_des = {}
        for pi in permutations(range(1, m + 1)):
            by_des.setdefault(des_set(pi), []).append(pi)
        for group in by_des.values():
            ref = group[0]
            for other in group[1:]:
                for name, table in STATISTICS.items():
                    if table:
                        assert evaluate(name, ref) == evaluate(name, other)
    assert inv((1, 3, 2)) != inv((2, 3, 1))
    assert des_set((1, 3, 2)) == des_set((2, 3, 1))


def test_distribution_worked_example():
    from shufbij.shuffle import shuffles

    dist = distribution("maj", shuffles((4, 3, 1, 2), (7, 6)))
    assert dist == Counter({4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 2, 10: 2, 11: 1, 12: 1})
    pk_dist = distribution("Pk", shuffles((2, 4, 1), (7, 3)))
    assert pk_dist == Counter({
        frozenset({2}): 2,
        frozenset({3}): 4,
        frozenset({4}): 2,
        frozenset({2, 4}): 2,
    })
    assert distribution("maj", []) == Counter()


def test_value_serialization():
    assert format_stat_value(11) == "11"
    assert format_stat_value(frozenset({4, 2})) == "[2,4]"
    assert format_stat_value((5, 2)) == "(5,2)"
    assert format_stat_value((frozenset({1}), 0)) == "([1],0)"
    dist = Counter({frozenset({2}): 2, frozenset({3}): 4, frozenset({2, 4}): 2})
    assert distribution_entries(dist) == [("[2]", 2), ("[3]", 4), ("[2,4]", 2)]


def test_parse_and_format_stat():
    assert parse_stat("maj") == "maj"
    assert parse_stat("(maj,des)") == ("maj", "des")
    assert parse_stat("udr, pk") == ("udr", "pk")
    assert format_stat(("maj", "des")) == "(maj,des)"
    with pytest.raises(ValueError):
        parse_stat("bogus")


def _mask(descents):
    return sum(1 << d for d in descents)


_ORACLE_SETS = {
    "Des": oracles.des_set_oracle,
    "Asc": lambda pi: set(range(1, len(pi))) - oracles.des_set_oracle(pi),
    "Pk": oracles.pk_set_oracle,
    "Val": oracles.val_set_oracle,
    "Lpk": oracles.lpk_set_oracle,
    "Rpk": oracles.rpk_set_oracle,
    "Epk": oracles.epk_set_oracle,
    "Lval": oracles.lval_set_oracle,
    "Rval": oracles.rval_set_oracle,
    "Eval": oracles.eval_set_oracle,
}
_ORACLE_VALUES = {
    "maj": oracles.maj_oracle,
    "chi_minus": lambda pi: int(1 in oracles.des_set_oracle(pi)),
    "chi_plus": lambda pi: int(len(pi) >= 2 and len(pi) - 1 not in oracles.des_set_oracle(pi)),
    "udr": oracles.udr_oracle,
    "biruns": oracles.biruns_oracle,
    "inv": oracles.inv_oracle,
}


def _oracle_value(name, pi):
    """A catalog statistic recomputed by ``tests/oracles.py``."""
    if name in _ORACLE_SETS:
        return frozenset(_ORACLE_SETS[name](pi))
    if name.capitalize() in _ORACLE_SETS:
        return len(_ORACLE_SETS[name.capitalize()](pi))
    return _ORACLE_VALUES[name](pi)


@pytest.mark.parametrize("name", DESCENT_NAMES)
def test_descent_rule_matches_evaluate_exhaustive(name):
    """``evaluate`` reads the statistic through its rule; the oracles are the
    independent reference, on every permutation of length 0-7."""
    for length in range(7 + 1):
        for pi in permutations(range(1, length + 1)):
            value = evaluate(name, pi)
            expected = _oracle_value(name, pi)
            assert value == expected and type(value) is type(expected), (name, pi)


@pytest.mark.parametrize("name", DESCENT_NAMES)
def test_descent_rule_matches_oracles_on_class_extremes(name):
    rule = descent_rule(name)
    for length in range(10 + 1):
        ground = range(1, length + 1)
        for mask in range(0, 1 << length, 2):  # bit 0 is never a position
            descents = {d for d in range(1, length) if mask >> d & 1}
            for pi in (least_with_descent_set(ground, descents),
                       perm_with_descent_set(ground, descents)):
                assert oracles.des_set_oracle(pi) == descents
                assert rule(mask, length) == _oracle_value(name, pi), (name, pi)


def test_evaluate_matches_oracles_at_lengths_11_to_20():
    """Past the exhaustive range, up to length 20 where the packed key is
    widest: seeded permutations of every length 11-20, every descent
    statistic, the catalog tuples and a 1-tuple, which stays a tuple."""
    rng = random.Random(20261018)
    for length in range(11, 20 + 1):
        for _ in range(25):
            pi = tuple(rng.sample(range(1, length + 1), length))
            for name in DESCENT_NAMES:
                value, expected = evaluate(name, pi), _oracle_value(name, pi)
                assert value == expected and type(value) is type(expected), (name, pi)
            for stat in [*CATALOG_TUPLES, ("maj",)]:
                value = evaluate(stat, pi)
                expected = tuple(_oracle_value(name, pi) for name in stat)
                assert value == expected and type(value) is tuple, (stat, pi)


def test_tuple_rule_reads_components_in_order():
    rule = descent_rule(("maj", "Pk", "des"))
    pi = (2, 1, 5, 7, 3, 6, 4)
    assert rule(_mask(des_set(pi)), len(pi)) == evaluate(("maj", "Pk", "des"), pi)
    with pytest.raises(ValueError, match="^inv is not a descent statistic$"):
        descent_rule("inv")
    with pytest.raises(ValueError, match=r"^\(maj,inv\) is not a descent statistic$"):
        descent_rule(("maj", "inv"))


def test_malformed_ids_are_refused_before_any_rule_is_cached():
    """A rule is built only for a validated id: an unhashable id is refused
    with the validation message, not a ``TypeError`` from the cache."""
    message = r"^statistic must be a name or tuple of names, got \['maj'\]$"
    for call in (lambda: descent_rule(["maj"]), lambda: evaluate(["maj"], (1, 2))):
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(ValueError, match="^empty tuple statistic$"):
        descent_rule(())
    with pytest.raises(ValueError, match=r"^unknown statistic component \['x'\]$"):
        evaluate(("maj", ["x"]), (1, 2))


@pytest.mark.parametrize("name", list(STATISTICS))
def test_tuples_with_inv_evaluate_componentwise(name):
    """A tuple containing ``inv`` reads every component on its own: each
    catalog statistic paired with ``inv``, in both orders, equals the pair
    of oracle values on every permutation of length 0-6."""
    for length in range(6 + 1):
        for pi in permutations(range(1, length + 1)):
            value, inv_value = _oracle_value(name, pi), oracles.inv_oracle(pi)
            assert evaluate((name, "inv"), pi) == (value, inv_value), (name, pi)
            assert evaluate(("inv", name), pi) == (inv_value, value), (name, pi)


def test_every_mark_table_compiles_to_its_marks():
    """The DP of any mark table (each of the 512 sets of step pairs, with
    every pair of end steps and every output), walked over one word, reads
    exactly the positions whose (step i-1, step i) is in the table, as their
    set, count or sum, off the step word built position by position, on
    every descent bitmask of length 0-5.  Its final key is its value alone:
    on one table and length two bitmasks give equal keys exactly when they
    give equal values, and bit 0, which holds the step before while some
    mark reads it, is clear."""
    steps = (RISE, FALL, NONE)
    pairs = [(p, s) for p in steps for s in steps]
    outputs = {"set": frozenset, "count": len, "sum": sum}
    for bits in range(1 << len(pairs)):
        marks = frozenset(pair for k, pair in enumerate(pairs) if bits >> k & 1)
        reads_prev = any(((RISE, s) in marks) != ((FALL, s) in marks) for s in (RISE, FALL))
        for left in steps:
            for right in steps:
                for length in range(6):
                    dps = {output: value_dp(MarkTable(marks, output, left, right), length)
                           for output in outputs}
                    keys = {output: {} for output in outputs}  # value -> its one key
                    for mask in range(0, 1 << length, 2):
                        word = [left, *(FALL if mask >> d & 1 else RISE for d in range(1, length)),
                                right]
                        marked = {i for i in range(1, length + 1) if (word[i - 1], word[i]) in marks}
                        for output, read in outputs.items():
                            dp, key, value = dps[output], walk(dps[output], mask), read(marked)
                            where = (marks, output, left, right, mask, length)
                            assert dp[2](key) == value and not (reads_prev and key & 1), where
                            assert keys[output].setdefault(value, key) == key, where


@pytest.mark.parametrize("call", [lambda: format_stat_value(True), lambda: format_stat_value(1.5),
                                  lambda: stat_value_sort_key(1.5)])
def test_stats_refusals(call):
    with pytest.raises(TypeError, match="statistic value"):
        call()


def test_descent_rules_evict_at_256_ids(monkeypatch):
    """The rule cache empties when it holds 256 ids; rules built again agree."""
    pi = (2, 1, 5, 7, 3, 6, 4)
    single = {name: evaluate(name, pi) for name in DESCENT_NAMES}
    monkeypatch.setattr(stats, "_RULES", {})
    pairs = list(islice(product(DESCENT_NAMES, repeat=2), 300))
    for cached in (300 - 256, 300 - 212):  # the second pass empties it at pair 213
        for pair in pairs:
            assert evaluate(pair, pi) == (single[pair[0]], single[pair[1]]), pair
            assert len(stats._RULES) <= 256
        assert len(stats._RULES) == cached
