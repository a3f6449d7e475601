from itertools import permutations

import pytest
from conftest import perms
from hypothesis import given

from oracles import (
    des_set_oracle,
    lpk_set_oracle,
    maj_oracle,
    space_labels_oracle,
)
from shufbij.errors import InfeasibleProfileError
from shufbij.perm import (
    as_perm,
    format_perm,
    insert_in_space,
    parse_perm,
    perm_with_descent_set,
    perm_with_left_peak_profile,
    space_labels,
    standardize,
    standardize_unit,
)
from shufbij.stats import chi_plus


def test_standardize_worked_examples():
    assert standardize((3, 9, 2), {1, 7, 8}) == (7, 8, 1)
    assert standardize((7, 8, 1), {2, 3, 9}) == (3, 9, 2)
    assert standardize_unit((3, 9, 2)) == (2, 3, 1)
    assert standardize_unit((7, 8, 1)) == (2, 3, 1)
    assert standardize_unit(tuple(range(1, 6))) == tuple(range(1, 6))


def test_standardize_size_mismatch():
    with pytest.raises(ValueError):
        standardize((1, 2, 3), {4, 5})


@given(perms(min_size=1))
def test_standardize_identity_and_roundtrip(pi):
    assert standardize(pi, set(pi)) == pi
    target = [v + 100 for v in range(len(pi))]
    moved = standardize(pi, target)
    assert standardize(moved, set(pi)) == pi
    assert des_set_oracle(moved) == des_set_oracle(pi)


def test_space_labels_worked_example():
    assert space_labels((2, 6, 5, 7, 8, 1)) == (3, 4, 2, 5, 6, 1, 0)
    assert space_labels((1, 2, 3)) == (1, 2, 3, 0)
    assert space_labels((2, 1)) == (2, 1, 0)


def test_space_labels_empty_rejected():
    with pytest.raises(ValueError):
        space_labels(())


@given(perms(min_size=1))
def test_space_labels_matches_maj_jump_oracle(pi):
    labels = space_labels(pi)
    assert sorted(labels) == list(range(len(pi) + 1))
    assert labels[-1] == 0
    assert labels == space_labels_oracle(pi)


def test_insert_in_space_worked_example():
    out = insert_in_space((2, 6, 5, 7, 8, 1), 9, 4)
    assert out == (2, 9, 6, 5, 7, 8, 1)
    assert maj_oracle(out) == 11 == maj_oracle((2, 6, 5, 7, 8, 1)) + 4


def test_insert_in_space_final_space_appends():
    assert insert_in_space((2, 1), 3, 0) == (2, 1, 3)
    assert insert_in_space((2, 1), 3, 1) == (2, 3, 1)
    assert maj_oracle((2, 3, 1)) == maj_oracle((2, 1)) + 1


def test_insert_in_space_rejects_bad_value_or_label():
    with pytest.raises(ValueError):
        insert_in_space((2, 6), 5, 1)
    with pytest.raises(ValueError):
        insert_in_space((1, 2), 3, 5)


def test_insert_every_label_shifts_maj_exhaustive():
    for m in range(1, 7):
        for pi in permutations(range(1, m + 1)):
            for x in range(m + 1):
                assert maj_oracle(insert_in_space(pi, m + 1, x)) == maj_oracle(pi) + x


def test_perm_with_descent_set_examples():
    assert perm_with_descent_set([1, 2, 3], {2}) == (2, 3, 1)
    assert perm_with_descent_set(range(1, 6), set()) == (1, 2, 3, 4, 5)
    assert perm_with_descent_set(range(1, 6), {1, 2, 3, 4}) == (5, 4, 3, 2, 1)
    assert perm_with_descent_set([3, 7, 9], {2}) == (7, 9, 3)


def test_perm_with_descent_set_exhaustive_to_8():
    # Every descent class of [m] and of a spaced ground set 2, 5, 8, ...;
    # the built permutation is the lexicographically greatest member.
    for m in range(9):
        for ground in (range(1, m + 1), range(2, 3 * m + 2, 3)):
            greatest = {}
            for p in permutations(reversed(ground)):
                greatest.setdefault(frozenset(des_set_oracle(p)), p)
            positions = list(range(1, m))
            for mask in range(1 << len(positions)):
                target = {positions[b] for b in range(len(positions)) if mask >> b & 1}
                built = perm_with_descent_set(ground, target)
                assert des_set_oracle(built) == target
                assert built == greatest[frozenset(target)]


def test_perm_with_descent_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        perm_with_descent_set([1, 2, 3], {3})


def test_left_peak_profile_examples():
    built = perm_with_left_peak_profile(4, {1, 3}, 0)
    assert lpk_set_oracle(built) == {1, 3}
    assert chi_plus(built) == 0
    assert perm_with_left_peak_profile(5, set(), 1) == (1, 2, 3, 4, 5)
    with pytest.raises(InfeasibleProfileError):
        perm_with_left_peak_profile(3, {2}, 1)


def test_left_peak_profile_infeasible_cases():
    with pytest.raises(InfeasibleProfileError):
        perm_with_left_peak_profile(4, {1, 2}, 1)
    with pytest.raises(InfeasibleProfileError):
        perm_with_left_peak_profile(4, set(), 0)
    with pytest.raises(InfeasibleProfileError):
        perm_with_left_peak_profile(1, set(), 1)
    assert perm_with_left_peak_profile(1, set(), 0) == (1,)
    assert perm_with_left_peak_profile(0, set(), 0) == ()


def test_left_peak_profile_round_trips_every_feasible_profile():
    # Feasible profiles are exactly those realized by some permutation;
    # cross-check the constructor against full enumeration for small m.
    for m in range(2, 7):
        realized = set()
        for pi in permutations(range(1, m + 1)):
            realized.add((frozenset(lpk_set_oracle(pi)), chi_plus(pi)))
        for mask in range(1 << (m - 1)):
            lset = {b + 1 for b in range(m - 1) if mask >> b & 1}
            if any(j + 1 in lset for j in lset):
                continue
            for cp in (0, 1):
                if (frozenset(lset), cp) in realized:
                    built = perm_with_left_peak_profile(m, lset, cp)
                    assert lpk_set_oracle(built) == lset
                    assert chi_plus(built) == cp
                else:
                    with pytest.raises(InfeasibleProfileError):
                        perm_with_left_peak_profile(m, lset, cp)


def test_left_peak_profile_constructor_holds_to_8():
    # Larger lengths: every profile the constructor accepts is realized
    # exactly (feasibility itself is cross-checked by enumeration above).
    for m in range(7, 9):
        for mask in range(1 << (m - 1)):
            lset = {b + 1 for b in range(m - 1) if mask >> b & 1}
            if any(j + 1 in lset for j in lset):
                continue
            for cp in (0, 1):
                try:
                    built = perm_with_left_peak_profile(m, lset, cp)
                except InfeasibleProfileError:
                    continue
                assert lpk_set_oracle(built) == lset
                assert chi_plus(built) == cp


def test_as_perm_validation():
    assert as_perm([2, 1, 5]) == (2, 1, 5)
    with pytest.raises(ValueError):
        as_perm([1, 1])
    with pytest.raises(ValueError):
        as_perm([0, 1])
    with pytest.raises(ValueError):
        as_perm([-3])


def test_parse_and_format_round_trip():
    assert parse_perm("2, 1, 5 ,7,3,6,4") == (2, 1, 5, 7, 3, 6, 4)
    assert parse_perm("") == ()
    assert format_perm((2, 1, 5)) == "2,1,5"
    with pytest.raises(ValueError):
        parse_perm("2,x")


@given(perms())
def test_parse_format_inverse(pi):
    assert parse_perm(format_perm(pi)) == pi
