"""Rows of the class-pair DP: packed rows against sparse ones, the key
encoding, and rows on values, whose shifted forms are the identities'
closed forms.

A row holds one state's count per packed key: sparse, as ``{key: count}``
(``shuffle._DICT_ROWS``), or packed, as one integer with key k's count at
bit offset width·k (``shuffle._packed_rows``).  ``shuffle.class_pair_counts``
picks one per statistic and shape, and reads, writes and shifts it by
value (``Rows.valued``); the tests here force each type through the DP's
own argument.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import comb

import pytest

import shufbij.verify as verify
from shufbij.perm import descent_classes
from shufbij.shuffle import (
    _DICT_ROWS,
    _class_pair_counts,
    _dict_move,
    _key_space,
    _plan,
    class_pair_counts,
    class_pair_distributions,
    _packed_rows,
)
from shufbij.stats import (
    CATALOG_TUPLES,
    DESCENT_NAMES,
    descent_rule,
    format_stat,
    mark_tables,
    value_dp,
    walk,
)

STATS = DESCENT_NAMES + CATALOG_TUPLES


def _packed(dp, m, n):
    return _packed_rows(comb(m + n, m).bit_length() + 1, _key_space(dp)[0])


@pytest.mark.parametrize("stat", STATS, ids=format_stat)
def test_packed_rows_match_dict_rows(stat):
    """On every split with m+n <= 8, the DP run on packed rows and on dict
    rows gives the same counts per key for every class pair, and the
    decoded keys are the table of :func:`class_pair_distributions`."""
    for total in range(9):
        dp = value_dp(mark_tables(stat), total)
        for m in range(total + 1):
            n, packed = total - m, _packed(dp, m, total - m)
            sparse = _class_pair_counts(dp, m, n, rows=_DICT_ROWS)
            dense = _class_pair_counts(dp, m, n, rows=packed)
            assert {pair: packed.read(row) for pair, row in dense.items()} == sparse, (m, n)
            assert {pair: Counter({dp[2](key): count for key, count in keys.items()})
                    for pair, keys in sparse.items()} == class_pair_distributions(stat, m, n)


def test_packed_rows_move_odd_keys_apart():
    """A move whose two deltas differ shifts the keys with bit 0 set by the
    second delta, down as well as up, and merges into the state's row."""
    rows = _packed_rows(4, 8)
    layer = {"s": rows.write({0: 1})}
    rows.move(layer, "s", rows.write({2: 3, 3: 5, 5: 6}), (2, -1))
    assert rows.read(layer["s"]) == {0: 1, 2: 5, 4: 9}
    layer = {}
    rows.move(layer, "s", rows.write({1: 2, 4: 1}), (1, 1))
    assert rows.read(layer["s"]) == {2: 2, 5: 1}
    assert rows.read(rows.shift(rows.write({1: 2, 4: 1}), 3)) == {4: 2, 7: 1}
    assert _DICT_ROWS.shift({1: 2, 4: 1}, 3) == {4: 2, 7: 1}


@pytest.mark.parametrize("stat", STATS, ids=format_stat)
def test_encode_inverts_decode(stat):
    """Every value a row can hold at lengths 0-8, the final key of each
    descent bitmask, is written back as that key, and read as the value.
    The key space counts those keys, and its size is one more than the
    largest key of any prefix of a word, where an odd key may exceed
    every final key."""
    rule = descent_rule(stat)
    for length in range(9):
        dp = value_dp(mark_tables(stat), length)
        start, steps, decode, encode = dp
        keys, prefix_keys = set(), {start}
        for mask in range(0, 1 << length, 2):
            key, value = walk(dp, mask), rule(mask, length)
            assert encode(value) == key and decode(encode(value)) == value, (length, mask)
            keys.add(key)
            key, bits = start, mask
            for step in steps[1:]:  # as walk does, keeping each prefix's key
                bits >>= 1
                key += step[bits & 1][key & 1]
                prefix_keys.add(key)
        assert _key_space(dp) == (max(prefix_keys) + 1, len(keys)), length


def test_row_type_follows_the_cut():
    """Packed rows where a row of the key space spends at most 448 bits per
    key a state can hold, and dict rows above: sparse tuples such as
    (udr,pk,des), and peak sets against few words or at the 9+9 pair."""
    packed = [("maj", 5, 5), (("des", "maj"), 6, 6), (("des", "maj"), 1, 11), ("Pk", 5, 5),
              ("Pk", 6, 6), ("Lval", 6, 6), ("maj", 9, 9), ("Des", 10, 10)]
    sparse = [(("udr", "pk", "des"), 5, 5), (("udr", "pk", "des"), 6, 6), ("Pk", 1, 9),
              ("Pk", 9, 9), (("udr", "pk", "des"), 10, 10)]
    for stat, m, n in packed + sparse:
        rows = _plan(mark_tables(stat), m, n)[1]
        assert (rows.move is _dict_move) == ((stat, m, n) in sparse), (stat, m, n)


@pytest.mark.parametrize("which", ["maj", "maj_des", "word_base"])
def test_shifted_base_forms_are_the_closed_forms(which):
    """For every label with m+n <= 8, the row of the closed form of its
    descent counts at maj sum 0 (:func:`verify._closed_form`), shifted by
    its maj sum, is the row of the label's closed form, on the picked,
    dict and packed rows on values."""
    stat = ("des", "maj") if which == "maj_des" else "maj"
    rule = descent_rule(("des", "maj"))
    for total in range(9):
        for m in range(total + 1):
            n = total - m
            dp = value_dp(mark_tables(stat), total)
            for rows in (class_pair_counts(stat, m, n, set(), set())[1], _DICT_ROWS.valued(dp),
                         _packed(dp, m, n).valued(dp)):
                labels = {(rule(p, m)[0], rule(s, n)[0], rule(p, m)[1] + rule(s, n)[1])
                          for (p, _), (s, _) in product(descent_classes(m), descent_classes(n))}
                for des_pi, des_sigma, maj_sum in sorted(labels):
                    base = rows.write(verify._closed_form(which, m, n, des_pi, des_sigma, 0))
                    form = verify._closed_form(which, m, n, des_pi, des_sigma, maj_sum)
                    shift = (0, maj_sum) if which == "maj_des" else maj_sum
                    assert rows.shift(base, shift) == rows.write(form), (m, n, des_pi, des_sigma)
                    assert rows.read(rows.write(form)) == form, (m, n, des_pi, des_sigma)
