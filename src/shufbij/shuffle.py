"""Shuffle sets, their word encoding, and distributions over them.

An interleaving of two domain-disjoint permutations is encoded by a word
over {a, b} marking which side each position came from; enumeration is in
lexicographic word order with a < b, which makes every listing stable.
Where each entry goes depends only on (m, n) and the word: a shape of two
nonempty operands and at most ``_TABLE_CUT`` entries (words times m+n) is
a cached table of one ``operator.itemgetter`` per word, a shape with an
empty operand has one word, the other operand, and a larger one streams,
splitting on its first letter, a before b, down to tabled rests.

Des is shuffle compatible, so the distribution of a descent statistic over
a shuffle set depends only on the operands' descent bitmasks (bit d set
for a descent at d, :func:`~shufbij.stats.descent_mask`) and lengths.
:func:`class_pair_counts` computes it for every class pair of a product
of two bitmask sets by one transfer-matrix DP over (a's placed, last
letter, the operands' bits decided so far), without listing a word; pairs
with a common prefix share states.  Each state holds a row, a count per
packed key that carries every component's partial value, moved by the
step deltas of :func:`~shufbij.stats.value_dp` as each step is decided: a
handful of keys for ``pk`` or ``maj``, the whole descent bitmask for
``Des``.  A row is packed, one integer with key k's count in slot k
(:func:`_packed_rows`), where a move is a shift or two and a merge one
``+``; or sparse, a ``{key: count}`` dict (:data:`_DICT_ROWS`), where each
key moves alone.  The type is picked once per statistic and shape
(:func:`_plan`), packed while a row is short against the keys a state
can hold.  A side branches, each bit it decides splitting the state, or
is carried by packed rows of short blocks: one row holds a block per
class of the side, and the bit moves the row by its class's block
instead.  A final key is its value alone, so two pairs' rows are equal
exactly when their distributions are, and a scan compares the rows as
they are.  Keys stay here: the row type a table comes with reads a row
as its distribution, writes one as a row and shifts a row by a value
(:meth:`Rows.valued`).  :func:`class_pair_distributions` reads whole
tables, and :func:`shuffle_distribution` one pair, by enumeration for a
statistic that is not a descent statistic.  Each resolves its statistic
id once (:func:`~shufbij.stats.resolve_stat`); below that, everything is
keyed by the statistic's mark tables (:func:`_table_counts`).

The elementary bijections ``normalize_pair``, ``phi``, ``phi_tilde`` and
``t_swap`` live in ``traces``, beside their step kinds; reading one here
imports it from there (:func:`__getattr__`), so shuffle sets and
distributions never load ``traces``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, filterfalse
from math import comb
from operator import itemgetter

from .errors import NotAShuffleError
from .perm import Perm, _check_disjoint
from .stats import (
    Distribution,
    StatId,
    descent_mask,
    resolve_stat,
    value_dp,
    walk,
)

ShuffleWord = str


_TABLE_CUT = 1 << 12  # most entries (words times m+n) of a tabled shape


def _tabled(m: int, n: int):
    """The word getters of a shape (:func:`_word_getters`), None above the
    cut; an empty operand's one word is the other operand itself."""
    if not (m and n):
        return (tuple,)
    return _word_getters(m, n) if comb(m + n, m) * (m + n) <= _TABLE_CUT else None


@lru_cache(maxsize=256)  # every tabled shape; the tables take about 2 MB
def _word_getters(m: int, n: int):
    """One getter per word of m a's and n b's, m and n positive, in
    lexicographic word order, that reads the word's interleaving off
    ``pi + sigma``."""
    getters = []
    for apos in combinations(range(m + n), m):
        slots = apos + tuple(p for p in range(m + n) if p not in apos)  # entry -> slot
        getters.append(itemgetter(*sorted(range(m + n), key=slots.__getitem__)))
    return tuple(getters)


def _blocks(pi: Perm, sigma: Perm):
    """``(prefix, pi + sigma, getters)`` per tabled rest, in word order: a
    shape above the cut splits on its first letter, the a-branch first."""
    stack = [((), pi, sigma)]
    while stack:
        prefix, pi, sigma = stack.pop()
        if getters := _tabled(len(pi), len(sigma)):
            yield prefix, pi + sigma, getters
        else:
            stack.append((prefix + sigma[:1], pi, sigma[1:]))
            stack.append((prefix + pi[:1], pi[1:], sigma))


def iter_shuffles(pi: Perm, sigma: Perm):
    """Yield all interleavings in lexicographic word order (a < b), by :func:`_blocks`."""
    _check_disjoint(pi, sigma)
    for prefix, rest, getters in _blocks(tuple(pi), tuple(sigma)):
        for get in getters:
            yield prefix + get(rest)


def shuffles(pi: Perm, sigma: Perm) -> tuple[Perm, ...]:
    """All interleavings of ``pi`` and ``sigma``, in lexicographic word order.

    The result always has binomial(m+n, m) entries.  A tabled shape reads
    them off its word getters; a larger one collects :func:`iter_shuffles`.
    """
    _check_disjoint(pi, sigma)
    if getters := _tabled(len(pi), len(sigma)):
        rest = tuple(pi) + tuple(sigma)
        return tuple([get(rest) for get in getters])
    return tuple(iter_shuffles(pi, sigma))


class Rows:
    """A row type: how the DP of :func:`_class_pair_counts` holds a state's
    count per key.  One DP loop serves every type; a type gives
    ``move(layer, state, row, key deltas)``, which moves the row's keys and
    merges it into ``layer[state]``, ``unit(key)``, the row of one count at
    that key, ``read(row)``, its ``{key: count}``, ``write({key: count})``,
    its inverse, and ``shift(row, delta)``, which moves every key by delta.
    ``carry`` is None, or ``(block, carrying)``: class 2s of a carried side
    holds slots ``block * s`` on, and ``carrying(count)`` is ``(move, split)``
    for rows of ``count`` classes, ``split(row)`` listing their rows.
    A plan's rows (:meth:`valued`) read, write and shift values instead."""

    __slots__ = ("move", "unit", "read", "write", "shift", "carry")

    def __init__(self, move, unit, read, write, shift, carry=None):
        self.move, self.unit, self.read, self.write, self.shift = move, unit, read, write, shift
        self.carry = carry

    def valued(self, dp) -> Rows:
        """These rows on the values of the DP ``dp``
        (:func:`~shufbij.stats.value_dp`): ``read(row)`` is the row's
        distribution, ``write({value: count})`` the row of a distribution,
        and ``shift(row, value)`` adds a count or sum value to every value
        in the row, each value read or written as its final key."""
        read, write, shift, (_, _, decode, encode) = self.read, self.write, self.shift, dp
        return Rows(self.move, self.unit,
                    lambda row: Counter({decode(key): count for key, count in read(row).items()}),
                    lambda dist: write({encode(value): count for value, count in dist.items()}),
                    lambda row, value: shift(row, encode(value)), self.carry)


def _dict_move(layer: dict, state, counts: dict, deltas: tuple) -> None:
    step, step_after_fall = deltas
    if step != step_after_fall:
        into = layer.setdefault(state, {})
        for key, count in counts.items():
            key += step_after_fall if key & 1 else step
            into[key] = into.get(key, 0) + count
    elif state not in layer:  # no mark reads the step before: keys move as one
        layer[state] = {key + step: count for key, count in counts.items()}
    else:
        into = layer[state]
        for key, count in counts.items():
            key += step
            into[key] = into.get(key, 0) + count


# A sparse row: {key: count}, its keys moved one by one.
_DICT_ROWS = Rows(_dict_move, lambda key: {key: 1}, dict, dict,
                  lambda row, delta: {key + delta: c for key, c in row.items()})


def _odd_slots(width: int, size: int) -> int:
    """Every bit of the slots of the odd keys below ``size``, each slot
    ``width`` bits wide."""
    pairs = (size + 1) // 2
    return ((1 << 2 * width * pairs) - 1) // ((1 << 2 * width) - 1) * ((1 << width) - 1 << width)


@lru_cache(maxsize=64)
def _packed_rows(width: int, size: int, block: int = 0) -> Rows:
    """A dense row of ``size`` slots of ``width`` bits: ``sum(count <<
    width * key)``, each move one or two shifts and one ``+``.  A slot
    holds a count of words with a common prefix, at most the number of
    words of the shape, so ``width`` bits of that number's bit length
    (plus one to spare) never carry into the next slot.  With ``block``,
    a multiple of 8, the rows carry classes of that many slots."""
    ones, odd = (1 << width) - 1, _odd_slots(width, size)

    def move(layer: dict, state, row: int, deltas: tuple) -> None:
        step, step_after_fall = deltas
        if step != step_after_fall:  # split odd keys off; only theirs can move down
            high = row & odd
            row ^= high
            row <<= width * step
            row += (high << width * step_after_fall if step_after_fall >= 0
                    else high >> width * -step_after_fall)
        else:
            row <<= width * step
        layer[state] = layer.get(state, 0) + row

    def read_into(counts: dict, row: int, key: int) -> dict:  # row's slot 0 holds key
        slots = -(-row.bit_length() // width)
        if slots > 32:  # halve a long row, so each part is read once
            half = slots // 2
            low, high = row & (1 << width * half) - 1, row >> width * half
            for part, at in ((low, key), (high, key + half)):
                if part:
                    read_into(counts, part, at)
            return counts
        for key in range(key, key + slots):
            if count := row & ones:
                counts[key] = count
            row >>= width
        return counts

    def carrying(count: int) -> tuple:
        def split(row: int) -> list:  # a block is whole bytes
            data = row.to_bytes(count * stride, "little")
            return [int.from_bytes(data[at:at + stride], "little") for at in range(0, len(data), stride)]

        stride = width * block // 8
        return _packed_rows(width, block * count).move, split

    return Rows(move, lambda key: 1 << width * key, lambda row: read_into({}, row, 0),
                lambda counts: sum([count << width * key for key, count in counts.items()]),
                lambda row, delta: row << width * delta, (block, carrying) if block else None)


def _key_space(dp) -> tuple[int, int]:
    """``(size, values)`` of the DP ``dp`` over every step word of its
    length: one more than the largest key a prefix reaches, and the number
    of final keys.  The keys move as the bits of one integer, a packed row
    of one-bit slots whose merge is ``|``."""
    keys = seen = 1 << dp[0]
    for step in dp[1][1:]:
        high = keys & _odd_slots(1, keys.bit_length())
        low, keys = keys ^ high, 0
        for even, odd in step:
            keys |= low << even | (high << odd if odd >= 0 else high >> -odd)
        seen |= keys
    return seen.bit_length(), keys.bit_count()


# Packed rows while a row has at most this many bits per key a state can
# hold (at most the number of final keys, and of words of the shape);
# sparse rows above it.  The crossover of BENCH_packed_rows.json.
_PACKED_BITS_PER_KEY = 448
# Packed rows carry a side (:func:`_class_pair_counts`) while a block, the
# key space in whole bytes, has at most this many bits; branch above.  The
# crossover of BENCH_carried_rows.json.
_CARRY_BITS = 4096


@lru_cache(maxsize=256)
def _plan(tables, m: int, n: int):
    """``(dp, rows)`` of a shape: the statistic's :func:`~shufbij.stats.value_dp`
    at length m+n, and its rows on values (:meth:`Rows.valued`), packed when
    a row of its key space is short against the keys a state can hold,
    sparse otherwise; packed rows carry while a block fits ``_CARRY_BITS``."""
    dp, words = value_dp(tables, m + n), comb(m + n, m)
    width, (size, values) = words.bit_length() + 1, _key_space(dp)
    if size * width > _PACKED_BITS_PER_KEY * min(values, words):
        return dp, _DICT_ROWS.valued(dp)
    block = -(-size // 8) * 8
    return dp, _packed_rows(width, size, block if block * width <= _CARRY_BITS else 0).valued(dp)


def _class_pair_counts(dp, m: int, n: int, masks_pi=None, masks_sigma=None,
                       rows: Rows = _DICT_ROWS) -> dict:
    """``{(mask_pi, mask_sigma): row}`` over ``masks_pi`` times
    ``masks_sigma`` (None: every bitmask of the length): the packed keys of
    the DP ``dp`` (:func:`~shufbij.stats.value_dp`) with their counts, as a
    row of type ``rows``, over the shuffle set of any pi on [m] and sigma
    on [n]+m with those bitmasks.

    Every sigma entry exceeds every pi entry, so each step of an
    interleaving is fixed by its word and the operands' bits: adjacent
    letters b, a fall, a, b rise, and a, a or b, b copy the step of the
    operand they come from.  The transfer-matrix DP runs over the words
    letter by letter; its state is the number of a's placed, the last
    letter and the bits decided so far, and each state keeps a row of
    counts per key.  The (i+1)-th a, i >= 1, decides pi's bit i on every
    path, read or not, keeping in the state the bits that some mask of
    ``masks_pi`` starts with; b's decide sigma's bits alike.  Rows that
    carry (:attr:`Rows.carry`) carry all classes of the longer side that
    wants at least half of them instead: its bit c moves the row by
    ``block << c - 1`` slots, so class 2s ends in block s, split out at
    the end.  An empty operand leaves one word, the other's, keyed as by
    its rule (:func:`~shufbij.stats.walk`).  A final key is its value
    alone, so no two keys of a pair decode alike.
    """
    def prefixes(masks, c):  # bits 1..c of some member, bit 0 never being a descent
        return range(0, 2 << c, 2) if masks is None else {x & (2 << c) - 1 for x in masks}

    # The members ([0] for an empty operand); the prefix sets only if both are nonempty.
    last_pi, last_sigma = prefixes(masks_pi, max(m, 1) - 1), prefixes(masks_sigma, max(n, 1) - 1)
    unit, move = rows.unit, rows.move
    if not (m and n and last_pi and last_sigma):  # an empty operand, or no pair
        return {(p, s): unit(walk(dp, p | s)) for p in last_pi for s in last_sigma}
    block, carrying = rows.carry or (0, None)
    # Rows that carry take the longer side that wants at least half of its classes.
    carry_pi = block and m > 1 and 2 * len(last_pi) >= 1 << m - 1
    carry_sigma = block and n > 1 and 2 * len(last_sigma) >= 1 << n - 1 and (n >= m or not carry_pi)
    carry_pi = carry_pi and not carry_sigma
    # keep[c]: the prefixes of bits 1..c that a side keeps, all of them if it
    # is carried; keep[-1] holds its members, or every class.
    keep_pi, keep_sigma = ([prefixes(None if carry else masks, c) for c in range(k - 1)]
                           + [prefixes(None, k - 1) if carry else last]
                           for masks, k, last, carry in ((masks_pi, m, last_pi, carry_pi),
                                                         (masks_sigma, n, last_sigma, carry_sigma)))
    # A descent at bit c adds 1 << c & branch to the state (bit 0 alone, never
    # kept, if carried), and moves a carried side's row by at[c - 1] slots.
    branch_pi, branch_sigma = 1 if carry_pi else -1, 1 if carry_sigma else -1
    if carry_pi or carry_sigma:
        classes, last = (keep_pi[-1], last_pi) if carry_pi else (keep_sigma[-1], last_sigma)
        at = [block << c for c in range(len(classes).bit_length() - 1)]
        move, split = carrying(len(classes))
    start, steps, _, _ = dp
    # ends_a / ends_b: (a's placed, pi's bits, sigma's bits) -> row, of the
    # words so far that end in a / in b.  Each state feeds the states of the
    # next layer that fit in (m, n), and a layer is dropped once read.
    first = unit(start)  # read, never written
    ends_a, ends_b = {(1, 0, 0): first}, {(0, 0, 0): first}
    for t in range(1, m + n):  # t letters placed; the next step is step t
        rise, fall = steps[t]  # each a pair of key deltas
        # Per bit, the deltas of a descent: a's fall, b's fall after b and rise after a.
        fall_pi, fall_sigma, rise_sigma = [fall] * m, [fall] * n, [rise] * n
        if carry_pi:
            fall_pi[1:] = [(fall[0] + o, fall[1] + o) for o in at]
        elif carry_sigma:
            fall_sigma[1:] = [(fall[0] + o, fall[1] + o) for o in at]
            rise_sigma[1:] = [(rise[0] + o, rise[1] + o) for o in at]
        # The last layer is one: a word's last letter matters no more.
        into_a, into_b = ({}, {}) if t < m + n - 1 else ({},) * 2
        for layer, step_a, descent_b in ((ends_a, rise, rise_sigma), (ends_b, fall, fall_sigma)):
            for (i, bits_pi, bits_sigma), row in layer.items():
                if i < m:  # a after a copies pi's bit i; a after b falls
                    keep = keep_pi[i]
                    if bits_pi in keep:
                        move(into_a, (i + 1, bits_pi, bits_sigma), row, step_a)
                    if (bits := bits_pi | 1 << i & branch_pi) in keep:
                        move(into_a, (i + 1, bits, bits_sigma), row, fall_pi[i])
                if (j := t - i) < n:  # b after b copies sigma's bit j; b after a rises
                    keep = keep_sigma[j]
                    if bits_sigma in keep:
                        move(into_b, (i, bits_pi, bits_sigma), row, rise)
                    if (bits := bits_sigma | 1 << j & branch_sigma) in keep:
                        move(into_b, (i, bits_pi, bits), row, descent_b[j])
        ends_a, ends_b = into_a, into_b
    if not (carry_pi or carry_sigma):
        return {(bits_pi, bits_sigma): row for (_, bits_pi, bits_sigma), row in ends_a.items()}
    table = {}  # class 2s of the carried side is block s; keep the members
    for (_, bits_pi, bits_sigma), row in ends_a.items():
        for mask, part in zip(classes, split(row)):
            if mask in last:
                table[(mask, bits_sigma) if carry_pi else (bits_pi, mask)] = part
    return table


def class_pair_counts(stat: StatId, m: int, n: int, masks_pi=None, masks_sigma=None):
    """``(table, rows)``: ``table`` is ``{(mask_pi, mask_sigma): row}`` of a
    descent statistic over the shuffle set of each class pair of
    ``masks_pi`` times ``masks_sigma`` (None: every bitmask of the length),
    pi on [m] and sigma on [n]+m, by one DP (:func:`_class_pair_counts`)
    over the packed keys of the statistic's
    :func:`~shufbij.stats.value_dp`.  ``rows`` (:class:`Rows`) is the row
    type, picked once per statistic and shape, on values: ``rows.read``
    gives a row's distribution, ``rows.write`` the row of one, and
    ``rows.shift`` adds a value to every value of a row.  A key is its
    value alone, and a row holds each key in one way, so two pairs' rows
    are equal exactly when their distributions are."""
    return _table_counts(resolve_stat(stat).descent().tables, m, n, masks_pi, masks_sigma)


def _table_counts(tables, m: int, n: int, masks_pi=None, masks_sigma=None):
    """:func:`class_pair_counts` of the statistic with mark tables ``tables``."""
    dp, rows = _plan(tables, m, n)
    return _class_pair_counts(dp, m, n, masks_pi, masks_sigma, rows), rows


def class_pair_distributions(stat: StatId, m: int, n: int, masks_pi=None, masks_sigma=None):
    """``{(mask_pi, mask_sigma): distribution}``: the rows of
    :func:`class_pair_counts`, each read.  The decode keeps its last 1024
    values across calls."""
    table, rows = class_pair_counts(stat, m, n, masks_pi, masks_sigma)
    return {pair: rows.read(row) for pair, row in table.items()}


def shuffle_distribution(stat: StatId, pi: Perm, sigma: Perm) -> Distribution:
    """Distribution of a statistic over the shuffle set of ``pi`` and
    ``sigma``.

    For a descent statistic (or a tuple of them) it is a function of
    (Des pi, Des sigma, m, n), Des being shuffle compatible, so it is read
    off :func:`class_pair_distributions` of the one class pair without
    building the shuffle set; the operands need not be separated.  A
    statistic involving ``inv`` is evaluated on every interleaving.
    """
    statistic = resolve_stat(stat)
    _check_disjoint(pi, sigma)
    if statistic.tables is None:
        return Distribution(map(statistic.value, iter_shuffles(pi, sigma)))
    pair = descent_mask(pi), descent_mask(sigma)
    table, rows = _table_counts(statistic.tables, len(pi), len(sigma), {pair[0]}, {pair[1]})
    return rows.read(table[pair])


def shuffles_with_k_descents(pi: Perm, sigma: Perm, k: int) -> tuple[Perm, ...]:
    return tuple(t for t in shuffles(pi, sigma) if descent_mask(t).bit_count() == k)


def is_shuffle(tau: Perm, pi: Perm, sigma: Perm) -> bool:
    """Whether the entries of ``tau`` in ``pi`` read ``pi``, and the rest ``sigma``."""
    pi, sigma = tuple(pi), tuple(sigma)
    pset = set(pi)
    if not pset.isdisjoint(sigma):
        _check_disjoint(pi, sigma)  # raises, naming the shared entries
    in_pi = pset.__contains__
    return (len(tau) == len(pi) + len(sigma) and tuple(filter(in_pi, tau)) == pi
            and tuple(filterfalse(in_pi, tau)) == sigma)


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


def __getattr__(name):
    """``normalize_pair``, ``phi``, ``phi_tilde`` and ``t_swap``, defined in
    ``traces``, read from there on first use."""
    if name not in ("normalize_pair", "phi", "phi_tilde", "t_swap"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import traces
    value = globals()[name] = getattr(traces, name)
    return value
