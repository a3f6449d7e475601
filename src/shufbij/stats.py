"""Permutation statistics, tuple statistics, and distributions.

Statistics are addressed by name (``"maj"``, ``"Des"``, ...) or by a tuple
of names such as ``("maj", "des")``, which evaluates componentwise.  Values
are plain integers, frozensets of 1-based positions, or tuples of values;
a distribution is a ``collections.Counter`` over such values.

Every statistic in the catalog except ``inv`` is a descent statistic: its
value is determined by the descent set and the length.  Each one is
defined once, by a :class:`MarkTable`: step i joins positions i and i+1
and is a rise or a fall (steps 0 and ``length`` join a sentinel, or are
*none* when that end has none), position i is marked when the pair (step
i-1, step i) is in the table, and the value is the set of marked
positions, their count or their sum; :data:`STATISTICS` maps ``inv`` to
None.  :func:`value_dp` is the one reader of a table's fields: it packs
every component's partial value into one integer key and gives the key's
delta at each step.  The shuffle-set engine (:mod:`shufbij.shuffle`)
runs it over the words of two operands; a permutation is the one-word
case, so :func:`descent_rule`, the one rule of a statistic id, walks the
key over the descent bitmask (bit d set when position d is a descent,
:func:`descent_mask`) and decodes it.  :func:`evaluate` and the named
functions (:func:`des_set`, :func:`maj`, :func:`peak_family`, ...)
compute the bitmask of a permutation once and read it through that rule,
all components of a tuple in one walk.  Only ``inv`` has code of its own
on a permutation.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Union

from .perm import Perm, mask_positions

StatId = Union[str, tuple]
StatValue = Union[int, frozenset, tuple]
Distribution = Counter

RISE, FALL, NONE = "rise", "fall", "none"


def descent_mask(pi: Perm) -> int:
    """The descent set of ``pi`` as a bitmask: bit i set when pi_i > pi_{i+1}."""
    mask, bit, rest = 0, 2, iter(pi)
    for prev in rest:  # the first entry; the inner loop walks the others
        for v in rest:
            if prev > v:
                mask |= bit
            prev, bit = v, bit << 1
    return mask


def inv(pi: Perm) -> int:
    """Number of out-of-order pairs.  Not a descent statistic."""
    m = len(pi)
    return sum(1 for i in range(m) for j in range(i + 1, m) if pi[i] > pi[j])


class MarkTable(NamedTuple):
    """A descent statistic of a permutation of ``length``.

    Step d (1 <= d < length) joins positions d and d+1 and is a ``FALL``
    when d is a descent, a ``RISE`` otherwise.  Step 0 is ``left`` and
    step ``length`` is ``right``: the step from a sentinel before position
    1 or to one after the last position (a low sentinel makes step 0 rise
    and the last step fall, a high one the reverse), or ``NONE`` where
    that end has no sentinel.  Position i (1..length) is marked when
    (step i-1, step i) is in ``marks``; the value is the ``"set"`` of
    marked positions, their ``"count"`` or their ``"sum"``.
    """

    marks: frozenset
    output: str = "set"
    left: str = NONE
    right: str = NONE


@lru_cache(maxsize=256)
def value_dp(tables: Union[MarkTable, tuple[MarkTable, ...]], length: int):
    """The packed-key DP of the statistic with mark tables ``tables`` (one
    value for a :class:`MarkTable`, a tuple of values for a tuple of them)
    over step words of a permutation of ``length``: ``(start, steps,
    decode, encode)``.

    A key packs each component's partial value in a field of its own: a
    mark at position i adds 1 << i to a set field, 1 to a count and i to a
    sum.  Bit 0 holds whether the step before fell, when some interior mark
    reads it; the last step clears it, so a final key is its value alone,
    and two final keys are equal exactly when their values are.
    ``steps[t]`` is the pair of key deltas of a rising and of a falling
    step t, each indexed by that bit: step t marks position t, and the last
    step the last position too.  Every key is nonnegative, and only the
    last step's delta of a key with bit 0 set can be negative, -1 at most:
    so a row of counts indexed by key (``shuffle`` packs one into an
    integer, key k's count in slot k) moves by whole slots, odd keys apart
    from even ones, and never below slot 0.  ``start`` is the key before
    any step; ``decode`` reads a final key as the value, and ``encode``,
    its inverse, writes a value as its final key.  A field is wide enough
    for every value of its component, so ``encode`` adds: the key of a
    tuple value is the sum of its components' keys, each alone in its
    field.  This is the one reader of a table's fields; built once per
    tables and length, and kept.
    """
    single = isinstance(tables, MarkTable)
    tables = (tables,) if single else tables
    reads_prev = any(
        ((RISE, s) in table.marks) != ((FALL, s) in table.marks)
        for table in tables for s in (RISE, FALL)
    )
    fields, offset = [], int(reads_prev)  # (table, offset, width mask)
    # steps[t][step][prev]: the previous-step bit's delta, then the marks add on;
    # a fall sets the bit, but the last step clears it
    steps = [[[0, -reads_prev], [reads_prev, 0] if t < length - 1 else [0, -reads_prev]]
             for t in range(length)]
    start = 0
    for table in tables:
        top = {"set": 1 << length, "count": length, "sum": length * (length + 1) // 2}
        width = top[table.output].bit_length()
        fields.append((table, offset, (1 << width) - 1))
        out, marks, left, right = table.output, table.marks, table.left, table.right
        inc = [(1 << i if out == "set" else i if out == "sum" else 1) << offset
               for i in range(length + 1)]  # inc[i]: the key increment of a mark at i
        offset += width
        if length == 1:
            start += inc[1] * ((left, right) in marks)
        for t in range(1, length):  # step t marks position t, the last step the last too
            for s, row in zip((RISE, FALL), steps[t]):
                end = inc[length] if t == length - 1 and (s, right) in marks else 0
                for k, p in enumerate((RISE, FALL)):
                    row[k] += end + inc[t] * ((left if t == 1 else p, s) in marks)
    steps = (None, *(tuple(map(tuple, step)) for step in steps[1:]))

    def reader(table, offset, width):
        if table.output == "set":
            return lambda key: mask_positions(key >> offset & width)
        return lambda key: key >> offset & width

    def writer(table, offset, width):
        if table.output == "set":
            return lambda value: sum(1 << i for i in value) << offset
        return lambda value: value << offset

    readers = [reader(*field) for field in fields]
    writers = [writer(*field) for field in fields]
    decode = readers[0] if single else lambda key: tuple([read(key) for read in readers])
    encode = writers[0] if single else lambda value: sum([
        write(part) for write, part in zip(writers, value)])
    return start, steps, lru_cache(maxsize=1 << 10)(decode), lru_cache(maxsize=1 << 10)(encode)


def walk(dp, mask: int) -> int:
    """The final key of the DP ``dp`` (:func:`value_dp`) over the one word
    of a permutation with descent bitmask ``mask``, of the DP's length."""
    key, steps, _, _ = dp
    for step in steps[1:]:  # step t reads bit t
        mask >>= 1
        key += step[mask & 1][key & 1]
    return key


_FALLS = frozenset((p, FALL) for p in (RISE, FALL, NONE))
_RISES = frozenset((p, RISE) for p in (RISE, FALL, NONE))
_PEAK, _VALLEY = frozenset({(RISE, FALL)}), frozenset({(FALL, RISE)})
# The last position of every maximal monotone run: each turn, and the end.
_RUN_ENDS = frozenset({(RISE, FALL), (FALL, RISE), (RISE, NONE), (FALL, NONE), (NONE, NONE)})

# A low sentinel makes step 0 rise and the last step fall; a high one, as
# the valley family has, the reverse.
STATISTICS: dict[str, Optional[MarkTable]] = {
    "Des": MarkTable(_FALLS),
    "des": MarkTable(_FALLS, "count"),
    "Asc": MarkTable(_RISES),
    "asc": MarkTable(_RISES, "count"),
    "maj": MarkTable(_FALLS, "sum"),
    "inv": None,
    "Pk": MarkTable(_PEAK),
    "pk": MarkTable(_PEAK, "count"),
    "Val": MarkTable(_VALLEY),
    "val": MarkTable(_VALLEY, "count"),
    "Lpk": MarkTable(_PEAK, left=RISE),
    "lpk": MarkTable(_PEAK, "count", left=RISE),
    "Rpk": MarkTable(_PEAK, right=FALL),
    "rpk": MarkTable(_PEAK, "count", right=FALL),
    "Epk": MarkTable(_PEAK, left=RISE, right=FALL),
    "epk": MarkTable(_PEAK, "count", left=RISE, right=FALL),
    "Lval": MarkTable(_VALLEY, left=FALL),
    "lval": MarkTable(_VALLEY, "count", left=FALL),
    "Rval": MarkTable(_VALLEY, right=RISE),
    "rval": MarkTable(_VALLEY, "count", right=RISE),
    "Eval": MarkTable(_VALLEY, left=FALL, right=RISE),
    "eval": MarkTable(_VALLEY, "count", left=FALL, right=RISE),
    "chi_minus": MarkTable(frozenset({(NONE, FALL)}), "count"),
    "chi_plus": MarkTable(frozenset({(RISE, NONE)}), "count"),
    # a low value prepended: step 0 rises
    "udr": MarkTable(_RUN_ENDS, "count", left=RISE),
    "biruns": MarkTable(_RUN_ENDS, "count"),
}
# The catalog the sweeps, scripts and tests run: descent names, then tuples.
DESCENT_NAMES = tuple(name for name, table in STATISTICS.items() if table)
CATALOG_TUPLES = (("maj", "des"), ("udr", "pk"), ("udr", "pk", "des"), ("biruns", "des"))


def des_set(pi: Perm) -> frozenset[int]:
    """Positions i with pi_i > pi_{i+1}."""
    return descent_rule("Des")(descent_mask(pi), len(pi))


def asc_set(pi: Perm) -> frozenset[int]:
    """Positions i with pi_i < pi_{i+1}."""
    return descent_rule("Asc")(descent_mask(pi), len(pi))


def maj(pi: Perm) -> int:
    """Sum of the descent positions."""
    return descent_rule("maj")(descent_mask(pi), len(pi))


PEAK_VARIANTS = ("interior", "left", "right", "exterior")
_PEAK_SETS = dict(zip(PEAK_VARIANTS, ("Pk", "Lpk", "Rpk", "Epk")))
_VALLEY_SETS = dict(zip(PEAK_VARIANTS, ("Val", "Lval", "Rval", "Eval")))


def _family(names: dict[str, str], pi: Perm, variant: str) -> frozenset[int]:
    if variant not in names:
        raise ValueError(f"unknown peak variant {variant!r}")
    return descent_rule(names[variant])(descent_mask(pi), len(pi))


def peak_family(pi: Perm, variant: str) -> frozenset[int]:
    """Peak set of ``pi`` with optional low sentinels at either end.

    ``interior`` uses no sentinels, ``left``/``right``/``exterior`` treat a
    value below everything as sitting before position 1 and/or after
    position m.
    """
    return _family(_PEAK_SETS, pi, variant)


def valley_family(pi: Perm, variant: str) -> frozenset[int]:
    """Valley set of ``pi``, the mirror of :func:`peak_family` with high
    sentinels."""
    return _family(_VALLEY_SETS, pi, variant)


def chi_minus(pi: Perm) -> int:
    """1 when position 1 is a descent."""
    return descent_rule("chi_minus")(descent_mask(pi), len(pi))


def chi_plus(pi: Perm) -> int:
    """1 when the last position is an ascent."""
    return descent_rule("chi_plus")(descent_mask(pi), len(pi))


def biruns(pi: Perm) -> int:
    """Number of maximal strictly monotone factors.

    Adjacent factors share an endpoint; for length >= 2 this equals the
    number of maximal constant runs in the ascent/descent pattern.
    """
    return descent_rule("biruns")(descent_mask(pi), len(pi))


def udr(pi: Perm) -> int:
    """Number of maximal monotone factors after a low value is prepended."""
    return descent_rule("udr")(descent_mask(pi), len(pi))


def validate_stat(stat: StatId) -> StatId:
    """Check a statistic id; tuples must be flat and nonempty."""
    if isinstance(stat, str):
        if stat not in STATISTICS:
            raise ValueError(f"unknown statistic {stat!r}")
        return stat
    if isinstance(stat, tuple):
        if not stat:
            raise ValueError("empty tuple statistic")
        for name in stat:
            if not isinstance(name, str) or name not in STATISTICS:
                raise ValueError(f"unknown statistic component {name!r}")
        return stat
    raise ValueError(f"statistic must be a name or tuple of names, got {stat!r}")


def is_descent_statistic(stat: StatId) -> bool:
    stat = validate_stat(stat)
    names = (stat,) if isinstance(stat, str) else stat
    return all(STATISTICS[name] is not None for name in names)


def is_integer_valued(stat: StatId) -> bool:
    stat = validate_stat(stat)
    return isinstance(stat, str) and (STATISTICS[stat] is None or STATISTICS[stat].output != "set")


def evaluate(stat: StatId, pi: Perm) -> StatValue:
    """Evaluate a statistic; tuple ids evaluate componentwise in order.  A
    descent statistic, or a tuple of them, is read off the descent bitmask
    of ``pi`` by its rule, all components in one walk; a tuple containing
    ``inv`` reads its components one by one."""
    if stat == "inv":
        return inv(pi)
    if isinstance(stat, tuple) and "inv" in stat:
        stat, mask, length = validate_stat(stat), descent_mask(pi), len(pi)
        return tuple(inv(pi) if name == "inv" else descent_rule(name)(mask, length)
                     for name in stat)
    return descent_rule(stat)(descent_mask(pi), len(pi))  # descent_rule validates


def mark_tables(stat: StatId) -> Union[MarkTable, tuple[MarkTable, ...]]:
    """The mark table of a descent statistic's name; the tuple of its
    components' tables, in order, for a tuple id: its rule's
    (:func:`descent_rule`), so an id is validated once."""
    return descent_rule(stat).tables


_RULES: dict = {}  # validated statistic id -> its rule, for at most 256 ids


def descent_rule(stat: StatId) -> Callable[[int, int], StatValue]:
    """The rule ``(mask, length) -> value`` of a descent statistic: the
    :func:`value_dp` of its :func:`mark_tables` walked over one word and
    decoded, all components of a tuple id off one packed key.  Built once
    per validated id, it keeps its last 1024 values, and its ``tables``."""
    try:
        return _RULES[stat]
    except (KeyError, TypeError):  # not built yet, or unhashable: refused below
        pass
    if not is_descent_statistic(stat):
        raise ValueError(f"{format_stat(stat)} is not a descent statistic")
    tables = STATISTICS[stat] if isinstance(stat, str) else tuple(STATISTICS[name] for name in stat)

    @lru_cache(maxsize=1 << 10)
    def rule(mask: int, length: int) -> StatValue:
        dp = value_dp(tables, length)
        return dp[2](walk(dp, mask))

    rule.tables = tables
    if len(_RULES) == 256:
        _RULES.clear()
    _RULES[stat] = rule
    return rule


def distribution(stat: StatId, perms: Iterable[Perm]) -> Distribution:
    """Multiset of statistic values over a collection of permutations."""
    stat = validate_stat(stat)
    dist: Distribution = Counter()
    for pi in perms:
        dist[evaluate(stat, pi)] += 1
    return dist


def parse_stat(text: str) -> StatId:
    """Parse ``"maj"`` or a tuple form like ``"(maj,des)"`` / ``"maj,des"``."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if "," in s:
        return validate_stat(tuple(part.strip() for part in s.split(",")))
    return validate_stat(s)


def format_stat(stat: StatId) -> str:
    if isinstance(stat, str):
        return stat
    return "(" + ",".join(stat) + ")"


def format_stat_value(value: StatValue) -> str:
    """Serialize: integers as decimal, sets as ``[2,4]``, tuples as ``(5,2)``."""
    if isinstance(value, bool):
        raise TypeError("boolean is not a statistic value")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, frozenset):
        return "[" + ",".join(str(v) for v in sorted(value)) + "]"
    if isinstance(value, tuple):
        return "(" + ",".join(format_stat_value(v) for v in value) + ")"
    raise TypeError(f"not a statistic value: {value!r}")


def stat_value_sort_key(value: StatValue):
    """Total order on statistic values used for serialization: integers,
    then sets by size and content, then tuples componentwise."""
    if isinstance(value, int):
        return (0, value)
    if isinstance(value, frozenset):
        return (1, len(value), tuple(sorted(value)))
    if isinstance(value, tuple):
        return (2, len(value), tuple(stat_value_sort_key(v) for v in value))
    raise TypeError(f"not a statistic value: {value!r}")


def distribution_entries(dist: Distribution) -> list[tuple[str, int]]:
    """Deterministic (serialized value, multiplicity) pairs, sorted by value."""
    return [
        (format_stat_value(v), dist[v])
        for v in sorted(dist, key=stat_value_sort_key)
    ]


def distribution_to_json(dist: Distribution) -> list[dict]:
    return [{"value": v, "mult": n} for v, n in distribution_entries(dist)]
