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
positions, their count or their sum.  :attr:`StatDef.rule` compiles the
table once into a few bit operations on the descent bitmask (bit d set
when position d is a descent, :func:`descent_mask`); :func:`evaluate`
computes the bitmask of a permutation once and reads every component
through its rule, and the named functions (:func:`des_set`, :func:`maj`,
:func:`peak_family`, ...) do the same for one statistic.  The shuffle-set
engine (:mod:`shufbij.shuffle`) reads the tables themselves, adding each
mark as its transfer-matrix DP decides a step.  Only ``inv`` has code of
its own on a permutation.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

from .perm import Perm, mask_positions

StatId = Union[str, tuple]
StatValue = Union[int, frozenset, tuple]
Distribution = Counter

RISE, FALL, NONE = "rise", "fall", "none"


def descent_mask(pi: Perm) -> int:
    """The descent set of ``pi`` as a bitmask: bit i set when pi_i > pi_{i+1}."""
    mask = 0
    for i in range(1, len(pi)):
        if pi[i - 1] > pi[i]:
            mask |= 1 << i
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


# The gate that marks the interior positions, by its inputs (step i-1
# falls, step i falls), over the descent word W: bit i of ``W << 1`` is
# step i-1 and bit i of ``W`` is step i.  One form per input pair, and
# shorter ones for the gates the catalog uses.
_MINTERMS = {(0, 0): "~(W | W << 1)", (0, 1): "W & ~(W << 1)", (1, 0): "W << 1 & ~W",
             (1, 1): "W & W << 1"}
_SHORT_GATES = {frozenset({(0, 1), (1, 1)}): "W", frozenset({(0, 0), (1, 0)}): "~W",
                frozenset({(0, 1), (1, 0)}): "(W ^ W << 1)"}
# The body of ``rule(mask, length)`` for each output, on the marked positions.
_READ = {
    "set": "return positions({})",
    "count": "return ({}).bit_count()",
    "sum": """marks, total = {}, 0
    while marks:
        low = marks & -marks
        total += low.bit_length() - 1
        marks ^= low
    return total""",
}


def _end_term(steps: list, word: str, bit: str) -> list:
    """The mark of an end position that the gate cannot read, at ``bit``
    where ``word`` holds its inner step and that step is in ``steps``."""
    if len(steps) < 2:
        return [f"{'~' * (steps == [RISE])}{word} & {bit}"] if steps else []
    return [bit]


def _rule_source(table: MarkTable) -> str:
    """The source of ``rule(mask, length)``: the marked positions as few
    bit operations on the descent bitmask as the table needs, read out as
    the table's output.

    The descent word W is the bitmask with a falling sentinel step set (bit
    0 for step 0, bit ``length`` for the last step), and one gate of ``W <<
    1`` and ``W`` marks each position both of whose steps it reads.  A
    missing sentinel reads as a rise where that changes no mark; otherwise
    its end position is cut out of the gate's window and takes a term of
    its own.  The window is cut only where the gate could set a bit
    outside it, and lengths 0 and 1 are guarded only where the formula
    misreads them.
    """
    marks, both = table.marks, (RISE, FALL)
    left, right = table.left, table.right
    if left == NONE and all(((NONE, s) in marks) == ((RISE, s) in marks) for s in both):
        left = RISE
    if right == NONE and all(((p, NONE) in marks) == ((p, RISE) in marks) for p in both):
        right = RISE
    first = [s for s in both if (NONE, s) in marks] if left == NONE else []
    last = [p for p in both if (p, NONE) in marks] if right == NONE else []
    gate = frozenset((int(p == FALL), int(s == FALL)) for p, s in marks if NONE not in (p, s))
    fall_0, fall_end = int(left == FALL), int(right == FALL)
    # The gate's inputs at the bits below its window, and above it.
    below = {(0, fall_0)} | ({(0, 0), (0, 1)} if left == NONE and len(first) < 2 else set())
    above = {(fall_end, 0), (0, 0)} | ({(1, 0)} if right == NONE and len(last) < 2 else set())
    parts = _end_term(first, "mask", "2") + _end_term(last, "mask << 1", "1 << length")
    if gate:
        source = _SHORT_GATES.get(gate) or "(" + " | ".join(_MINTERMS[g] for g in sorted(gate)) + ")"
        word = "mask" + " | 1" * fall_0 + " | 1 << length" * fall_end
        if word != "mask":  # bind the extended word once
            source = source.replace("W", f"(w := {word})", 1)
        source = source.replace("W", "mask" if word == "mask" else "w")
        low, top = 4 if left == NONE else 2, "(1 << length)" if right == NONE else "(2 << length)"
        if gate & below:
            source += f" & ({top} - {low})" if gate & above else f" & -{low}"
        elif gate & above:
            source += f" & ({top} - 1)"
        parts.insert(0, source)
    source = " | ".join(parts) or "0"
    alone = (table.left, table.right) in marks  # length 1: position 1 between the ends
    probe = eval(f"lambda mask, length: {source}")
    if probe(0, 0) or probe(0, 1) != 2 * alone:
        source = f"{source} if length > 1 else {'length << 1' if alone else 0}"
    return f"def rule(mask, length):\n    {_READ[table.output].format(source)}\n"


class StatDef:
    """A catalog entry: a descent statistic's one definition, its mark
    table, or None for ``inv``, the one statistic that is not a descent
    statistic."""

    def __init__(self, table: Optional[MarkTable]):
        self.table = table

    @cached_property
    def rule(self) -> Optional[Callable[[int, int], StatValue]]:
        """``rule(mask, length)``: the value read off the descent bitmask of
        a permutation of ``length``, compiled from the table on first use."""
        if self.table is None:
            return None
        namespace = {"positions": mask_positions}
        exec(_rule_source(self.table), namespace)
        return namespace["rule"]

    @property
    def integer_valued(self) -> bool:
        return self.table is None or self.table.output != "set"

    @property
    def descent_statistic(self) -> bool:
        return self.table is not None


def _stat(marks, output: str = "set", left: str = NONE, right: str = NONE) -> StatDef:
    return StatDef(MarkTable(frozenset(marks), output, left, right))


_FALLS = {(p, FALL) for p in (RISE, FALL, NONE)}
_RISES = {(p, RISE) for p in (RISE, FALL, NONE)}
_PEAK, _VALLEY = {(RISE, FALL)}, {(FALL, RISE)}
# The last position of every maximal monotone run: each turn, and the end.
_RUN_ENDS = {(RISE, FALL), (FALL, RISE), (RISE, NONE), (FALL, NONE), (NONE, NONE)}

# A low sentinel makes step 0 rise and the last step fall; a high one, as
# the valley family has, the reverse.
STATISTICS: dict[str, StatDef] = {
    "Des": _stat(_FALLS),
    "des": _stat(_FALLS, "count"),
    "Asc": _stat(_RISES),
    "asc": _stat(_RISES, "count"),
    "maj": _stat(_FALLS, "sum"),
    "inv": StatDef(None),
    "Pk": _stat(_PEAK),
    "pk": _stat(_PEAK, "count"),
    "Val": _stat(_VALLEY),
    "val": _stat(_VALLEY, "count"),
    "Lpk": _stat(_PEAK, left=RISE),
    "lpk": _stat(_PEAK, "count", left=RISE),
    "Rpk": _stat(_PEAK, right=FALL),
    "rpk": _stat(_PEAK, "count", right=FALL),
    "Epk": _stat(_PEAK, left=RISE, right=FALL),
    "epk": _stat(_PEAK, "count", left=RISE, right=FALL),
    "Lval": _stat(_VALLEY, left=FALL),
    "lval": _stat(_VALLEY, "count", left=FALL),
    "Rval": _stat(_VALLEY, right=RISE),
    "rval": _stat(_VALLEY, "count", right=RISE),
    "Eval": _stat(_VALLEY, left=FALL, right=RISE),
    "eval": _stat(_VALLEY, "count", left=FALL, right=RISE),
    "chi_minus": _stat({(NONE, FALL)}, "count"),
    "chi_plus": _stat({(RISE, NONE)}, "count"),
    # a low value prepended: step 0 rises
    "udr": _stat(_RUN_ENDS, "count", left=RISE),
    "biruns": _stat(_RUN_ENDS, "count"),
}


def _read(name: str, pi: Perm) -> StatValue:
    """The descent statistic ``name`` of ``pi``, read through its rule."""
    return STATISTICS[name].rule(descent_mask(pi), len(pi))


def des_set(pi: Perm) -> frozenset[int]:
    """Positions i with pi_i > pi_{i+1}."""
    return _read("Des", pi)


def asc_set(pi: Perm) -> frozenset[int]:
    """Positions i with pi_i < pi_{i+1}."""
    return _read("Asc", pi)


def maj(pi: Perm) -> int:
    """Sum of the descent positions."""
    return _read("maj", pi)


PEAK_VARIANTS = ("interior", "left", "right", "exterior")
_PEAK_SETS = dict(zip(PEAK_VARIANTS, ("Pk", "Lpk", "Rpk", "Epk")))
_VALLEY_SETS = dict(zip(PEAK_VARIANTS, ("Val", "Lval", "Rval", "Eval")))


def _family(names: dict[str, str], pi: Perm, variant: str) -> frozenset[int]:
    if variant not in names:
        raise ValueError(f"unknown peak variant {variant!r}")
    return _read(names[variant], pi)


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
    return _read("chi_minus", pi)


def chi_plus(pi: Perm) -> int:
    """1 when the last position is an ascent."""
    return _read("chi_plus", pi)


def biruns(pi: Perm) -> int:
    """Number of maximal strictly monotone factors.

    Adjacent factors share an endpoint; for length >= 2 this equals the
    number of maximal constant runs in the ascent/descent pattern.
    """
    return _read("biruns", pi)


def udr(pi: Perm) -> int:
    """Number of maximal monotone factors after a low value is prepended."""
    return _read("udr", pi)


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
    if isinstance(stat, str):
        return STATISTICS[stat].descent_statistic
    return all(STATISTICS[name].descent_statistic for name in stat)


def is_integer_valued(stat: StatId) -> bool:
    stat = validate_stat(stat)
    return isinstance(stat, str) and STATISTICS[stat].integer_valued


def evaluate(stat: StatId, pi: Perm) -> StatValue:
    """Evaluate a statistic; tuple ids evaluate componentwise in order.  The
    descent bitmask of ``pi`` is computed once and every descent statistic
    is read off it through its rule."""
    stat = validate_stat(stat)
    if stat == "inv":
        return inv(pi)
    mask, length = descent_mask(pi), len(pi)
    if isinstance(stat, str):
        return STATISTICS[stat].rule(mask, length)
    return tuple(
        inv(pi) if name == "inv" else STATISTICS[name].rule(mask, length) for name in stat
    )


def _descent_components(stat: StatId) -> list[StatDef]:
    if not is_descent_statistic(stat):
        raise ValueError(f"{format_stat(stat)} is not a descent statistic")
    return [STATISTICS[name] for name in ((stat,) if isinstance(stat, str) else stat)]


def descent_rule(stat: StatId) -> Callable[[int, int], StatValue]:
    """The rule ``(mask, length) -> value`` of a descent statistic; a tuple
    id reads its components off the same mask, in order."""
    rules = [defn.rule for defn in _descent_components(stat)]
    if isinstance(stat, str):
        return rules[0]
    return lambda mask, length: tuple(rule(mask, length) for rule in rules)


def mark_tables(stat: StatId) -> tuple[MarkTable, ...]:
    """The mark tables of a descent statistic's components, in order."""
    return tuple(defn.table for defn in _descent_components(stat))


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
