"""Permutation statistics, tuple statistics, and distributions.

Statistics are addressed by name (``"maj"``, ``"Des"``, ...) or by a tuple
of names such as ``("maj", "des")``, which evaluates componentwise.  Values
are plain integers, frozensets of 1-based positions, or tuples of values;
a distribution is a ``collections.Counter`` over such values.

Every statistic in the catalog except ``inv`` is a descent statistic: its
value is determined by the descent set and the length.  Each one has a
single definition, a rule that reads the value off a descent bitmask (bit
d set when position d is a descent, :func:`descent_mask`) and the length;
the peak and valley families read theirs through one sentinel helper,
:func:`_turns`.  :func:`evaluate` computes the bitmask of a permutation
once and reads every component through its rule, and the named functions
(:func:`des_set`, :func:`maj`, :func:`peak_family`, ...) do the same for
one statistic; the shuffle-set engine (:mod:`shufbij.shuffle`) runs the
rules on the bitmasks of its transfer-matrix histogram.  Only ``inv`` has
code of its own on a permutation.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .perm import Perm, mask_positions

StatId = Union[str, tuple]
StatValue = Union[int, frozenset, tuple]
Distribution = Counter


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


def _inner(length: int) -> int:
    """The bitmask of the positions 1..length-1 that can be descents."""
    return ((1 << length) - 1) & ~1


def _turns(mask: int, length: int, peak: bool, left: bool, right: bool) -> int:
    """Peak (or, for ``peak`` false, valley) positions as a bitmask, read off
    the descent bitmask of a permutation of ``length``.

    Step d joins positions d and d+1.  A sentinel before position 1
    (``left``) adds step 0 and one after position ``length`` (``right``)
    adds step ``length``; sentinels are low for peaks and high for
    valleys, as ``tests/oracles.py`` builds the extended sequence.
    Position i is a peak when step i-1 rises and step i falls, a valley
    when step i-1 falls and step i rises.
    """
    down = mask
    if peak and right:
        down |= 1 << length
    if not peak and left:
        down |= 1
    up = (_inner(length) | (1 if left else 0) | (1 << length if right else 0)) & ~down
    return (up << 1) & down if peak else (down << 1) & up


def _biruns(mask: int, length: int) -> int:
    if length < 2:
        return length
    return 1 + ((mask ^ (mask >> 1)) & _inner(length - 1)).bit_count()


def _maj(mask: int, length: int) -> int:
    """The sum of the positions set in ``mask``."""
    total = 0
    while mask:
        low = mask & -mask
        total += low.bit_length() - 1
        mask ^= low
    return total


@dataclass(frozen=True)
class StatDef:
    """A catalog entry.  ``rule(mask, length)`` is a descent statistic's one
    definition: it reads the value off the descent bitmask of a
    permutation of ``length``.  It is None for ``inv``, the one statistic
    that is not a descent statistic."""

    rule: Optional[Callable[[int, int], StatValue]]
    integer_valued: bool

    @property
    def descent_statistic(self) -> bool:
        return self.rule is not None


def _turn_stat(peak: bool, variant: str, count: bool) -> StatDef:
    """The peak (or valley) set or count with the sentinels of ``variant``."""
    left, right = variant in ("left", "exterior"), variant in ("right", "exterior")
    read = int.bit_count if count else mask_positions
    return StatDef(lambda mask, length: read(_turns(mask, length, peak, left, right)), count)


STATISTICS: dict[str, StatDef] = {
    "Des": StatDef(lambda mask, length: mask_positions(mask), False),
    "des": StatDef(lambda mask, length: mask.bit_count(), True),
    "Asc": StatDef(lambda mask, length: mask_positions(_inner(length) & ~mask), False),
    "asc": StatDef(lambda mask, length: (_inner(length) & ~mask).bit_count(), True),
    "maj": StatDef(_maj, True),
    "inv": StatDef(None, True),
    "Pk": _turn_stat(True, "interior", False),
    "pk": _turn_stat(True, "interior", True),
    "Val": _turn_stat(False, "interior", False),
    "val": _turn_stat(False, "interior", True),
    "Lpk": _turn_stat(True, "left", False),
    "lpk": _turn_stat(True, "left", True),
    "Rpk": _turn_stat(True, "right", False),
    "rpk": _turn_stat(True, "right", True),
    "Epk": _turn_stat(True, "exterior", False),
    "epk": _turn_stat(True, "exterior", True),
    "Lval": _turn_stat(False, "left", False),
    "lval": _turn_stat(False, "left", True),
    "Rval": _turn_stat(False, "right", False),
    "rval": _turn_stat(False, "right", True),
    "Eval": _turn_stat(False, "exterior", False),
    "eval": _turn_stat(False, "exterior", True),
    "chi_minus": StatDef(lambda mask, length: mask >> 1 & 1, True),
    "chi_plus": StatDef(
        lambda mask, length: int(length >= 2 and not mask >> (length - 1) & 1), True
    ),
    # a low value prepended: one more position, and a first step that rises
    "udr": StatDef(lambda mask, length: _biruns(mask << 1, length + 1) if length else 0, True),
    "biruns": StatDef(_biruns, True),
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


def descent_rule(stat: StatId) -> Callable[[int, int], StatValue]:
    """The rule ``(mask, length) -> value`` of a descent statistic; a tuple
    id reads its components off the same mask, in order."""
    if not is_descent_statistic(stat):
        raise ValueError(f"{format_stat(stat)} is not a descent statistic")
    if isinstance(stat, str):
        return STATISTICS[stat].rule
    rules = [STATISTICS[name].rule for name in stat]
    return lambda mask, length: tuple(rule(mask, length) for rule in rules)


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
