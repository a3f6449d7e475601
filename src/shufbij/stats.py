"""Permutation statistics, tuple statistics, and distributions.

Statistics are addressed by name (``"maj"``, ``"Des"``, ...) or by a tuple
of names such as ``("maj", "des")``, which evaluates componentwise.  Values
are plain integers, frozensets of 1-based positions, or tuples of values;
a distribution is a ``collections.Counter`` over such values.

Every statistic in the catalog except ``inv`` is a descent statistic: its
value is determined by the descent set and the length.  Each one therefore
carries, besides its direct code on a permutation, a rule that reads the
value off a descent bitmask (bit d set when position d is a descent) and
the length; the peak and valley families read theirs through one sentinel
helper, :func:`_turns`.  :func:`evaluate` runs the direct code on real
permutations; the shuffle-set engine (:mod:`shufbij.shuffle`) runs the
rules on the bitmasks of its transfer-matrix histogram.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .perm import Perm

StatId = Union[str, tuple]
StatValue = Union[int, frozenset, tuple]
Distribution = Counter


def des_set(pi: Perm) -> frozenset[int]:
    """Positions i with pi_i > pi_{i+1}."""
    return frozenset(i for i in range(1, len(pi)) if pi[i - 1] > pi[i])


def asc_set(pi: Perm) -> frozenset[int]:
    """Positions i with pi_i < pi_{i+1}."""
    return frozenset(i for i in range(1, len(pi)) if pi[i - 1] < pi[i])


def maj(pi: Perm) -> int:
    """Sum of the descent positions."""
    return sum(des_set(pi))


def inv(pi: Perm) -> int:
    """Number of out-of-order pairs.  Not a descent statistic."""
    m = len(pi)
    return sum(1 for i in range(m) for j in range(i + 1, m) if pi[i] > pi[j])


PEAK_VARIANTS = ("interior", "left", "right", "exterior")


def peak_family(pi: Perm, variant: str) -> frozenset[int]:
    """Peak set of ``pi`` with optional low sentinels at either end.

    ``interior`` uses no sentinels, ``left``/``right``/``exterior`` treat a
    value below everything as sitting before position 1 and/or after
    position m.
    """
    if variant not in PEAK_VARIANTS:
        raise ValueError(f"unknown peak variant {variant!r}")
    m = len(pi)
    peaks = {i for i in range(2, m) if pi[i - 2] < pi[i - 1] > pi[i]}
    if variant in ("left", "exterior") and m >= 2 and pi[0] > pi[1]:
        peaks.add(1)
    if variant in ("right", "exterior") and m >= 2 and pi[m - 2] < pi[m - 1]:
        peaks.add(m)
    if variant == "exterior" and m == 1:
        peaks.add(1)
    return frozenset(peaks)


def valley_family(pi: Perm, variant: str) -> frozenset[int]:
    """Valley set of ``pi``, the mirror of :func:`peak_family` with high
    sentinels: the peaks of the negated permutation."""
    return peak_family(tuple(-v for v in pi), variant)


def chi_minus(pi: Perm) -> int:
    """1 when position 1 is a descent."""
    return 1 if len(pi) >= 2 and pi[0] > pi[1] else 0


def chi_plus(pi: Perm) -> int:
    """1 when the last position is an ascent."""
    return 1 if len(pi) >= 2 and pi[-2] < pi[-1] else 0


def biruns(pi: Perm) -> int:
    """Number of maximal strictly monotone factors.

    Adjacent factors share an endpoint; for length >= 2 this equals the
    number of maximal constant runs in the ascent/descent pattern.
    """
    m = len(pi)
    if m == 0:
        return 0
    if m == 1:
        return 1
    runs = 1
    for i in range(1, m - 1):
        if (pi[i - 1] < pi[i]) != (pi[i] < pi[i + 1]):
            runs += 1
    return runs


def udr(pi: Perm) -> int:
    """Number of maximal monotone factors after a low value is prepended."""
    if not pi:
        return 0
    return biruns((0,) + pi)


def _positions(mask: int) -> frozenset[int]:
    """The set bits of ``mask``, as positions."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


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


@dataclass(frozen=True)
class StatDef:
    """``func`` evaluates a permutation; ``rule(mask, length)`` reads the
    value off a descent bitmask, and is None for a statistic that is not
    a descent statistic."""

    func: Callable[[Perm], StatValue]
    rule: Optional[Callable[[int, int], StatValue]]
    integer_valued: bool

    @property
    def descent_statistic(self) -> bool:
        return self.rule is not None


def _turn_stat(peak: bool, variant: str, count: bool) -> StatDef:
    """The peak (or valley) set or count with the sentinels of ``variant``."""
    family = peak_family if peak else valley_family
    left, right = variant in ("left", "exterior"), variant in ("right", "exterior")
    if count:
        return StatDef(
            lambda p: len(family(p, variant)),
            lambda mask, length: _turns(mask, length, peak, left, right).bit_count(),
            True,
        )
    return StatDef(
        lambda p: family(p, variant),
        lambda mask, length: _positions(_turns(mask, length, peak, left, right)),
        False,
    )


STATISTICS: dict[str, StatDef] = {
    "Des": StatDef(des_set, lambda mask, length: _positions(mask), False),
    "des": StatDef(lambda p: len(des_set(p)), lambda mask, length: mask.bit_count(), True),
    "Asc": StatDef(asc_set, lambda mask, length: _positions(_inner(length) & ~mask), False),
    "asc": StatDef(
        lambda p: len(asc_set(p)), lambda mask, length: (_inner(length) & ~mask).bit_count(), True
    ),
    "maj": StatDef(maj, lambda mask, length: sum(_positions(mask)), True),
    "inv": StatDef(inv, None, True),
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
    "chi_minus": StatDef(chi_minus, lambda mask, length: mask >> 1 & 1, True),
    "chi_plus": StatDef(
        chi_plus, lambda mask, length: int(length >= 2 and not mask >> (length - 1) & 1), True
    ),
    # a low value prepended: one more position, and a first step that rises
    "udr": StatDef(
        udr, lambda mask, length: _biruns(mask << 1, length + 1) if length else 0, True
    ),
    "biruns": StatDef(biruns, _biruns, True),
}


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
    """Evaluate a statistic; tuple ids evaluate componentwise in order."""
    stat = validate_stat(stat)
    if isinstance(stat, str):
        return STATISTICS[stat].func(pi)
    return tuple(STATISTICS[name].func(pi) for name in stat)


def descent_rule(stat: StatId) -> Callable[[int, int], StatValue]:
    """The rule ``(mask, length) -> value`` of a descent statistic; a tuple
    id reads its components off the same mask, in order."""
    if not is_descent_statistic(stat):
        raise ValueError(f"{format_stat(stat)} is not a descent statistic")
    if isinstance(stat, str):
        return STATISTICS[stat].rule
    rules = [STATISTICS[name].rule for name in stat]
    return lambda mask, length: tuple(rule(mask, length) for rule in rules)


def evaluate_descent_class(stat: StatId, descents: frozenset[int], length: int) -> StatValue:
    """Value of a descent statistic on every permutation of ``length`` with
    descent set ``descents``, read off the descent set by its rule."""
    rule = descent_rule(stat)
    if descents and not 0 < min(descents) <= max(descents) < length:
        raise ValueError(f"descent set {sorted(descents)} not within 1..{length - 1}")
    return rule(sum(1 << d for d in descents), length)


def distribution(stat: StatId, perms: Iterable[Perm]) -> Distribution:
    """Multiset of statistic values over a collection of permutations."""
    stat = validate_stat(stat)
    return Counter(evaluate(stat, pi) for pi in perms)


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
