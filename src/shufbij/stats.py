"""Permutation statistics, tuple statistics, and distributions.

Statistics are addressed by name (``"maj"``, ``"Des"``, ...) or by a tuple
of names such as ``("maj", "des")``, which evaluates componentwise.  Values
are plain integers, frozensets of 1-based positions, or tuples of values;
a distribution is a ``collections.Counter`` over such values.

Every statistic in the catalog except ``inv`` is a descent statistic: its
value is determined by the descent set and the length.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable, Union

from .perm import Perm, least_with_descent_set

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


@dataclass(frozen=True)
class StatDef:
    func: Callable[[Perm], StatValue]
    descent_statistic: bool
    integer_valued: bool


STATISTICS: dict[str, StatDef] = {
    "Des": StatDef(des_set, True, False),
    "des": StatDef(lambda p: len(des_set(p)), True, True),
    "Asc": StatDef(asc_set, True, False),
    "asc": StatDef(lambda p: len(asc_set(p)), True, True),
    "maj": StatDef(maj, True, True),
    "inv": StatDef(inv, False, True),
    "Pk": StatDef(lambda p: peak_family(p, "interior"), True, False),
    "pk": StatDef(lambda p: len(peak_family(p, "interior")), True, True),
    "Val": StatDef(lambda p: valley_family(p, "interior"), True, False),
    "val": StatDef(lambda p: len(valley_family(p, "interior")), True, True),
    "Lpk": StatDef(lambda p: peak_family(p, "left"), True, False),
    "lpk": StatDef(lambda p: len(peak_family(p, "left")), True, True),
    "Rpk": StatDef(lambda p: peak_family(p, "right"), True, False),
    "rpk": StatDef(lambda p: len(peak_family(p, "right")), True, True),
    "Epk": StatDef(lambda p: peak_family(p, "exterior"), True, False),
    "epk": StatDef(lambda p: len(peak_family(p, "exterior")), True, True),
    "Lval": StatDef(lambda p: valley_family(p, "left"), True, False),
    "lval": StatDef(lambda p: len(valley_family(p, "left")), True, True),
    "Rval": StatDef(lambda p: valley_family(p, "right"), True, False),
    "rval": StatDef(lambda p: len(valley_family(p, "right")), True, True),
    "Eval": StatDef(lambda p: valley_family(p, "exterior"), True, False),
    "eval": StatDef(lambda p: len(valley_family(p, "exterior")), True, True),
    "chi_minus": StatDef(chi_minus, True, True),
    "chi_plus": StatDef(chi_plus, True, True),
    "udr": StatDef(udr, True, True),
    "biruns": StatDef(biruns, True, True),
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


def evaluate_descent_class(stat: StatId, descents: frozenset[int], length: int) -> StatValue:
    """Value of a descent statistic on every permutation of ``length`` with
    descent set ``descents``, read off the least member of that class."""
    if not is_descent_statistic(stat):
        raise ValueError(f"{format_stat(stat)} is not a descent statistic")
    return evaluate(stat, least_with_descent_set(range(1, length + 1), descents))


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
