"""Exception types shared across the package, and the size bounds that
raise :class:`ResourceLimitError`: one per scan engine (class-pair tables
for a descent statistic, shuffle sets with ``inv``) and one per shuffle set.

The bounds live here, not in ``verify``, so that the command-line parser
and the shuffle-set commands read them without importing the
verification layer; ``verify`` imports them back.
"""

import os

ENV_LIMIT_VAR = "SHUFBIJ_MAX_TOTAL"
DEFAULT_CLASS_LIMIT = 10  # a scan of a descent statistic: one class-pair table per shape
DEFAULT_ENUM_LIMIT = 6  # a scan of a statistic with inv: it enumerates shuffle sets
DEFAULT_SHUFFLE_LIMIT = 20  # one shuffle set of C(20, 10) = 184,756 interleavings
_RAISE_LIMIT = f"pass a larger limit (--limit) or set {ENV_LIMIT_VAR}"


class DomainOverlapError(ValueError):
    """Two permutations that must have disjoint domains share an element."""


class NotAShuffleError(ValueError):
    """A permutation is not an interleaving of the given pair."""


class InfeasibleProfileError(ValueError):
    """No permutation realizes the requested statistic profile."""


class ResourceLimitError(RuntimeError):
    """A verification request exceeds the configured size bound.

    Raised instead of silently truncating the search; the message states
    the bound and how to raise it.
    """


def _resolve_limit(explicit: int | None, fallback: int) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(ENV_LIMIT_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ResourceLimitError(f"{ENV_LIMIT_VAR}={env!r} is not an integer") from None
    return fallback


def _gate(m: int, n: int, limit: int, what: str, how: str = _RAISE_LIMIT) -> None:
    """Refuse negative sizes, and m+n above ``limit``; ``how`` names the
    ways the caller has to raise the bound."""
    if m < 0 or n < 0:
        raise ValueError("sizes must be nonnegative")
    if m + n > limit:
        raise ResourceLimitError(
            f"{what} with m+n={m + n} exceeds the bound {limit}; {how} to allow it"
        )
