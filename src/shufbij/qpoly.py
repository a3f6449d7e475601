"""Exact integer polynomials in one variable q.

A polynomial is a tuple of coefficients in ascending degree with no
trailing zeros; the zero polynomial is the empty tuple.  Everything is
exact integer arithmetic; q-binomials are built by the Pascal recurrence,
never by division or floating point.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from .perm import Perm, _check_disjoint
from .stats import (
    Distribution,
    StatId,
    des_set,
    distribution,
    is_integer_valued,
    maj,
    validate_stat,
)

QPoly = tuple[int, ...]

ZERO: QPoly = ()
ONE: QPoly = (1,)


def qp(coeffs: Iterable[int]) -> QPoly:
    """Canonicalize a coefficient sequence (strip trailing zeros)."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def add(p: QPoly, q: QPoly) -> QPoly:
    n = max(len(p), len(q))
    return qp((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def mul(p: QPoly, q: QPoly) -> QPoly:
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return qp(out)


def shift(p: QPoly, k: int) -> QPoly:
    """Multiply by q^k."""
    if k < 0:
        raise ValueError("negative shift")
    return ((0,) * k + p) if p else ZERO


def eval_at_one(p: QPoly) -> int:
    return sum(p)


def q_int(n: int) -> QPoly:
    """1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("negative argument")
    return qp([1] * n)


def q_factorial(n: int) -> QPoly:
    if n < 0:
        raise ValueError("negative argument")
    out = ONE
    for i in range(1, n + 1):
        out = mul(out, q_int(i))
    return out


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient, by the Pascal recurrence."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"invalid q-binomial indices ({n}, {k})")
    if k == 0 or k == n:
        return ONE
    return add(q_binomial(n - 1, k - 1), shift(q_binomial(n - 1, k), k))


def _q_binomial_or_zero(n: int, k: int) -> QPoly:
    if k < 0 or k > n:
        return ZERO
    return q_binomial(n, k)


def check_integer_stat(stat: StatId) -> StatId:
    """Refuse a statistic that has no generating polynomial."""
    stat = validate_stat(stat)
    if not is_integer_valued(stat):
        raise ValueError(f"generating polynomial needs an integer statistic, got {stat!r}")
    return stat


def distribution_poly(dist: Distribution) -> QPoly:
    """Sum of count * q^value over a distribution of an integer statistic."""
    coeffs = [0] * (max(dist, default=-1) + 1)
    for value, count in dist.items():
        coeffs[value] += count
    return qp(coeffs)


def gen_poly(stat: StatId, perms: Iterable[Perm]) -> QPoly:
    """Sum of q^stat over a collection of permutations."""
    return distribution_poly(distribution(check_integer_stat(stat), perms))


def stanley_rhs(pi: Perm, sigma: Perm) -> QPoly:
    """Closed form for the maj generating polynomial over all interleavings:
    q^(maj pi + maj sigma) times the q-binomial of the lengths."""
    _check_disjoint(pi, sigma)
    m, n = len(pi), len(sigma)
    return shift(q_binomial(m + n, m), maj(pi) + maj(sigma))


@lru_cache(maxsize=1024)
def _refined_forms(m: int, n: int, dp: int, ds: int) -> tuple[QPoly, ...]:
    """The refined closed forms for k = 0..m+n, before the shift by
    maj pi + maj sigma, for operands of lengths m, n with dp and ds
    descents."""
    forms = []
    for k in range(m + n + 1):
        left = _q_binomial_or_zero(m - dp + ds, k - dp)
        right = _q_binomial_or_zero(n - ds + dp, k - ds)
        forms.append(shift(mul(left, right), (k - dp) * (k - ds)) if left and right else ZERO)
    return tuple(forms)


def stanley_refined_rhs(pi: Perm, sigma: Perm, k: int) -> QPoly:
    """Closed form for the maj generating polynomial over interleavings with
    exactly k descents; zero when no interleaving has k descents."""
    table = stanley_refined_table(pi, sigma)
    return table[k] if 0 <= k < len(table) else ZERO


@lru_cache(maxsize=32)
def stanley_refined_table(pi: Perm, sigma: Perm) -> tuple[QPoly, ...]:
    """:func:`stanley_refined_rhs` for k = 0..m+n, the operands' descent
    counts and major indices read once.  The last few tables are kept, as
    :func:`stanley_refined_rhs` reads one entry per call."""
    _check_disjoint(pi, sigma)
    forms = _refined_forms(len(pi), len(sigma), len(des_set(pi)), len(des_set(sigma)))
    maj_sum = maj(pi) + maj(sigma)
    return tuple(shift(form, maj_sum) for form in forms)


def format_coeffs(p: QPoly) -> str:
    """Ascending coefficient list, e.g. ``[1,1,2]``."""
    return "[" + ",".join(str(c) for c in p) + "]"


def format_pretty(p: QPoly) -> str:
    """Human-readable form, e.g. ``1 + q + 2 q^2``."""
    if not p:
        return "0"
    terms = []
    for e, c in enumerate(p):
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            qpow = "q" if e == 1 else f"q^{e}"
            terms.append(qpow if c == 1 else f"{c} {qpow}")
    return " + ".join(terms)
