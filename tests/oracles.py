"""Independent brute-force oracles.

Everything here recomputes values straight from first principles, by
literal enumeration, so the tests never check an implementation against
itself: peak oracles build the extended sequence with explicit sentinels,
the birun oracle enumerates all factors and keeps the maximal monotone
ones, the space-label oracle reads each label off the major-index jump of
an actual insertion, and the q-binomial oracle sums q^(subset sum) over
k-subsets.
"""

from fractions import Fraction
from itertools import combinations

BIG = Fraction(10**9)


def interior_positions(ext):
    return [j for j in range(1, len(ext) - 1) if ext[j - 1] < ext[j] > ext[j + 1]]


def pk_set_oracle(pi):
    return {j + 1 for j in interior_positions(list(pi))}


def lpk_set_oracle(pi):
    return set(interior_positions([0, *pi]))


def rpk_set_oracle(pi):
    return {j + 1 for j in interior_positions([*pi, 0])}


def epk_set_oracle(pi):
    return set(interior_positions([0, *pi, 0]))


def _valley_positions(ext):
    return [j for j in range(1, len(ext) - 1) if ext[j - 1] > ext[j] < ext[j + 1]]


def val_set_oracle(pi):
    return {j + 1 for j in _valley_positions(list(pi))}


def lval_set_oracle(pi):
    return set(_valley_positions([BIG, *pi]))


def rval_set_oracle(pi):
    return {j + 1 for j in _valley_positions([*pi, BIG])}


def eval_set_oracle(pi):
    return set(_valley_positions([BIG, *pi, BIG]))


def des_set_oracle(pi):
    return {i for i in range(1, len(pi)) if pi[i - 1] > pi[i]}


def maj_oracle(pi):
    return sum(des_set_oracle(pi))


def inv_oracle(pi):
    return sum(
        1 for i in range(len(pi)) for j in range(i + 1, len(pi)) if pi[i] > pi[j]
    )


def _monotone(factor):
    if len(factor) <= 1:
        return True
    ups = all(factor[i] < factor[i + 1] for i in range(len(factor) - 1))
    downs = all(factor[i] > factor[i + 1] for i in range(len(factor) - 1))
    return ups or downs


def biruns_oracle(seq):
    """Count factors that are strictly monotone and extendable neither left
    nor right."""
    m = len(seq)
    count = 0
    for i in range(m):
        for j in range(i, m):
            f = seq[i : j + 1]
            if not _monotone(f):
                continue
            if i > 0 and _monotone(seq[i - 1 : j + 1]):
                continue
            if j < m - 1 and _monotone(seq[i : j + 2]):
                continue
            count += 1
    return count


def udr_oracle(pi):
    if not pi:
        return 0
    return biruns_oracle((0,) + tuple(pi))


def space_labels_oracle(pi):
    """Label of gap g = the major-index jump caused by inserting a fresh
    maximum positionally into gap g."""
    new_max = max(pi) + 1
    base = maj_oracle(pi)
    out = []
    for g in range(len(pi) + 1):
        extended = tuple(pi[:g]) + (new_max,) + tuple(pi[g:])
        out.append(maj_oracle(extended) - base)
    return tuple(out)


def shuffle_set_oracle(pi, sigma):
    """All interleavings by recursive merge; returned as a set."""
    pi, sigma = tuple(pi), tuple(sigma)
    if not pi:
        return {sigma}
    if not sigma:
        return {pi}
    first = {(pi[0],) + rest for rest in shuffle_set_oracle(pi[1:], sigma)}
    second = {(sigma[0],) + rest for rest in shuffle_set_oracle(pi, sigma[1:])}
    return first | second


def q_binomial_oracle(n, k):
    """Coefficient list of the Gaussian binomial via subset-sum counting."""
    base = k * (k + 1) // 2
    coeffs = [0] * (k * (n - k) + 1)
    for subset in combinations(range(1, n + 1), k):
        coeffs[sum(subset) - base] += 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def all_perms_of(values):
    from itertools import permutations

    return [tuple(p) for p in permutations(sorted(values))]


def rename_in_order(tau, old, new):
    """Replace the entries of ``tau`` that lie in ``old``, in the order they
    occur, by the entries of ``new``: a side renamed by position."""
    rep = iter(new).__next__
    return tuple([rep() if v in old else v for v in tau])
