from itertools import permutations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import q_binomial_oracle
from shufbij.qpoly import (
    ZERO,
    add,
    eval_at_one,
    format_coeffs,
    format_pretty,
    gen_poly,
    mul,
    q_binomial,
    q_factorial,
    q_int,
    qp,
    shift,
    stanley_refined_rhs,
    stanley_rhs,
)
from shufbij.shuffle import shuffles, shuffles_with_k_descents


def test_q_int_and_factorial():
    assert q_int(3) == (1, 1, 1)
    assert q_int(0) == ZERO
    assert q_factorial(0) == (1,)
    assert q_factorial(3) == mul(q_int(2), q_int(3))


def test_q_binomial_golden():
    assert q_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert q_binomial(5, 0) == (1,)
    assert q_binomial(6, 2) == (1, 1, 2, 2, 3, 2, 2, 1, 1)
    with pytest.raises(ValueError):
        q_binomial(3, 4)
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


@pytest.mark.parametrize("n", range(11))
def test_q_binomial_against_subset_oracle(n):
    for k in range(n + 1):
        assert q_binomial(n, k) == q_binomial_oracle(n, k)
        assert q_binomial(n, k) == q_binomial(n, n - k)
        assert eval_at_one(q_binomial(n, k)) == comb(n, k)


def test_q_binomial_past_the_recursion_limit():
    p = q_binomial(600, 3)
    assert eval_at_one(p) == comb(600, 3)
    assert p == p[::-1]
    assert len(p) - 1 == 3 * 597


@pytest.mark.parametrize("call", [lambda: shift((1,), -1), lambda: q_int(-1),
                                  lambda: q_factorial(-1)])
def test_qpoly_refusals(call):
    with pytest.raises(ValueError, match="negative"):
        call()


def test_poly_arithmetic_canonical_form():
    assert qp([1, 0, 2, 0, 0]) == (1, 0, 2)
    assert add((1, 2), (0, -2, 3)) == (1, 0, 3)
    assert add((1, 1), (-1, -1)) == ZERO
    assert mul((1, 1), (1, 1)) == (1, 2, 1)
    assert mul(ZERO, (5, 5)) == ZERO
    assert shift((2,), 3) == (0, 0, 0, 2)
    assert shift(ZERO, 4) == ZERO


@given(
    st.lists(st.integers(-9, 9), max_size=6),
    st.lists(st.integers(-9, 9), max_size=6),
    st.lists(st.integers(-9, 9), max_size=6),
)
def test_ring_laws(a, b, c):
    a, b, c = qp(a), qp(b), qp(c)
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert eval_at_one(mul(a, b)) == eval_at_one(a) * eval_at_one(b)


def test_gen_poly_golden():
    poly = gen_poly("maj", shuffles((4, 3, 1, 2), (7, 6)))
    assert poly == (0, 0, 0, 0, 1, 1, 2, 2, 3, 2, 2, 1, 1)
    assert gen_poly("maj", [tuple(range(1, 6))]) == (1,)
    assert gen_poly("des", shuffles((1,), (2,))) == (1, 1)
    with pytest.raises(ValueError):
        gen_poly("Des", [(1, 2)])


def test_stanley_rhs_golden():
    assert stanley_rhs((4, 3, 1, 2), (7, 6)) == shift(q_binomial(6, 4), 4)
    assert stanley_rhs((1, 2), (3, 4)) == q_binomial(4, 2)
    assert stanley_rhs((3, 1, 2), ()) == shift((1,), 1)


def test_refined_rhs_golden():
    assert stanley_refined_rhs((1, 2), (3, 4), 0) == (1,)
    assert stanley_refined_rhs((1, 2), (3, 4), 9) == ZERO
    assert stanley_refined_rhs((1, 2), (3, 4), -1) == ZERO


def test_identities_small_exhaustive():
    for m, n in [(0, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]:
        for pi in permutations(range(1, m + 1)):
            for sigma in permutations(range(m + 1, m + n + 1)):
                tau_set = shuffles(pi, sigma)
                assert gen_poly("maj", tau_set) == stanley_rhs(pi, sigma)
                total = ZERO
                for k in range(m + n + 1):
                    refined = stanley_refined_rhs(pi, sigma, k)
                    assert refined == gen_poly(
                        "maj", shuffles_with_k_descents(pi, sigma, k)
                    )
                    total = add(total, refined)
                assert total == stanley_rhs(pi, sigma)


def test_word_base_identity_small():
    for m in range(5):
        for n in range(5):
            pi = tuple(range(1, m + 1))
            sigma = tuple(range(m + 1, m + n + 1))
            assert gen_poly("maj", shuffles(pi, sigma)) == q_binomial(m + n, m)


def test_formatting():
    assert format_coeffs((1, 0, 2)) == "[1,0,2]"
    assert format_pretty((1, 1, 2)) == "1 + q + 2 q^2"
    assert format_pretty(ZERO) == "0"
    assert format_pretty((0, 1)) == "q"
