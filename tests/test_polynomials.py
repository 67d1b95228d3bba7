"""Sparse exact polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stringcone.errors import DivisionNotExact
from stringcone.polynomials import (
    BivariateLaurentPolynomial as B,
    UnivariatePolynomial as U,
    truncate_below,
)

bivariate = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.integers(-999, 999), max_size=8).map(B)

univariate = st.dictionaries(
    st.integers(0, 9), st.integers(-999, 999), max_size=7).map(U)


@given(bivariate, bivariate, bivariate)
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + B.zero() == a
    assert a * B.one() == a
    assert a - a == B.zero()


@given(univariate, univariate)
@settings(max_examples=80, deadline=None)
def test_univariate_ring(a, b):
    assert a * b == b * a
    assert (a + b) - b == a
    assert (a * b)(3) == a(3) * b(3)


def test_truncate_below():
    assert truncate_below(U({0: 1, 2: -1}), 1) == U({0: 1})
    assert truncate_below(U({0: 1, 1: 1, 2: 1}), Fraction(3, 2)) == \
        U({0: 1, 1: 1})
    assert truncate_below(U.zero(), 5) == U.zero()


@given(univariate, st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_truncation_splits_polynomial(p, r):
    low = truncate_below(p, r)
    assert low + (p - low) == p
    assert all(k < r for k in low.coeffs)


def test_palindromicity_helper():
    assert U({0: 1, 1: 2, 2: 1}).is_palindromic(2)
    assert not U({0: 1, 1: 2}).is_palindromic(2)
    assert U({1: 1, 2: 1}).is_palindromic(3)
    assert U.zero().is_palindromic(0)


def test_reversal_and_negative_exponent_guard():
    p = U({0: 1, 1: 2})
    assert p.reversed(2) == U({1: 2, 2: 1})
    with pytest.raises(ValueError):
        p.reversed(0)
    with pytest.raises(ValueError):
        U({-1: 1})


def test_monomial_division_exactness():
    p = B({(1, 1): 1, (2, 2): 3})
    assert p.divide_by_monomial(1, 1) == B({(0, 0): 1, (1, 1): 3})
    with pytest.raises(DivisionNotExact):
        B({(0, 1): 1}).divide_by_monomial(1, 1).require_polynomial()


def test_powers_and_degree():
    t = U.t()
    assert (U.one() + t) ** 3 == U({0: 1, 1: 3, 2: 3, 3: 1})
    assert t.degree() == 1 and U.zero().degree() == -1
    uv = B.monomial(1, 1)
    assert uv ** 4 == B.monomial(4, 4)
