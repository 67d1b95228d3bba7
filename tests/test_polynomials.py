"""Exact polynomial arithmetic: dense univariate, sparse Laurent."""

import pytest
from hypothesis import given, settings, strategies as st

from stringcone.errors import DivisionNotExact
from stringcone.polynomials import (
    BivariateLaurentPolynomial as B,
    UnivariatePolynomial as U,
)

bivariate = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.integers(-999, 999), max_size=8).map(B)

# coefficient sequences, trailing zeros included
coefficients = st.lists(st.integers(-999, 999), max_size=8)


def sparse(coeffs):
    """{exponent: coefficient} of the nonzero terms."""
    return {k: c for k, c in enumerate(coeffs) if c}


def sparse_add(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def sparse_mul(p, q):
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def sparse_palindromic(p, n):
    return all(k <= n for k in p) and p == {n - k: c for k, c in p.items()}


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


@given(coefficients, coefficients)
@settings(max_examples=120, deadline=None)
def test_univariate_ring(a, b):
    p, q = U(a), U(b)
    assert sparse(p.coeffs) == sparse(a)
    assert not p.coeffs or p.coeffs[-1] != 0  # no trailing zero
    assert sparse((p + q).coeffs) == sparse_add(sparse(a), sparse(b))
    assert sparse((p * q).coeffs) == sparse_mul(sparse(a), sparse(b))
    assert sparse((3 * p).coeffs) == sparse_mul(sparse(a), {0: 3})
    assert p * q == q * p
    assert (p + q) - q == p
    assert p * U.one() == p and p + U.zero() == p


@given(coefficients, st.integers(0, 9))
@settings(max_examples=120, deadline=None)
def test_palindromicity_matches_reference(a, n):
    assert U(a).is_palindromic(n) == sparse_palindromic(sparse(a), n)


def test_palindromicity_helper():
    assert U((1, 2, 1)).is_palindromic(2)
    assert not U((1, 2)).is_palindromic(2)
    assert U((0, 1, 1)).is_palindromic(3)
    assert not U((1, 0, 1)).is_palindromic(1)
    assert U.zero().is_palindromic(0)


def test_monomial_division_exactness():
    p = B({(1, 1): 1, (2, 2): 3})
    assert p.divide_by_monomial(1, 1) == B({(0, 0): 1, (1, 1): 3})
    with pytest.raises(DivisionNotExact):
        B({(0, 1): 1}).divide_by_monomial(1, 1).require_polynomial()


def test_powers_and_degree():
    one_plus_t = U((1, 1))
    assert one_plus_t * one_plus_t * one_plus_t == U((1, 3, 3, 1))
    assert one_plus_t.degree() == 1 and U.zero().degree() == -1
    assert U((0, 0, 5, 0, 0)).degree() == 2
    uv = B.monomial(1, 1)
    assert uv ** 4 == B.monomial(4, 4)


def test_coefficients_and_text():
    p = U((0, -1, 0, 3))
    assert p.coeff(1) == -1 and p.coeff(2) == 0 and p.coeff(7) == 0
    assert p.coeff_list() == [0, -1, 0, 3]
    assert p.coeff_list(5) == [0, -1, 0, 3, 0, 0]
    assert p.coeff_list(1) == [0, -1]
    assert repr(p) == "-t + 3*t^3"
    assert repr(U((2, 1, -2))) == "2 + t - 2*t^2"
    assert repr(U.zero()) == "0"
    assert p.to_bivariate(-1, 1) == B({(-1, 1): -1, (-3, 3): 3})
