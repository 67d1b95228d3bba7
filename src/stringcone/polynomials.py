"""Exact polynomial arithmetic in one and two variables.

Two immutable value types cover every polynomial in the package:

* :class:`UnivariatePolynomial` — a dense tuple of integer coefficients
  indexed by exponent; used for S-, G-, H- and Hilbert-style series data.
* :class:`BivariateLaurentPolynomial` — integer coefficients indexed by
  (possibly negative) exponent pairs of the two formal variables u, v;
  the universal value type for E-functions and B-polynomials.

Coefficients are Python integers, so all arithmetic is exact.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Mapping

from .errors import DivisionNotExact


class UnivariatePolynomial:
    """Polynomial in one variable t with integer coefficients: coeffs[k]
    is the coefficient of t^k, with no trailing zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n])

    @classmethod
    def zero(cls) -> "UnivariatePolynomial":
        return cls()

    @classmethod
    def one(cls) -> "UnivariatePolynomial":
        return cls((1,))

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def coeff_list(self, upto: int | None = None) -> list[int]:
        n = self.degree() if upto is None else upto
        head = list(self.coeffs[:max(n + 1, 0)])
        return head + [0] * (n + 1 - len(head))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, UnivariatePolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        return UnivariatePolynomial(
            a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __neg__(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial(-c for c in self.coeffs)

    def __sub__(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return UnivariatePolynomial(c * other for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UnivariatePolynomial(out)

    __rmul__ = __mul__

    def is_palindromic(self, n: int) -> bool:
        """Whether p(t) == t^n p(1/t)."""
        padded = self.coeff_list(n)
        return self.degree() <= n and padded == padded[::-1]

    def to_bivariate(self, u_exp: int, v_exp: int) -> "BivariateLaurentPolynomial":
        """Substitute t -> u^u_exp * v^v_exp."""
        out: dict[tuple[int, int], int] = {}
        for k, c in enumerate(self.coeffs):
            key = (u_exp * k, v_exp * k)
            out[key] = out.get(key, 0) + c
        return BivariateLaurentPolynomial(out)

    def __repr__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            else:
                mono = "t" if k == 1 else f"t^{k}"
                parts.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


class BivariateLaurentPolynomial:
    """Sparse Laurent polynomial in u, v with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        cleaned = {k: int(c) for k, c in (terms or {}).items() if c != 0}
        object.__setattr__(self, "terms", dict(sorted(cleaned.items())))

    @classmethod
    def zero(cls) -> "BivariateLaurentPolynomial":
        return cls({})

    @classmethod
    def one(cls) -> "BivariateLaurentPolynomial":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 1) -> "BivariateLaurentPolynomial":
        return cls({(a, b): c})

    def __eq__(self, other) -> bool:
        return (isinstance(other, BivariateLaurentPolynomial)
                and self.terms == other.terms)

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BivariateLaurentPolynomial(out)

    def __neg__(self):
        return BivariateLaurentPolynomial({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BivariateLaurentPolynomial(
                {k: c * other for k, c in self.terms.items()})
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return BivariateLaurentPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivariateLaurentPolynomial":
        if n < 0:
            raise ValueError("negative power")
        result = BivariateLaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divide_by_monomial(self, a: int, b: int) -> "BivariateLaurentPolynomial":
        """Exact division by u^a v^b (a plain exponent shift for Laurent terms)."""
        return BivariateLaurentPolynomial(
            {(x - a, y - b): c for (x, y), c in self.terms.items()})

    def require_polynomial(self) -> "BivariateLaurentPolynomial":
        """Assert there are no negative exponents left after cancellations."""
        for (a, b) in self.terms:
            if a < 0 or b < 0:
                raise DivisionNotExact(
                    f"term u^{a} v^{b} has a negative exponent")
        return self

    def __repr__(self) -> str:
        if not self.terms:
            return "0"

        def mono(a, b):
            parts = []
            if a:
                parts.append("u" if a == 1 else f"u^{a}")
            if b:
                parts.append("v" if b == 1 else f"v^{b}")
            return "*".join(parts)

        parts = []
        for (a, b), c in self.terms.items():
            m = mono(a, b)
            if not m:
                parts.append(str(c))
            elif c == 1:
                parts.append(m)
            elif c == -1:
                parts.append(f"-{m}")
            else:
                parts.append(f"{c}*{m}")
        return " + ".join(parts).replace("+ -", "- ")
