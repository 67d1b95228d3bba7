"""Eulerian posets and their polynomial invariants.

The G- and H-polynomials follow Stanley's mutual recursion: for a graded
poset P of positive rank,

    H(P,t) = sum over min < x <= max of (t-1)^(rank(x)-1) * G([x,max], t),
    G(P,t) = truncation below rank(P)/2 of (1-t) * H(P,t),

with G = H = 1 in rank 0.  The two-variable B-polynomial is defined by the
convolution recursion

    sum over x of B([min,x]; u,v) * u^(d-rank(x)) * G([x,max], u^-1 v) = G(P, uv)

and is solved bottom-up.  `b_via_g` evaluates the closed-form alternating
sum over the interval and must agree with the recursion; the convolution
identity check verifies that G(_, t) and (-1)^rank G(_*, t) are convolution
inverses.  All recursions are memoized per concrete interval on the root
poset (no isomorphism detection is attempted).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NotEulerian, NotGraded
from .polynomials import (
    BivariateLaurentPolynomial,
    UnivariatePolynomial,
    truncate_below,
)


class EulerianPoset:
    """Finite graded poset with designated minimum and maximum.

    Instances are immutable; intervals share a cache dictionary with the
    root poset so polynomial recursions are computed once per concrete
    (min, max) pair.
    """

    def __init__(self, elements, covers, _shared=None):
        self.elements = tuple(elements)
        self.covers = tuple(sorted(set(covers)))
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValueError("duplicate poset elements")
        for a, b in self.covers:
            if a not in elems or b not in elems:
                raise ValueError("cover relation outside element set")
        up = {x: [] for x in self.elements}
        down = {x: [] for x in self.elements}
        for a, b in self.covers:
            up[a].append(b)
            down[b].append(a)
        minima = [x for x in self.elements if not down[x]]
        maxima = [x for x in self.elements if not up[x]]
        if len(self.elements) == 1:
            minima = maxima = list(self.elements)
        if len(minima) != 1 or len(maxima) != 1:
            raise ValueError("poset must have unique minimum and maximum")
        self.min = minima[0]
        self.max = maxima[0]
        # longest-chain ranks; gradedness demands every cover is a unit step
        rank = {self.min: 0}
        order = self._topological(up, down)
        for x in order:
            for y in up[x]:
                r = rank[x] + 1
                if rank.get(y, r) != r:
                    raise NotGraded("maximal chains of different lengths")
                rank[y] = r
        if len(rank) != len(self.elements):
            raise NotGraded("poset is not connected between min and max")
        for a, b in self.covers:
            if rank[b] != rank[a] + 1:
                raise NotGraded("maximal chains of different lengths")
        self.rank = rank
        above = {}
        for x in reversed(order):
            s = {x}
            for y in up[x]:
                s |= above[y]
            above[x] = frozenset(s)
        below = {}
        for x in order:
            s = {x}
            for y in down[x]:
                s |= below[y]
            below[x] = frozenset(s)
        self._above = above
        self._below = below
        self._shared = _shared if _shared is not None else {
            "g": {}, "h": {}, "b": {}, "eulerian": {}, "dual": None,
            "intervals": {}, "order": {x: i for i, x in enumerate(self.elements)},
            "root_covers": self.covers}

    def _topological(self, up, down):
        indeg = {x: len(down[x]) for x in self.elements}
        queue = [x for x in self.elements if indeg[x] == 0]
        order = []
        while queue:
            x = queue.pop()
            order.append(x)
            for y in up[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    queue.append(y)
        if len(order) != len(self.elements):
            raise ValueError("cover relations contain a cycle")
        return order

    # -- basic structure ----------------------------------------------------

    def total_rank(self) -> int:
        return self.rank[self.max] - self.rank[self.min]

    def le(self, x, y) -> bool:
        return y in self._above[x]

    def interval(self, x, y) -> "EulerianPoset":
        key = (x, y)
        cached = self._shared["intervals"].get(key)
        if cached is not None:
            return cached
        if not self.le(x, y):
            raise ValueError(f"{x!r} is not below {y!r}")
        members = self._above[x] & self._below[y]
        order = self._shared["order"]
        covers = [(a, b) for a, b in self.covers if a in members and b in members]
        sub = EulerianPoset(sorted(members, key=order.__getitem__),
                            covers, _shared=self._shared)
        self._shared["intervals"][key] = sub
        return sub

    def dual(self) -> "EulerianPoset":
        """Materialized dual: order reversed, rank complemented."""
        if self._shared["dual"] is None:
            order = self._shared["order"]
            rev = [(b, a) for a, b in self._shared["root_covers"]]
            root_elems = sorted(order, key=order.__getitem__)
            self._shared["dual"] = EulerianPoset(list(reversed(root_elems)), rev)
        return self._shared["dual"].interval(self.max, self.min)

    # -- Eulerian test ------------------------------------------------------

    def is_eulerian(self) -> bool:
        key = (self.min, self.max)
        cached = self._shared["eulerian"].get(key)
        if cached is None:
            cached = self._check_eulerian()
            self._shared["eulerian"][key] = cached
        return cached

    def _check_eulerian(self) -> bool:
        for x in self.elements:
            for y in self._above[x]:
                if self.rank[y] - self.rank[x] < 1:
                    continue
                members = self._above[x] & self._below[y]
                balance = sum(1 if (self.rank[z] & 1) == 0 else -1
                              for z in members)
                if balance != 0:
                    return False
        return True


def is_eulerian(p: EulerianPoset) -> bool:
    """True iff every nontrivial interval balances even and odd ranks."""
    return p.is_eulerian()


def _require_eulerian(p: EulerianPoset) -> None:
    if not p.is_eulerian():
        raise NotEulerian("poset is not Eulerian")


def h_polynomial(p: EulerianPoset) -> UnivariatePolynomial:
    _require_eulerian(p)
    return _h(p)


def g_polynomial(p: EulerianPoset) -> UnivariatePolynomial:
    _require_eulerian(p)
    return _g(p)


def _h(p: EulerianPoset) -> UnivariatePolynomial:
    key = (p.min, p.max)
    cached = p._shared["h"].get(key)
    if cached is not None:
        return cached
    d = p.total_rank()
    if d == 0:
        result = UnivariatePolynomial.one()
    else:
        base = p.rank[p.min]
        result = UnivariatePolynomial.zero()
        for x in p.elements:
            if x == p.min:
                continue
            result = result + _t_minus_1_power(p.rank[x] - base - 1) \
                * _g(p.interval(x, p.max))
    p._shared["h"][key] = result
    return result


@lru_cache(maxsize=None)
def _t_minus_1_power(k: int) -> UnivariatePolynomial:
    """(t-1)^k, computed once per exponent for every H recursion."""
    return UnivariatePolynomial({0: -1, 1: 1}) ** k


def _g(p: EulerianPoset) -> UnivariatePolynomial:
    key = (p.min, p.max)
    cached = p._shared["g"].get(key)
    if cached is not None:
        return cached
    d = p.total_rank()
    if d == 0:
        result = UnivariatePolynomial.one()
    else:
        one_minus_t = UnivariatePolynomial({0: 1, 1: -1})
        result = truncate_below(one_minus_t * _h(p), Fraction(d, 2))
    p._shared["g"][key] = result
    return result


def b_polynomial(p: EulerianPoset) -> BivariateLaurentPolynomial:
    """Two-variable invariant solved bottom-up from its convolution
    recursion against G."""
    _require_eulerian(p)
    return _b(p)


def _b(p: EulerianPoset) -> BivariateLaurentPolynomial:
    key = (p.min, p.max)
    cached = p._shared["b"].get(key)
    if cached is not None:
        return cached
    d = p.total_rank()
    if d == 0:
        result = BivariateLaurentPolynomial.one()
    else:
        base = p.rank[p.min]
        result = _g(p).to_bivariate(1, 1)  # G(P, uv)
        for x in p.elements:
            if x == p.max:
                continue
            lower = _b(p.interval(p.min, x))
            upper = _g(p.interval(x, p.max)).to_bivariate(-1, 1)  # t -> v/u
            power = BivariateLaurentPolynomial.monomial(
                d - (p.rank[x] - base), 0)
            result = result - lower * power * upper
    p._shared["b"][key] = result
    return result


def b_via_g(p: EulerianPoset) -> BivariateLaurentPolynomial:
    """Closed-form alternating sum for the B-polynomial:
    sum over x of G([x,max]*, v/u) * (-u)^(rank(max)-rank(x)) * G([min,x], uv)."""
    _require_eulerian(p)
    d = p.total_rank()
    base = p.rank[p.min]
    total = BivariateLaurentPolynomial.zero()
    for x in p.elements:
        k = d - (p.rank[x] - base)
        upper_dual = p.interval(x, p.max).dual()
        term = _g(upper_dual).to_bivariate(-1, 1)
        term = term * BivariateLaurentPolynomial.monomial(k, 0, (-1) ** k)
        term = term * _g(p.interval(p.min, x)).to_bivariate(1, 1)
        total = total + term
    return total


def convolution_inverse_check(p: EulerianPoset) -> bool:
    """Both convolution identities: G(_, t) and (-1)^rank G(_*, t) must be
    two-sided inverses under the poset convolution product."""
    _require_eulerian(p)
    if p.total_rank() < 1:
        raise ValueError("convolution check needs positive rank")
    base = p.rank[p.min]
    first = UnivariatePolynomial.zero()
    second = UnivariatePolynomial.zero()
    for x in p.elements:
        k = p.rank[x] - base
        lower = p.interval(p.min, x)
        upper = p.interval(x, p.max)
        first = first + (-1) ** k * (_g(lower.dual()) * _g(upper))
        second = second + (-1) ** (p.total_rank() - k) * (_g(lower) * _g(upper.dual()))
    return first.is_zero() and second.is_zero()


def boolean_lattice(n: int) -> EulerianPoset:
    """Lattice of subsets of an n-set ordered by inclusion."""
    elements = []
    for mask in range(1 << n):
        elements.append(frozenset(i for i in range(n) if mask >> i & 1))
    covers = []
    for s in elements:
        for i in range(n):
            if i not in s:
                covers.append((s, s | {i}))
    elements.sort(key=lambda s: (len(s), sorted(s)))
    return EulerianPoset(elements, covers)


def poset_of_face_lattice(fl) -> EulerianPoset:
    """Face lattice as an EulerianPoset on generator-index frozensets."""
    elements = [f.gen_indices for f in fl.faces]
    covers = [(fl.faces[i].gen_indices, fl.faces[j].gen_indices)
              for i, j in fl.covers]
    return EulerianPoset(elements, covers)
