"""Eulerian posets and their polynomial invariants.

The G- and H-polynomials follow Stanley's mutual recursion: for a graded
poset P of positive rank,

    H(P,t) = sum over min < x <= max of (t-1)^(rank(x)-1) * G([x,max], t),
    G(P,t) = truncation below rank(P)/2 of (1-t) * H(P,t),

with G = H = 1 in rank 0.  On an Eulerian interval of rank d, with H
summed over the upper intervals as above, g_1 = (number of coatoms) - d
(Stanley 1987): G = 1 for d <= 2 and G = 1 + g_1 t for d = 3, 4, which
_g returns without H.  The two-variable B-polynomial is defined by the
convolution recursion

    sum over x of B([min,x]; u,v) * u^(d-rank(x)) * G([x,max], u^-1 v) = G(P, uv)

and is solved bottom-up.  `b_via_g` evaluates the closed-form alternating
sum over the interval and must agree with the recursion; the convolution
identity check verifies that G(_, t) and (-1)^rank G(_*, t) are convolution
inverses.

A constructed poset is an indexed root: its elements are numbered in the
given order, ranks are a list, and up- and down-sets are int bitsets.  An
`EulerianPoset` is a (root, lo, hi) view of the interval between two of its
elements, so intervals and duals are views too and build nothing; the dual
root is built once, on first use.  The recursions are memoised on the root
per (lo, hi) index pair (no isomorphism detection is attempted).
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import cached_property, lru_cache, wraps

from .errors import NotEulerian, NotGraded
from .polynomials import BivariateLaurentPolynomial, UnivariatePolynomial


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Root:
    """Numbered elements with their ranks, up-sets and down-sets (bitsets),
    and the G/H/B memos of its intervals."""

    def __init__(self, elements, index, rank, up, down, dual=None):
        self.elements, self.index, self.rank = elements, index, rank
        self.up, self.down = up, down
        self.level = [sum(1 << i for i, r in enumerate(rank) if r == k)
                      for k in range(max(rank) + 1)]  # elements by rank
        self.memo = defaultdict(dict)
        self._dual = dual

    def dual(self) -> "_Root":
        """Same numbering, order reversed, rank complemented."""
        if self._dual is None:
            top = max(self.rank)
            self._dual = _Root(self.elements, self.index,
                               [top - r for r in self.rank],
                               self.down, self.up, dual=self)
        return self._dual

    @cached_property
    def unbalanced(self) -> list[tuple[int, int]]:
        """Pairs x < y whose interval has unequal even- and odd-rank counts."""
        even = sum(1 << i for i, r in enumerate(self.rank) if r % 2 == 0)
        pairs = []
        for x, above in enumerate(self.up):
            for y in _bits(above & ~(1 << x)):
                members = above & self.down[y]
                if 2 * (members & even).bit_count() != members.bit_count():
                    pairs.append((x, y))
        return pairs


class EulerianPoset:
    """Finite graded poset with designated minimum and maximum.

    Instances are immutable views of the interval [lo, hi] of an indexed
    root; `interval` and `dual` return views of the same root (or of its
    dual root), so polynomial recursions are computed once per concrete
    (min, max) pair.
    """

    __slots__ = ("_root", "_lo", "_hi", "min", "max")

    def __init__(self, elements, covers):
        elements = tuple(elements)
        index = {x: i for i, x in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError("duplicate poset elements")
        n = len(elements)
        upper = [[] for _ in range(n)]  # indices covering each element
        lower = [[] for _ in range(n)]  # indices each element covers
        for a, b in set(covers):
            if a not in index or b not in index:
                raise ValueError("cover relation outside element set")
            upper[index[a]].append(index[b])
            lower[index[b]].append(index[a])
        minima = [i for i in range(n) if not lower[i]]
        maxima = [i for i in range(n) if not upper[i]]
        if len(minima) != 1 or len(maxima) != 1:
            raise ValueError("poset must have unique minimum and maximum")
        # a topological order from the minimum reaches every element unless
        # the covers contain a cycle; down-sets and ranks follow it upwards
        order, rank = list(minima), [0] * n
        up, down = [1 << i for i in range(n)], [1 << i for i in range(n)]
        indegree = [len(d) for d in lower]
        for x in order:
            for y in upper[x]:
                down[y] |= down[x]
                rank[y] = rank[x] + 1
                indegree[y] -= 1
                if indegree[y] == 0:
                    order.append(y)
        if len(order) != n:
            raise ValueError("cover relations contain a cycle")
        if any(rank[a] + 1 != rank[b] for b in range(n) for a in lower[b]):
            raise NotGraded("maximal chains of different lengths")
        for x in reversed(order):
            for y in upper[x]:
                up[x] |= up[y]
        self._root = _Root(elements, index, rank, up, down)
        self._lo, self._hi = minima[0], maxima[0]
        self.min, self.max = elements[self._lo], elements[self._hi]

    @classmethod
    def _view(cls, root: _Root, lo: int, hi: int) -> "EulerianPoset":
        view = object.__new__(cls)
        view._root, view._lo, view._hi = root, lo, hi
        view.min, view.max = root.elements[lo], root.elements[hi]
        return view

    # -- basic structure ----------------------------------------------------

    def _members(self) -> int:
        return self._root.up[self._lo] & self._root.down[self._hi]

    @property
    def elements(self) -> tuple:
        return tuple(self._root.elements[i] for i in _bits(self._members()))

    def total_rank(self) -> int:
        return self._root.rank[self._hi] - self._root.rank[self._lo]

    def le(self, x, y) -> bool:
        """x <= y, both in this poset."""
        root, members = self._root, self._members()
        i, j = root.index[x], root.index[y]
        return bool(members >> i & 1 and (root.up[i] & members) >> j & 1)

    def interval(self, x, y) -> "EulerianPoset":
        if not self.le(x, y):
            raise ValueError(f"{x!r} is not below {y!r}")
        index = self._root.index
        return self._view(self._root, index[x], index[y])

    def dual(self) -> "EulerianPoset":
        """Order reversed, rank complemented: a view of the dual root."""
        return self._view(self._root.dual(), self._hi, self._lo)

    def is_eulerian(self) -> bool:
        """True iff every nontrivial interval balances even and odd ranks."""
        members = self._members()
        return not any(members >> x & members >> y & 1
                       for x, y in self._root.unbalanced)


def _checked(p: EulerianPoset) -> tuple[_Root, int, int]:
    """p's (root, lo, hi), once p is known to be Eulerian."""
    if not p.is_eulerian():
        raise NotEulerian("poset is not Eulerian")
    return p._root, p._lo, p._hi


def _per_interval(fn):
    """Memoise fn(root, lo, hi) on the root, keyed by the (lo, hi) pair."""
    @wraps(fn)
    def memoised(root, lo, hi):
        memo = root.memo[fn]
        if (lo, hi) not in memo:
            memo[lo, hi] = fn(root, lo, hi)
        return memo[lo, hi]
    return memoised


def h_polynomial(p: EulerianPoset) -> UnivariatePolynomial:
    return _h(*_checked(p))


def g_polynomial(p: EulerianPoset) -> UnivariatePolynomial:
    return _g(*_checked(p))


@_per_interval
def _h(root: _Root, lo: int, hi: int) -> UnivariatePolynomial:
    """One coefficient list summed over the elements x > lo of the interval,
    each adding the convolution (t-1)^(rank(x)-1) * G([x, hi])."""
    if lo == hi:
        return UnivariatePolynomial.one()
    base = root.rank[lo] + 1
    acc = [0] * (root.rank[hi] - root.rank[lo])  # deg H <= rank - 1
    for x in _bits(root.up[lo] & root.down[hi] & ~(1 << lo)):
        power = _t_minus_1_power(root.rank[x] - base)
        for j, g in enumerate(_g(root, x, hi).coeffs):
            for i, c in enumerate(power, j):
                acc[i] += c * g
    return UnivariatePolynomial(acc)


@lru_cache(maxsize=None)
def _t_minus_1_power(k: int) -> tuple[int, ...]:
    """Coefficients of (t-1)^k: the signed binomials (-1)^(k-i) C(k, i)."""
    return tuple((-1) ** (k - i) * math.comb(k, i) for i in range(k + 1))


@_per_interval
def _g(root: _Root, lo: int, hi: int) -> UnivariatePolynomial:
    """G read off H: the coefficients h_k - h_(k-1) of (1-t) H for k < d/2."""
    d = root.rank[hi] - root.rank[lo]
    if d < 3:
        return UnivariatePolynomial.one()
    if d < 5:  # g_1 = (number of coatoms) - d
        coatoms = root.up[lo] & root.down[hi] & root.level[root.rank[hi] - 1]
        return UnivariatePolynomial((1, coatoms.bit_count() - d))
    h = [0] + _h(root, lo, hi).coeff_list(d)
    return UnivariatePolynomial(h[k + 1] - h[k] for k in range((d + 1) // 2))


def b_polynomial(p: EulerianPoset) -> BivariateLaurentPolynomial:
    """Two-variable invariant solved bottom-up from its convolution
    recursion against G."""
    return _b(*_checked(p))


@_per_interval
def _b(root: _Root, lo: int, hi: int) -> BivariateLaurentPolynomial:
    if lo == hi:
        return BivariateLaurentPolynomial.one()
    result = _g(root, lo, hi).to_bivariate(1, 1)  # G(P, uv)
    for x in _bits(root.up[lo] & root.down[hi] & ~(1 << hi)):
        lower = _b(root, lo, x)
        upper = _g(root, x, hi).to_bivariate(-1, 1)  # t -> v/u
        power = BivariateLaurentPolynomial.monomial(
            root.rank[hi] - root.rank[x], 0)
        result = result - lower * power * upper
    return result


def b_via_g(p: EulerianPoset) -> BivariateLaurentPolynomial:
    """Closed-form alternating sum for the B-polynomial:
    sum over x of G([x,max]*, v/u) * (-u)^(rank(max)-rank(x)) * G([min,x], uv)."""
    root, lo, hi = _checked(p)
    dual = root.dual()
    total = BivariateLaurentPolynomial.zero()
    for x in _bits(p._members()):
        k = root.rank[hi] - root.rank[x]
        term = _g(dual, hi, x).to_bivariate(-1, 1)
        term = term * BivariateLaurentPolynomial.monomial(k, 0, (-1) ** k)
        term = term * _g(root, lo, x).to_bivariate(1, 1)
        total = total + term
    return total


def convolution_inverse_check(p: EulerianPoset) -> bool:
    """Both convolution identities: G(_, t) and (-1)^rank G(_*, t) must be
    two-sided inverses under the poset convolution product."""
    root, lo, hi = _checked(p)
    d = p.total_rank()
    if d < 1:
        raise ValueError("convolution check needs positive rank")
    dual = root.dual()
    first = UnivariatePolynomial.zero()
    second = UnivariatePolynomial.zero()
    for x in _bits(p._members()):
        k = root.rank[x] - root.rank[lo]
        first = first + (-1) ** k * (_g(dual, x, lo) * _g(root, x, hi))
        second = second + (-1) ** (d - k) * (_g(root, lo, x) * _g(dual, hi, x))
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
