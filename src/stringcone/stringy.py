"""Stringy invariants of Gorenstein cones and reflexive pairs.

The S-polynomial of a graded cone is (1-t)^dim times the generating series
of its lattice points graded by degree (the h*-polynomial of the degree-1
slice).  It is counted with no lattice-point enumeration (Stanley 1980):
face_s counts by degree the lifted box classes of the half-open simplices
of a pulling triangulation of the face, read off the class histograms of
the cone's top simplices that contain them (lattice._simplex_box).
The tilde-S polynomial corrects the alternating face sum of
S-polynomials by G-polynomials of the upper face intervals and records the
graded dimensions of the interior quotient modules.  Every sum over the
faces f below a face F reads them, each with G([f, F]), off the parent's
face lattice (`FaceLattice.below`), whose poset numbers the faces alike.

Two independent routes compute the stringy E-function of the Calabi-Yau
hypersurface attached to a reflexive pair (K, K*):

* `e_st_hypersurface` sums (uv)^-1 (-u)^dim(C) * tildeS(C, v/u) *
  tildeS(C*, uv) over the faces C of K, and
* `e_st_oracle` sums closed-form S-series against B-polynomials of dual
  face intervals, grouping the lattice points of K x K* that pair to zero
  by the minimal faces containing them.

Neither drops a term: a negative exponent left in the result raises.
The first route expands into one sum of products
[t^i] tildeS(C) * [t^j] tildeS(C*), each at a Hodge bidegree
(`tilde_s_products`): the E-function is its signed sum, the string
cohomology table its unsigned sum, and `koszul.expected_cohomology`
re-indexes it to the pieces of the Koszul complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import intlinalg as la
from . import lattice as lat
from . import posets as po
from .errors import (ConeNotInFan, DimensionBudgetExceeded,
                     NegativeHodgeNumber, NotSimplicial)
from .lattice import BOX_GROUP_BUDGET, Fan, GradedCone, ReflexivePair
from .polynomials import BivariateLaurentPolynomial, UnivariatePolynomial

_UV = BivariateLaurentPolynomial.monomial


# ---------------------------------------------------------------------------
# S and tilde-S polynomials
# ---------------------------------------------------------------------------

def _times_one_minus_t_pow(counts, d: int) -> UnivariatePolynomial:
    """(1-t)^d * sum_k counts[k] t^k, truncated at degree d."""
    return UnivariatePolynomial(
        sum(counts[i] * (-1) ** (j - i) * math.comb(d, j - i)
            for i in range(j + 1))
        for j in range(d + 1))


@lru_cache(maxsize=None)
def face_s(face: lat.Face) -> UnivariatePolynomial:
    """S of a face from its generator indices in the parent cone: for each
    half-open simplex s of its triangulation, the classes of the top
    simplex around s supported on s, by degree, lifted on s's open facets."""
    acc = [0] * (face.dim + face.cone.dim + 1)  # shift + degree
    for top, inside, is_open in lat._half_open_simplices(face):
        for mask, row in lat._simplex_box(face.cone, top)[3].items():
            if not mask & ~inside:
                for deg, count in enumerate(row, (is_open & ~mask).bit_count()):
                    acc[deg] += count
    return UnivariatePolynomial(acc)


def s_polynomial(cone: GradedCone) -> UnivariatePolynomial:
    """(1-t)^dim * sum_n t^deg(n), a polynomial of degree <= dim: face_s
    of the cone's top face."""
    return face_s(lat.Face(cone=cone, dim=cone.dim,
                           gen_indices=frozenset(range(len(cone.generators)))))


@lru_cache(maxsize=None)
def s_polynomial_interior(cone: GradedCone) -> UnivariatePolynomial:
    """(1-t)^dim * sum over relative-interior points of t^deg(n); equals
    the degree-reversal of the S-polynomial by Ehrhart reciprocity."""
    d = cone.dim
    counts = [lat.count_lattice_points_at_degree(cone, k, interior_only=True)
              for k in range(d + 1)]
    return _times_one_minus_t_pow(counts, d)


@lru_cache(maxsize=None)
def face_tilde_s(face: lat.Face) -> UnivariatePolynomial:
    """tilde-S of the face's cone, summed over the faces f <= F of the
    parent's lattice with their G([f, F]), memoised once per cone (below)."""
    acc = [0] * (face.dim + 1)  # deg S(f) + deg G([f, face]) <= dim face
    for f, g in lat.face_lattice(face.cone).below(face):
        s = face_s(f).coeffs
        sign = (-1) ** (face.dim - f.dim)
        for j, gj in enumerate(g.coeffs):
            for i, sj in enumerate(s, j):
                acc[i] += sign * sj * gj
    return UnivariatePolynomial(acc)


def tilde_s_polynomial(cone: GradedCone) -> UnivariatePolynomial:
    """Alternating face sum of S-polynomials weighted by G-polynomials of
    the upper intervals in the face lattice (face_tilde_s of the top face)."""
    return face_tilde_s(lat.face_lattice(cone).maximum())


def tilde_s_simplicial(cone: GradedCone) -> UnivariatePolynomial:
    """Plain alternating face sum; only valid for simplicial cones, where
    every upper interval is Boolean and its G-polynomial is 1."""
    if not cone.is_simplicial():
        raise NotSimplicial(f"cone has {len(cone.generators)} generators "
                            f"in dimension {cone.dim}")
    fl = lat.face_lattice(cone)
    total = UnivariatePolynomial.zero()
    for f in fl.faces:
        total = total + (-1) ** (cone.dim - f.dim) * face_s(f)
    return total


@dataclass(frozen=True)
class BoxPointTable:
    """Lattice points in the open fundamental box of a simplicial cone,
    grouped by their degree (the coordinate sum)."""

    cone: GradedCone
    by_shift: dict

    def count(self, shift: int) -> int:
        return len(self.by_shift.get(shift, ()))

    def total(self) -> int:
        return sum(len(v) for v in self.by_shift.values())


def box_points(cone: GradedCone) -> BoxPointTable:
    """Enumerate sum(a_i g_i), all a_i in (0,1), by shift (the t^l count of
    tilde-S), each shift's points in lexicographic order: the box classes
    (see lattice._box_classes) with no zero coordinate, num G / L exactly."""
    if not cone.is_simplicial():
        raise NotSimplicial("box points need a simplicial cone")
    gens = cone.generators
    if not gens:
        return BoxPointTable(cone=cone, by_shift={})
    u, d, _ = la._diagonalize(gens)
    orders = [abs(d[i][i]) for i in range(len(gens))]
    if math.prod(orders) > BOX_GROUP_BUDGET:
        raise DimensionBudgetExceeded(
            f"box group of order {math.prod(orders)} exceeds budget")
    big_l, (nums,) = lat._box_classes(u, orders)  # one chunk within the budget
    nums = nums[(nums != 0).all(axis=1)]  # the open box
    # exact points num G / L, in Python ints so that no coordinate wraps
    points = (nums.astype(object) @ np.array(gens, dtype=object)) // big_l
    table: dict[int, list] = {}
    for shift, p in sorted(zip((nums.sum(axis=1) // big_l).tolist(),
                               map(tuple, points.tolist()))):
        table.setdefault(shift, []).append(p)
    return BoxPointTable(cone=cone, by_shift=table)


# ---------------------------------------------------------------------------
# Hodge tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HodgeTable:
    """Nonnegative (p,q)-indexed table; signed coefficients of an
    E-polynomial."""

    dimension: int
    entries: tuple  # sorted tuple of ((p, q), h) pairs

    def entry(self, p, q) -> int:
        for (pp, qq), h in self.entries:
            if (pp, qq) == (p, q):
                return h
        return 0

    def as_dict(self) -> dict:
        return {pq: h for pq, h in self.entries}


def _table_from_entries(entries: dict, dimension: int) -> HodgeTable:
    cleaned = {pq: h for pq, h in entries.items() if h != 0}
    return HodgeTable(dimension=dimension,
                      entries=tuple(sorted(cleaned.items())))


def stringy_hodge_table(e_poly: BivariateLaurentPolynomial,
                        dimension: int) -> HodgeTable:
    """Read h^{p,q} = (-1)^(p+q) * coefficient off an E-polynomial."""
    entries = {}
    for (p, q), c in e_poly.terms.items():
        if p < 0 or q < 0:
            raise NegativeHodgeNumber(f"negative exponent ({p},{q})")
        h = (-1) ** (p + q) * c
        if h < 0:
            raise NegativeHodgeNumber(f"h^({p},{q}) = {h}")
        entries[(p, q)] = h
    return _table_from_entries(entries, dimension)


# ---------------------------------------------------------------------------
# Stringy E-functions of Calabi-Yau hypersurfaces
# ---------------------------------------------------------------------------

def _faces_with_duals(pair: ReflexivePair):
    fl = lat.face_lattice(pair.cone)
    return [(f, pair.dual_face(f)) for f in fl.faces]


def tilde_s_products(pair: ReflexivePair):
    """Every nonzero product c = [t^i] tildeS(C) * [t^j] tildeS(C*) over
    the faces C of K, as ((p, q), c, C, C*, i, j) with the Hodge bidegree
    (p, q) = (dim C + j - i - 1, i + j - 1)."""
    for face, dual in _faces_with_duals(pair):
        ts, ts_dual = face_tilde_s(face).coeffs, face_tilde_s(dual).coeffs
        for i, ci in enumerate(ts):
            for j, cj in enumerate(ts_dual):
                if ci and cj:
                    yield ((face.dim + j - i - 1, i + j - 1), ci * cj,
                           face, dual, i, j)


def e_st_hypersurface(pair: ReflexivePair) -> BivariateLaurentPolynomial:
    """Mirror-symmetric tilde-S formula, (uv)^-1 times the sum over the
    faces C of (-u)^dim(C) * tildeS(C, v/u) * tildeS(C*, uv): the signed
    sum of the tilde-S products, (-1)^(p+q) c at u^p v^q."""
    terms: dict = {}
    for (p, q), c, *_ in tilde_s_products(pair):
        terms[p, q] = terms.get((p, q), 0) + (-1) ** (p + q) * c
    return BivariateLaurentPolynomial(terms).require_polynomial()


def e_st_oracle(pair: ReflexivePair) -> BivariateLaurentPolynomial:
    """Independent route: group the orthogonal point pairs of K x K* by the
    minimal faces containing them and sum the closed geometric-series form
    of each group against a B-polynomial of the dual interval."""
    dim_k = pair.cone.dim
    dual_lattice = lat.face_lattice(pair.dual)
    numerator = BivariateLaurentPolynomial.zero()
    for face, dual in _faces_with_duals(pair):
        s1 = face_s(face).to_bivariate(-1, 1)  # S(C1, v/u)
        u_pow = _UV(face.dim, 0)
        for c2, _ in dual_lattice.below(dual):  # faces of K* in the dual face
            b = po.b_polynomial(dual_lattice.poset.interval(
                c2.gen_indices, dual.gen_indices))  # by the public view
            s2 = face_s(c2).to_bivariate(1, 1)  # S(C2, uv)
            sign = (-1) ** (dim_k - c2.dim)
            numerator = numerator + sign * (u_pow * b * s1 * s2)
    return numerator.divide_by_monomial(1, 1).require_polynomial()


def mirror_transform(e_poly: BivariateLaurentPolynomial,
                     cy_dimension: int) -> BivariateLaurentPolynomial:
    """(-u)^cy_dimension * E(1/u, v), the mirror side of the duality test."""
    swapped = BivariateLaurentPolynomial(
        {(-a, b): c for (a, b), c in e_poly.terms.items()})
    return swapped * _UV(cy_dimension, 0, (-1) ** cy_dimension)


# ---------------------------------------------------------------------------
# Toric varieties: stringy and intersection E-polynomials
# ---------------------------------------------------------------------------

def e_st_toric(fan: Fan) -> BivariateLaurentPolynomial:
    """Sum of (uv-1)^codim * S(cone, uv) over the cones of a complete fan
    of Gorenstein cones."""
    lat.check_complete(fan)
    d = fan.rank
    uv_minus_1 = BivariateLaurentPolynomial({(1, 1): 1, (0, 0): -1})
    total = BivariateLaurentPolynomial.zero()
    for cone in fan.cones:
        total = total + uv_minus_1 ** (d - cone.dim) \
            * s_polynomial(cone).to_bivariate(1, 1)
    return total


def e_int_orbit_closure(fan: Fan, cone: GradedCone) -> BivariateLaurentPolynomial:
    """Intersection-cohomology E-polynomial of the orbit closure of a cone:
    sum over cones containing it of torus E-factors weighted by dual-interval
    G-polynomials, each interval read off the upper cone's face lattice."""
    canon = lat.cone_from_generators(cone.generators, fan.rank)
    if canon not in fan.cones:
        raise ConeNotInFan(f"{cone} is not a cone of the fan")
    d = fan.rank
    uv_minus_1 = BivariateLaurentPolynomial({(1, 1): 1, (0, 0): -1})
    total = BivariateLaurentPolynomial.zero()
    for upper in fan.cones:
        if not set(canon.generators) <= set(upper.generators):
            continue
        low = frozenset(map(upper.generators.index, canon.generators))
        interval = lat.face_lattice(upper).poset.interval(
            low, frozenset(range(len(upper.generators))))
        g = po.g_polynomial(interval.dual()).to_bivariate(1, 1)
        total = total + uv_minus_1 ** (d - upper.dim) * g
    return total


# ---------------------------------------------------------------------------
# String cohomology dimension table
# ---------------------------------------------------------------------------

def string_cohomology_table(pair: ReflexivePair) -> HodgeTable:
    """Hodge table of the string cohomology space: the unsigned sum of the
    tilde-S products at their bidegrees, whose signed sum is
    e_st_hypersurface."""
    d = pair.cone.dim - 1  # rank of the polytope lattice
    entries: dict = {}
    for (p, q), c, *_ in tilde_s_products(pair):
        if not (0 <= p <= d - 1 and 0 <= q <= d - 1):
            raise ValueError(f"bidegree ({p},{q}) out of range")
        entries[p, q] = entries.get((p, q), 0) + c
    return _table_from_entries(entries, d - 1)
