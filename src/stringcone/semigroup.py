"""Graded quotients of plain and deformed semigroup rings.

The semigroup ring of a graded cone has the lattice points as a monomial
basis.  A subdivision deforms the product: two monomials multiply to their
sum when they lie in a common cell and to zero otherwise, as one
lattice.product_table per degree records.  Dividing by the span of the
logarithmic derivatives of a degree-one element and measuring graded
dimensions by exact rank computations recovers the S-polynomial
coefficients; the image of the interior-supported subspace recovers the
tilde-S coefficients for regular subdivisions.  The product is commutative
and associative, so derivative d times the degree-(k-1) monomials on which
derivatives < d pivoted lies in the span of derivatives < d at degree k:
those columns are left out, and each rank call's tiers name them.  Where S
vanishes, so does a regular element's quotient: there the products are
first ranked alone mod p (full row rank mod p is full row rank over Q), and
the unit columns are built only if that falls short.  Degree dim+1 is built
only if the quotient is not zero at degree dim.  The element is regular
exactly when the quotient is zero there and has total dimension S(1), so
this one deformed ring decides regularity for all the cells at once.

Two scalar backends are available: residues modulo a prime (fast, default)
and certified rational arithmetic.  Coefficients are drawn as integers so
the same element makes sense over both backends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import intlinalg as la
from . import lattice as lat
from .errors import PointOutsideCone
from .lattice import FanSubdivision, GradedCone
from .stringy import s_polynomial

COEFFICIENT_RANGE = (1, 10**6)
DEFAULT_FIELD = f"prime:{la.DEFAULT_PRIME}"


@dataclass(frozen=True)
class DegreeOneElement:
    """Linear combination of the degree-1 lattice points of a cone."""

    cone: GradedCone
    coefficients: tuple  # sorted ((point, int), ...)
    field: str = DEFAULT_FIELD


def degree_one_element(cone: GradedCone, coefficient_map,
                       field: str = DEFAULT_FIELD) -> DegreeOneElement:
    la.parse_field(field)
    pts = set(lat.lattice_points_at_degree(cone, 1))
    items = []
    for m, c in coefficient_map.items():
        m = tuple(int(x) for x in m)
        if m not in pts:
            raise PointOutsideCone(f"{m} is not a degree-1 point of the cone")
        if c:
            items.append((m, int(c)))
    return DegreeOneElement(cone=cone, coefficients=tuple(sorted(items)),
                            field=field)


def random_degree_one(cone: GradedCone, seed: int,
                      field: str = DEFAULT_FIELD) -> DegreeOneElement:
    """Nonzero integer coefficient on every degree-1 point, reproducible
    from the seed; the same integers serve both scalar backends."""
    la.parse_field(field)
    rng = random.Random(seed)
    lo, hi = COEFFICIENT_RANGE
    coeffs = tuple((m, rng.randint(lo, hi))
                   for m in lat.lattice_points_at_degree(cone, 1))
    return DegreeOneElement(cone=cone, coefficients=coeffs, field=field)


def grading_functionals(cone: GradedCone) -> list[tuple]:
    """dim-many coordinate functionals whose restrictions to the span are
    linearly independent: the pivot columns of the generator matrix, the
    deterministic greedy choice of the leftmost independent coordinates."""
    if not cone.generators:
        return []
    pivots = la.rref_fraction(cone.generators)[1]
    return [tuple(int(j == i) for j in range(cone.ambient_rank))
            for i in pivots]


def logarithmic_derivatives(g: DegreeOneElement) -> list[dict]:
    """g_j = sum over m of (m . n_j) g(m) [m] for the chosen functionals;
    the span does not depend on the choice."""
    return [{m: val for m, c in g.coefficients if (val := la.dot(m, n) * c)}
            for n in grading_functionals(g.cone)]


@dataclass(frozen=True)
class GradedQuotientReport:
    """Per-degree dimensions of the quotient ring and its interior part."""

    dims_R0: tuple
    dims_R1: tuple
    seed: int | None
    field: str
    subdivision: tuple
    top_degree_dims: tuple  # (R0, R1) at degree dim+1; (0, 0) if R0[dim] = 0
    regular_profile: bool


class _QuotientWorkspace:
    """Multiplication-matrix assembly for the quotient dimensions."""

    def __init__(self, g: DegreeOneElement, subdivision: FanSubdivision):
        if subdivision.parent != g.cone:
            raise ValueError("element and subdivision live on different cones")
        self.g, self.cone, self.cells = g, g.cone, subdivision.max_cones
        self.derivs = logarithmic_derivatives(g)
        support = sorted(set().union(*self.derivs))  # the derivatives' points
        self.support = np.array(support, dtype=np.int64).reshape(
            -1, self.cone.ambient_rank)
        self.weights = np.array([[d.get(m, 0) for m in support]
                                 for d in self.derivs], dtype=np.int64
                                ).reshape(len(self.derivs), len(support))
        self._points_through(max(self.cone.dim, 1))

    def _points_through(self, top: int):
        """Points (also as int64 rows) and interior points of degrees 0 ..
        top; refuses a full degree-top matrix with unit columns over the
        budget before assembly (degree-one moves map k-1 into k, so no
        lower degree's is larger)."""
        self.points, self.interior = (
            {k: lat.lattice_points_at_degree(self.cone, k, inner)
             for k in range(top + 1)} for inner in (False, True))
        self.coords = {k: np.array(pts, dtype=np.int64).reshape(
            -1, self.cone.ambient_rank) for k, pts in self.points.items()}
        rows = len(self.points[top])
        cols = len(self.derivs) * len(self.points[top - 1]) + len(self.interior[top])
        la.refuse_over_budget(rows * cols, (
            f"degree-{top} multiplication matrix of {rows} x {cols} = "
            f"{rows * cols} cells exceeds budget {la.MATRIX_CELL_BUDGET}"))

    def _products(self, k: int, units=(), skip=()):
        """(la.SparseMatrix, block bounds): the multiplication matrix from
        the degree-(k-1) to the degree-k points, then one unit column per
        point of units.  Block d holds derivative d times each
        degree-(k-1) point whose index is not in skip[d], in order."""
        here = self.coords[k]
        table = lat.product_table(self.coords[k - 1], self.support, here,
                                  self.cells)
        keep = np.ones((len(self.derivs), len(table)), dtype=bool)
        for d, rows in enumerate(skip):
            keep[d, rows] = False
        bounds = np.cumsum(keep.sum(axis=1)).tolist() or [0]
        column = np.cumsum(keep).reshape(keep.shape) - 1  # where kept
        # by support point, derivative and degree-(k-1) point
        j, d, i = np.nonzero((table.T >= 0)[:, None] & keep
                             & (self.weights.T != 0)[:, :, None])
        unit = lat.product_table(np.reshape(units, (-1, here.shape[1])),
                                 np.zeros((1, here.shape[1])), here)[:, 0]
        return la.SparseMatrix(
            (len(here), bounds[-1] + len(unit)), np.append(unit, table[i, j]),
            np.append(bounds[-1] + np.arange(len(unit)), column[d, i]),
            np.append(np.ones(len(unit), np.int64), self.weights[d, j])
        ), tuple(bounds)

    def dims(self) -> tuple[list, list]:
        """Dimensions of the quotient and of its interior image at degrees
        0 .. dim+1, degree dim+1 only when degree dim is not zero.  Where S
        vanishes, the products alone are ranked first modulo the element's
        prime, or DEFAULT_FIELD's over Q."""
        r0, r1 = [1], [1 if self.interior[0] else 0]
        top, skip = self.cone.dim + 1, ()
        vanish, field = len(s_polynomial(self.cone).coeffs), self.g.field
        attempt = ((), field if la.parse_field(field)[1] else DEFAULT_FIELD)
        for k in range(1, top + 1):
            if k == top and r0[-1] == 0:  # zero at dim: zero above it
                return r0 + [0], r1 + [0]
            if k == top:
                self._points_through(top)
            routes = (attempt, (self.interior[k], field))[k < vanish:]
            for units, scalars in routes:
                # the unit columns share the triplets, so no matrix is copied
                aug, bounds = self._products(k, units, skip)
                # the top degree's rows are not read, so it needs no tiers
                rank_m, rank_aug, tiers = la.ranks_with_prefix(
                    aug, bounds if k < top else bounds[-1:], scalars)
                if rank_m == len(self.points[k]):
                    break  # zero quotient: the unit columns add no rank
            skip = ((), *tiers)
            r0.append(len(self.points[k]) - rank_m)
            r1.append(rank_aug - rank_m)
        return r0, r1


def graded_quotient_dims(g: DegreeOneElement,
                         subdivision: FanSubdivision | None = None,
                         seed: int | None = None) -> GradedQuotientReport:
    """Exact graded dimensions of the quotient by the logarithmic
    derivatives in the deformed ring, and of its interior image, at degrees
    0 .. dim; degree dim+1, the regularity cutoff, is reported apart and is
    (0, 0) with no matrix built when degree dim is.

    The cutoff is a lemma: cells are generated by degree-one points, and in
    a simplex v_1 .. v_dim of them a lattice point x of degree >= dim has a
    coefficient >= 1, so v_i (x - v_i) = x.  So R_k = R_1 R_(k-1) for k >= dim
    and a quotient zero at degree dim is zero above it (Stanley 1980;
    Bruns-Gubeladze 2009): it is finite exactly when zero at degree dim+1.
    """
    if subdivision is None:
        subdivision = lat.trivial_subdivision(g.cone)
    r0, r1 = _QuotientWorkspace(g, subdivision).dims()
    dim = g.cone.dim
    s_total = sum(s_polynomial(g.cone).coeffs)
    regular = r0[dim + 1] == r1[dim + 1] == 0 and sum(r0[:dim + 1]) == s_total
    return GradedQuotientReport(
        dims_R0=tuple(r0[: dim + 1]),
        dims_R1=tuple(r1[: dim + 1]),
        seed=seed,
        field=g.field,
        subdivision=subdivision.provenance,
        top_degree_dims=(r0[dim + 1], r1[dim + 1]),
        regular_profile=regular,
    )


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    detail: str


def is_sigma_regular(g: DegreeOneElement,
                     subdivision: FanSubdivision | None = None) -> RegularityVerdict:
    """Regularity as the deformed ring's regular profile: its quotient is
    zero at the degree dim+1 cutoff and has total dimension S(1).

    The ring maps onto each maximal cell's semigroup ring by sending the
    points outside the cell to 0, and the kernels are its minimal primes, so
    the quotient is finite exactly when every cell's quotient is; on both
    sides finite means zero at degree dim+1 (see graded_quotient_dims).
    Cohen-Macaulayness then gives the total S(1), which is still checked.
    A verdict costs one deformed ring of the cone, the one `ring-dims
    --subdivide` computes.  No Koszul run reaches a fine subdivision of a
    large cone: build_complex's closed-form count refuses the pair first
    (it counts 5.44e8 for the quintic's all-point pair).
    """
    report = graded_quotient_dims(g, subdivision)
    return RegularityVerdict(report.regular_profile, (
        f"quotient {'' if report.regular_profile else 'not '}finite at "
        f"cutoff: dims {report.dims_R0} + top {report.top_degree_dims}"))
