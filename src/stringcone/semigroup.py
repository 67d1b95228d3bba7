"""Graded quotients of plain and deformed semigroup rings.

The semigroup ring of a graded cone has the lattice points as a monomial
basis.  A subdivision deforms the product: two monomials multiply to their
sum when they lie in a common cell and to zero otherwise.  Dividing by the
span of the logarithmic derivatives of a degree-one element and measuring
graded dimensions by exact rank computations recovers the S-polynomial
coefficients; the image of the interior-supported subspace recovers the
tilde-S coefficients for regular subdivisions.

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
from .errors import DimensionBudgetExceeded, NotRegular, PointOutsideCone
from .lattice import FanSubdivision, GradedCone
from .stringy import s_polynomial

COEFFICIENT_RANGE = (1, 10**6)
DEFAULT_FIELD = f"prime:{la.DEFAULT_PRIME}"
# cells of the largest multiplication matrix a workspace may assemble
MATRIX_CELL_BUDGET = 50_000_000


@dataclass(frozen=True)
class DegreeOneElement:
    """Linear combination of the degree-1 lattice points of a cone."""

    cone: GradedCone
    coefficients: tuple  # sorted ((point, int), ...)
    field: str = DEFAULT_FIELD

    def coefficient_map(self) -> dict:
        return dict(self.coefficients)

    def restrict(self, subcone: GradedCone) -> "DegreeOneElement":
        kept = tuple((m, c) for m, c in self.coefficients
                     if lat.point_in_cone(subcone, m))
        return DegreeOneElement(cone=subcone, coefficients=kept,
                                field=self.field)


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
    linearly independent; deterministic greedy choice."""
    gens = [list(g) for g in cone.generators]
    if not gens:
        return []
    chosen: list[int] = []
    rows: list[list[int]] = []
    for i in range(cone.ambient_rank):
        col = [g[i] for g in gens]
        if la.rank_int(rows + [col]) > len(rows):
            rows.append(col)
            chosen.append(i)
        if len(chosen) == cone.dim:
            break
    return [tuple(int(j == i) for j in range(cone.ambient_rank))
            for i in chosen]


def logarithmic_derivatives(g: DegreeOneElement) -> list[dict]:
    """g_j = sum over m of (m . n_j) g(m) [m] for the chosen functionals;
    the span does not depend on the choice."""
    out = []
    for n in grading_functionals(g.cone):
        deriv = {}
        for m, c in g.coefficients:
            val = la.dot(m, n) * c
            if val:
                deriv[m] = val
        out.append(deriv)
    return out


def deformed_product(subdivision: FanSubdivision, m1, m2):
    """[m1][m2] in the deformed ring: m1+m2 when some maximal cell contains
    both points, None (the zero product) otherwise."""
    m1 = tuple(int(x) for x in m1)
    m2 = tuple(int(x) for x in m2)
    parent = subdivision.parent
    for m in (m1, m2):
        if not lat.point_in_cone(parent, m):
            raise PointOutsideCone(f"{m} is outside the cone")
    for cell in subdivision.max_cones:
        if lat.point_in_cone(cell, m1) and lat.point_in_cone(cell, m2):
            return tuple(a + b for a, b in zip(m1, m2))
    return None


def _cell_masks(subdivision: FanSubdivision, points) -> dict:
    masks = {}
    for p in points:
        mask = 0
        for i, cell in enumerate(subdivision.max_cones):
            if lat.point_in_cone(cell, p):
                mask |= 1 << i
        masks[p] = mask
    return masks


@dataclass(frozen=True)
class GradedQuotientReport:
    """Per-degree dimensions of the quotient ring and its interior part."""

    dims_R0: tuple
    dims_R1: tuple
    seed: int | None
    field: str
    subdivision: tuple
    top_degree_dims: tuple  # (R0, R1) at degree dim+1, must vanish if regular
    regular_profile: bool


class _QuotientWorkspace:
    """Shared matrix assembly for quotient dimensions and pairings."""

    def __init__(self, g: DegreeOneElement, subdivision: FanSubdivision):
        if subdivision.parent != g.cone:
            raise ValueError("element and subdivision live on different cones")
        self.g = g
        self.sub = subdivision
        self.cone = g.cone
        self.derivs = logarithmic_derivatives(g)
        dim = self.cone.dim
        self.points = {k: lat.lattice_points_at_degree(self.cone, k)
                       for k in range(dim + 2)}
        self.interior = {k: lat.lattice_points_at_degree(self.cone, k, True)
                         for k in range(dim + 2)}
        cells = max(len(self.points[k])
                    * (len(self.derivs) * len(self.points[k - 1])
                       + len(self.interior[k]))
                    for k in range(1, dim + 2))
        if cells > MATRIX_CELL_BUDGET:
            raise DimensionBudgetExceeded(
                f"multiplication matrix of {cells} cells exceeds budget "
                f"{MATRIX_CELL_BUDGET}")
        all_pts = [p for k in range(dim + 2) for p in self.points[k]]
        if subdivision.is_trivial():
            self.masks = {p: 1 for p in all_pts}
        else:
            self.masks = _cell_masks(subdivision, all_pts)

    def multiplication_matrix(self, k: int, interior_source: bool = False):
        """Rows indexed by degree-k points (interior points when
        interior_source), columns by (derivative, degree-(k-1) point)."""
        rows_pts = self.interior[k] if interior_source else self.points[k]
        cols_pts = self.interior[k - 1] if interior_source else self.points[k - 1]
        index = {p: i for i, p in enumerate(rows_pts)}
        mat = np.zeros((len(rows_pts), len(self.derivs) * len(cols_pts)),
                       dtype=np.int64)
        col = 0
        for deriv in self.derivs:
            for m in cols_pts:
                mmask = self.masks[m]
                for mp, c in deriv.items():
                    if self.masks[mp] & mmask:
                        target = tuple(a + b for a, b in zip(mp, m))
                        mat[index[target], col] += c
                col += 1
        return mat

    def augmented_with_interior(self, mat, k: int):
        rows_pts = self.points[k]
        index = {p: i for i, p in enumerate(rows_pts)}
        cols = []
        for p in self.interior[k]:
            e = np.zeros(len(rows_pts), dtype=np.int64)
            e[index[p]] = 1
            cols.append(e)
        if not cols:
            return mat
        return np.concatenate([mat, np.stack(cols, axis=1)], axis=1)


def graded_quotient_dims(g: DegreeOneElement,
                         subdivision: FanSubdivision | None = None,
                         seed: int | None = None) -> GradedQuotientReport:
    """Exact graded dimensions of the quotient by the logarithmic
    derivatives in the deformed ring, and of the interior image inside it,
    for degrees 0 .. dim (degree dim+1 is computed and reported separately
    as the regularity cutoff)."""
    if subdivision is None:
        subdivision = lat.trivial_subdivision(g.cone)
    ws = _QuotientWorkspace(g, subdivision)
    dim = g.cone.dim
    r0 = []
    r1 = []
    for k in range(dim + 2):
        if k == 0:
            r0.append(1)
            r1.append(1 if ws.interior[0] else 0)
            continue
        mat = ws.multiplication_matrix(k)
        aug = ws.augmented_with_interior(mat, k)
        if aug is mat:
            rank_m = rank_aug = la.rank(mat, g.field)
        else:
            rank_m, rank_aug = la.ranks_with_prefix(aug, mat.shape[1], g.field)
        r0.append(len(ws.points[k]) - rank_m)
        r1.append(rank_aug - rank_m)
    s_total = s_polynomial(g.cone)(1)
    regular = (r0[dim + 1] == 0 and r1[dim + 1] == 0
               and sum(r0[: dim + 1]) == s_total)
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
    witness: GradedCone | None
    detail: str


def is_sigma_regular(g: DegreeOneElement,
                     subdivision: FanSubdivision | None = None) -> RegularityVerdict:
    """Regularity via restriction to every maximal cell: the quotient of
    each cell ring must be finite-dimensional (zero at degree dim+1 with
    total dimension matching the cell's S-polynomial at t=1).

    A failed check is reported as "not regular at the degree cutoff": the
    criterion is sound for positive verdicts, while a negative one names
    the first cell whose quotient has not terminated by degree dim+1.
    """
    if subdivision is None:
        subdivision = lat.trivial_subdivision(g.cone)
    for cell in subdivision.max_cones:
        restricted = g.restrict(cell)
        report = graded_quotient_dims(restricted,
                                      lat.trivial_subdivision(cell))
        if not report.regular_profile:
            return RegularityVerdict(
                regular=False, witness=cell,
                detail=f"cell quotient not finite at cutoff: "
                       f"dims {report.dims_R0} + top {report.top_degree_dims}")
    return RegularityVerdict(regular=True, witness=None, detail="all cells pass")


def pairing_matrix(g: DegreeOneElement, subdivision: FanSubdivision | None,
                   k: int):
    """Multiplication pairing between the degree-k quotient and the
    complementary-degree interior quotient, evaluated in the 1-dimensional
    top interior quotient; full rank for regular elements."""
    if subdivision is None:
        subdivision = lat.trivial_subdivision(g.cone)
    verdict = is_sigma_regular(g, subdivision)
    if not verdict.regular:
        raise NotRegular(verdict.detail)
    dim = g.cone.dim
    if k > dim or k < 0:
        return []
    # symmetry of the induced interior pairing, asserted as rank equality
    report = graded_quotient_dims(g, subdivision)
    if report.dims_R1[k] != report.dims_R1[dim - k]:
        raise NotRegular(
            f"interior ranks at degrees {k} and {dim - k} differ")
    ws = _QuotientWorkspace(g, subdivision)
    kind, prime = la.parse_field(g.field)

    def quotient_basis(kk: int, interior: bool):
        pts = ws.interior[kk] if interior else ws.points[kk]
        if kk == 0:
            return list(pts), []
        mat = ws.multiplication_matrix(kk, interior_source=interior)
        if mat.shape[1] == 0:
            return list(pts), []
        rows = mat.T.tolist()  # span of the image inside the degree piece
        if kind == "prime":
            _, pivots, rref = la.rref_mod_p(rows, prime)
            reduced = [[int(x) for x in row] for row in rref.tolist()]
        else:
            rref, pivots = la.rref_fraction(rows)
            reduced = rref
        basis = [pts[i] for i in range(len(pts)) if i not in set(pivots)]
        echelon = [(p, reduced[i]) for i, p in enumerate(pivots)]
        return basis, echelon

    basis_k, _ = quotient_basis(k, interior=False)
    basis_comp, _ = quotient_basis(dim - k, interior=True)
    top_basis, top_echelon = quotient_basis(dim, interior=True)
    if len(top_basis) != 1:
        raise NotRegular("top interior quotient is not one-dimensional")
    top_index = {p: i for i, p in enumerate(ws.interior[dim])}
    free_coord = top_index[top_basis[0]]

    def evaluate_top(point) -> object:
        """Class of an interior degree-dim monomial in the 1-dim quotient."""
        vec = [0] * len(ws.interior[dim])
        vec[top_index[point]] = 1
        if kind == "prime":
            vec = [v % prime for v in vec]
            for pcoord, row in top_echelon:
                c = vec[pcoord]
                if c:
                    vec = [(a - c * b) % prime for a, b in zip(vec, row)]
        else:
            from fractions import Fraction
            vec = [Fraction(v) for v in vec]
            for pcoord, row in top_echelon:
                c = vec[pcoord]
                if c:
                    vec = [a - c * b for a, b in zip(vec, row)]
        return vec[free_coord]

    matrix = []
    for a in basis_k:
        row = []
        for b in basis_comp:
            if ws.masks[a] & ws.masks[b]:
                row.append(evaluate_top(tuple(x + y for x, y in zip(a, b))))
            else:
                row.append(0)
        matrix.append(row)
    if matrix and matrix[0]:
        if kind == "prime":
            rank = la.rank_mod_p(matrix, prime)
        else:
            rank = la.rank_fraction(matrix)
        if rank != len(matrix) or len(matrix) != len(matrix[0]):
            raise NotRegular(
                f"pairing at degree {k} is {len(matrix)}x{len(matrix[0])} "
                f"of rank {rank}")
    return matrix
