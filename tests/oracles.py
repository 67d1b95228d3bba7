"""Reference implementations that share no code with what they check.

`point_in_cone` tests one point against the equations and facets in
Python integers; every "in the cell" and "one cell holds both" below is
decided by it.  `sum_table` is `lattice.product_table` from a dict of the
target points.  `slice_scan` is the bounding-box scan that
lattice_points_at_degree used before it enumerated half-open box classes:
each facet functional is broadcast over the per-axis coordinate ranges of
the degree-k box of the generators.  Its cost depends on the basis; its
answer does not.
`full_matrix_dims` is the graded ring's quotient dimensions from the full
multiplication matrix of every derivative and every lower-degree point,
assembled by one Python loop over the points.  It enumerates and ranks
degree dim+1 whatever degree dim gives, so it checks the cutoff that
stops the graded ring at degree dim.  `paired_elements` lists the Koszul
basis from a scan of every point pair, in the order the build numbers it.
`full_block_cohomology` ranks every Koszul differential on all its
columns, so it checks the column skip of `koszul.cohomology_dims`.
`sigma_regular_by_cells` decides regularity cell by cell, one cell ring
each from the element restricted to the cell.  It shares
`graded_quotient_dims`, which `full_matrix_dims` checks, with
`semigroup.is_sigma_regular`, so it checks only that one deformed ring
decides what every cell ring decides.
"""

import math

import numpy as np

from stringcone import intlinalg as la
from stringcone import semigroup as sg
from stringcone.errors import DimensionBudgetExceeded
from stringcone.lattice import (_BOX_BUDGET, _check_int64,
                                lattice_points_at_degree, trivial_subdivision)


def point_in_cone(cone, x, strict: bool = False) -> bool:
    if any(la.dot(e, x) != 0 for e in cone.equations):
        return False
    if strict:
        return all(la.dot(f, x) > 0 for f in cone.facets)
    return all(la.dot(f, x) >= 0 for f in cone.facets)


def cells_holding(cells, points):
    """The set of indices of the cells that hold each point."""
    return {p: {i for i, cell in enumerate(cells) if point_in_cone(cell, p)}
            for p in points}


def sum_table(source, support, target, cells=()):
    """Index of a + b in target for a in source and b in support, or -1
    where it is absent or, with more than one cell, no cell holds both."""
    index = {p: i for i, p in enumerate(target)}
    holders = cells_holding(cells, set(source) | set(support))
    return [[index.get(tuple(x + y for x, y in zip(a, b)), -1)
             if len(cells) < 2 or holders[a] & holders[b] else -1
             for b in support] for a in source]


def slice_scan(cone, k: int, interior: bool):
    if k < 0:
        raise ValueError("degree must be nonnegative")
    origin = (tuple([0] * cone.ambient_rank),)
    if not cone.generators:
        return origin if k == 0 else ()
    if k == 0:
        return origin if not interior or not cone.facets else ()
    lo = [k * min(column) for column in zip(*cone.generators)]
    hi = [k * max(column) for column in zip(*cone.generators)]
    shape = [h - l + 1 for l, h in zip(lo, hi)]
    size = math.prod(shape)
    if size > _BOX_BUDGET:
        raise DimensionBudgetExceeded(f"bounding box of size {size}")
    _check_int64((cone.deg,) + cone.equations + cone.facets, (lo, hi),
                 cone.ambient_rank)
    axes = np.ix_(*(np.arange(l, h + 1, dtype=np.int64)
                    for l, h in zip(lo, hi)))

    def values(f):
        total = np.zeros(shape, dtype=np.int64)  # the one full-box array
        for c, x in zip(f, axes):
            if c:
                total += c * x
        return total

    mask = values(cone.deg) == k
    for e in cone.equations:
        mask &= values(e) == 0
    for f in cone.facets:
        mask &= (values(f) > 0) if interior else (values(f) >= 0)
    return tuple(map(tuple, (np.argwhere(mask) + lo).tolist()))


def full_matrix_dims(g, sub):
    """(dims_R0, dims_R1, top_degree_dims) from one rank per degree of the
    full multiplication matrix with one unit column per interior point."""
    derivs = sg.logarithmic_derivatives(g)
    points, interior = ({k: lattice_points_at_degree(g.cone, k, inner)
                         for k in range(g.cone.dim + 2)}
                        for inner in (False, True))
    holders = cells_holding(sub.max_cones, [p for k in range(g.cone.dim + 1)
                                            for p in points[k]])
    r0, r1 = [1], [1 if interior[0] else 0]
    for k in range(1, g.cone.dim + 2):
        index = {p: i for i, p in enumerate(points[k])}
        prev = points[k - 1]
        mat = np.zeros((len(index), len(derivs) * len(prev)
                        + len(interior[k])), dtype=np.int64)
        for d, deriv in enumerate(derivs):
            for i, m in enumerate(prev):
                for mp, w in deriv.items():
                    if holders[mp] & holders[m]:
                        mat[index[tuple(a + b for a, b in zip(mp, m))],
                            d * len(prev) + i] += w
        split = len(derivs) * len(prev)
        for j, p in enumerate(interior[k]):
            mat[index[p], split + j] = 1
        rank_m, rank_aug, _ = la.ranks_with_prefix(mat, (split,), g.field)
        r0.append(len(index) - rank_m)
        r1.append(rank_aug - rank_m)
    dim = g.cone.dim
    return tuple(r0[:dim + 1]), tuple(r1[:dim + 1]), (r0[-1], r1[-1])


def dense(mat):
    """A SparseMatrix as a dense int64 array; repeated entries add up."""
    out = np.zeros(mat.shape, dtype=np.int64)
    np.add.at(out, (mat.rows, mat.cols), mat.vals)
    return out


def paired_elements(pair, cap):
    """The elements (wedge, m, n) of each Koszul piece (s, t), numbered as
    the build numbers them: the pairs with m.n = 0 and deg m + deg n <= cap
    in row-major (m, n) order over the points listed by degree, then the
    wedge bitmasks q < 2**rank; pieces in the order they first appear."""
    points_k, points_d = ([p for d in range(cap + 1)
                           for p in lattice_points_at_degree(cone, d)]
                          for cone in (pair.cone, pair.dual))
    rank = pair.cone.ambient_rank
    pieces = {}
    for m in points_k:
        a = la.dot(m, pair.cone.deg)
        for n in points_d:
            b = la.dot(n, pair.dual.deg)
            if a + b <= cap and la.dot(m, n) == 0:
                for q in range(1 << rank):
                    wedge = tuple(i for i in range(rank) if q >> i & 1)
                    pieces.setdefault((len(wedge) + a - b, a + b), []).append(
                        (wedge, m, n))
    return pieces


def full_block_cohomology(complex_):
    """Koszul cohomology dims from the rank of every full differential
    block, with no column left out."""
    ranks = {st: la.ranks_with_prefix(dense(d), (d.shape[1],),
                                      complex_.field)[1]
             for st, d in complex_.blocks.items()}
    dims = {}
    for (s, t), rank in ranks.items():
        h = complex_.space.sizes[s, t] - rank - ranks.get((s, t - 1), 0)
        if h:
            dims[s, t] = h
    return dims


def restrict_element(g, cell):
    """g on the degree-one points of a subcone, its other terms dropped."""
    kept = tuple(mc for mc in g.coefficients if point_in_cone(cell, mc[0]))
    return sg.DegreeOneElement(cone=cell, coefficients=kept, field=g.field)


def sigma_regular_by_cells(g, sub):
    """Whether g restricted to every maximal cell of sub gives that cell's
    semigroup ring the regular profile."""
    cells = (g.cone,) if sub is None else sub.max_cones
    return all(sg.graded_quotient_dims(restrict_element(g, cell),
                                       trivial_subdivision(cell)).regular_profile
               for cell in cells)
