"""The paired-monomial complex of a reflexive pair and its cohomology.

The underlying space is the exterior algebra of the dual-side lattice
tensored with the span of monomial pairs [m, n] (m in K, n in K*) that
pair to zero.  The differential contracts by m while multiplying on the
K-side and wedges by n while multiplying on the K*-side, projecting away
any product that leaves the orthogonality locus:

    D = sum_m f(m) (contract by m) (x) [m]  +  sum_n g(n) (n ^ .) (x) [n].

A basis wedge is the bitmask q of its factors: contraction by e_i clears
bit i, left wedge by e_i sets it, both with sign (-1)^(factors of q below i).
D^2 = 0 holds unconditionally because pairings of cone points are
nonnegative, so the projected multiplications commute.  The differential
preserves s = (exterior degree) + deg(m) - deg(n) and raises
t = deg(m) + deg(n) by one, so it is stored as one SparseMatrix (int64
triplets) per piece, from (s, t) to (s, t+1), whose basis is numbered as it
is enumerated.  The pairs come face by face: m.n = 0 exactly when n lies
on the dual face of the face whose relative interior holds m.  One count
of the elements and triplets, made before any point is built, is held to
MATRIX_CELL_BUDGET.  Cohomology is reported per (s, t) piece, and D(s, t)
is ranked only on the columns that D(s, t-1)'s pivot rows leave out: t
goes up, and one block rank call ranks the pieces of each t together.

For regular f, g the cohomology matches, piece by piece, the sum over
faces C of tilde-S coefficient products placed at exterior degree
dim(C*): contributions of (a, b) sit at (s, t) = (dim C* + a - b, a + b),
which is the string cohomology table's (p, q) at (dim K - 1 - p, q + 1).
Replacing the K*-side ring by a deformed one (a regular subdivision of
the dual cone) leaves all reported dimensions unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import intlinalg as la
from . import lattice as lat
from .errors import CapTooSmall, NotRegular
from .lattice import FanSubdivision, ReflexivePair
from .semigroup import DegreeOneElement, is_sigma_regular
from .stringy import face_s, tilde_s_products


@dataclass(frozen=True)
class PairedMonomialSpace:
    """Basis of the complex: each conserved piece (s, t) lists its
    elements (exterior index tuple, m, n) in the order they are numbered."""

    pair: ReflexivePair
    cap: int
    pieces: dict  # (s, t) -> list of (exterior index tuple, m, n)

    def total_dim(self) -> int:
        return sum(len(v) for v in self.pieces.values())


@dataclass(frozen=True)
class KoszulComplex:
    """The differential of every piece, over the scalar field of f and g."""

    space: PairedMonomialSpace
    blocks: dict  # (s, t) -> la.SparseMatrix of D into (s, t+1)
    field: str

    def verify_d_squared(self) -> bool:
        """D(s, t+1) D(s, t) = 0 over the integers on every piece."""
        return all(_product_vanishes(self.blocks[s, t + 1], first)
                   for (s, t), first in self.blocks.items()
                   if (s, t + 1) in self.blocks)


def _product_vanishes(left: la.SparseMatrix, right: la.SparseMatrix) -> bool:
    """left @ right == 0 exactly: a sort-merge on the shared index pairs each
    entry of left with the entries of right in the row its column names, and
    the products are summed per entry in int64 when no sum can wrap, else
    in Python integers."""
    by_row = np.argsort(right.rows, kind="stable")
    lo, hi = (np.searchsorted(right.rows[by_row], left.cols, side)
              for side in ("left", "right"))
    li = np.repeat(np.arange(len(lo)), hi - lo)
    ri = by_row[np.arange(len(li)) + (lo - np.cumsum(hi - lo) + hi - lo)[li]]
    wide = (np.abs(left.vals).max(initial=0).item() * right.shape[0]
            * np.abs(right.vals).max(initial=0).item() >= 2**63)
    terms = left.vals[li].astype(object if wide else np.int64) * right.vals[ri]
    key = left.rows[li] * right.shape[1] + right.cols[ri]
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    return not np.add.reduceat(terms[order], starts).any()


@lru_cache(maxsize=None)
def _exterior_flips(rank: int) -> tuple:
    """The flips (i, q ^ 1 << i, sign) of each basis wedge q < 2**rank."""
    return tuple(tuple((i, q ^ 1 << i, (-1) ** (q & (1 << i) - 1).bit_count())
                       for i in range(rank))
                 for q in range(1 << rank))


def _shift_table(points: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Row of points[i] + support[j] among the distinct points, or -1."""
    sums = (points[:, None] + support[None]).reshape(-1, points.shape[1])
    _, label = np.unique(np.concatenate([points, sums]), axis=0,
                         return_inverse=True)
    row = np.full(len(label), -1)
    row[label[:len(points)]] = np.arange(len(points))
    return row[label[len(points):]].reshape(len(points), len(support))


def _orthogonal_pairs(points_k: np.ndarray, points_d: np.ndarray,
                      facets) -> tuple:
    """The indices (pk, pd) of the pairs with m.n = 0, in row-major order.
    That holds exactly when n lies on the dual face of the face whose
    relative interior holds m, the facets vanishing on m: one point per
    face is dotted with every n, and the face's other points repeat it."""
    _, rep, face = np.unique(points_k @ np.array(facets, np.int64).T == 0,
                             axis=0, return_index=True, return_inverse=True)
    of, pd = np.nonzero(points_k[rep] @ points_d.T == 0)
    per = np.bincount(of, minlength=len(rep))[face]
    at = np.searchsorted(of, face) - np.cumsum(per) + per
    pk = np.repeat(np.arange(len(points_k)), per)
    return pk, pd[at[pk] + np.arange(len(pk))]


def _pair_count(pair: ReflexivePair, cap: int) -> int:
    """The pairs [m, n] with m.n = 0 and deg m, deg n <= cap, counted before
    any point is built: each face C adds its relative-interior points times
    the points of its dual face C*, sum_i s_i C(cap + i, dim C) times
    sum_i s_i C(cap - i + dim C*, dim C*) (Ehrhart reciprocity)."""
    def points(face, interior: bool) -> int:
        return sum(c * math.comb(cap + (i if interior else face.dim - i),
                                 face.dim)
                   for i, c in enumerate(face_s(face).coeffs))

    return sum(points(face, True) * points(pair.dual_face(face), False)
               for face in lat.face_lattice(pair.cone).faces)


def build_complex(pair: ReflexivePair, f: DegreeOneElement,
                  g: DegreeOneElement, cap: int | None = None,
                  dual_subdivision: FanSubdivision | None = None,
                  ) -> KoszulComplex:
    """Assemble the differential of every piece (s, t) whose basis has
    bidegrees within cap, over the scalar field of f and g.

    f lives on the cone, g on the dual cone, both over the same field;
    both are checked for regularity.
    """
    k_cone, k_dual = pair.cone, pair.dual
    if f.cone != k_cone or g.cone != k_dual:
        raise ValueError("elements must live on the cone and its dual")
    if la.parse_field(f.field) != la.parse_field(g.field):
        raise ValueError(f"f is over {f.field} but g over {g.field}")
    if cap is None:
        cap = k_cone.dim
    if cap < k_cone.dim:
        raise CapTooSmall(f"cap {cap} below cone dimension {k_cone.dim}")
    rank = k_cone.ambient_rank
    moves = f.coefficients + g.coefficients
    # each pair has 2**rank elements, and a move changes one bit of half of
    # them per nonzero coordinate of its point: one triplet each at most
    count = _pair_count(pair, cap) << rank - 1
    count *= 2 + sum(x != 0 for p, _ in moves for x in p)
    la.refuse_over_budget(count, f"Koszul complex of {count} elements and "
                          "triplets exceeds budget")
    for elem, sub in ((f, None), (g, dual_subdivision)):
        verdict = is_sigma_regular(elem, sub)
        if not verdict.regular:
            raise NotRegular(verdict.detail)

    wedges = [tuple(i for i in range(rank) if q >> i & 1)
              for q in range(1 << rank)]
    points_k, points_d = ([p for d in range(cap + 1)
                           for p in lat.lattice_points_at_degree(cone, d)]
                          for cone in (k_cone, k_dual))
    arr_k, arr_d, vecs = (np.array(x, np.int64).reshape(-1, rank) for x in (
        points_k, points_d, [p for p, _ in moves]))
    a, b = arr_k @ k_cone.deg, arr_d @ k_dual.deg
    # element e is (wedges[e % width], m, n) of orthogonal pair e // width,
    # pairs in row-major order; pieces are numbered as they first appear,
    # and an element by the elements of its piece before it
    pk, pd = _orthogonal_pairs(arr_k, arr_d, k_cone.facets)
    width = 1 << rank
    s = (np.array([len(idx) for idx in wedges])
         + (a[pk] - b[pd])[:, None]).ravel()
    t = np.repeat(a[pk] + b[pd], width)
    _, first, inverse = np.unique((s + cap) * (2 * cap + 1) + t,
                                  return_index=True, return_inverse=True)
    lead = first[inverse]  # the first element of each element's piece
    order = np.argsort(lead, kind="stable")  # elements grouped by piece
    pos = np.argsort(order)  # place of each element in that grouping
    number = pos - pos[lead]
    first = np.sort(first)
    cut = np.r_[pos[first], len(order)].tolist()
    # each element's wedge, m and n in piece order, as shared tuples
    elems = [np.fromiter(objs, object, len(objs))[at] for objs, at in (
        (wedges, order % width), (points_k, pk[order // width]),
        (points_d, pd[order // width]))]
    pieces = {st: list(zip(*(x[lo:hi] for x in elems))) for st, lo, hi in zip(
        zip(s[first].tolist(), t[first].tolist()), cut, cut[1:])}
    del s, t, first, inverse, lead, pos, elems  # the triplets set the peak

    # the projection keeps f(m') [m'] on [m, n] when m'.n = 0, and g(n') [n']
    # when m.n' = 0 and, on a deformed dual side, n and n' share a cell:
    # to[x, j] is the pair within the cap that move j takes pair x to, or -1,
    # found by its key pk * (|P_K*| + 1) + pd (a shift table's -1 gives none)
    coeffs = np.array([c for _, c in moves], np.int64)
    lower = np.arange(len(moves)) < len(f.coefficients)  # contract, or wedge
    stride = len(points_d) + 1
    key = pk * stride + pd
    want = np.concatenate([
        _shift_table(arr_k, vecs[lower])[pk] * stride + pd[:, None],
        pk[:, None] * stride + _shift_table(arr_d, vecs[~lower])[pd]], axis=1)
    to = np.minimum(np.searchsorted(key, want), len(key) - 1)
    to[key[to] != want] = -1
    del key, want
    if dual_subdivision is not None:
        masks = lat.cell_masks(dual_subdivision.max_cones, points_d + [
            p for p, _ in g.coefficients])
        to[:, len(f.coefficients):][~np.array(
            [[x & y != 0 for y in masks[len(points_d):]]
             for x in masks[:len(points_d)]], dtype=bool)[pd]] = -1
    # contraction by m' clears bit i of q where m'_i != 0, wedge sets it;
    # triplets are taken in piece order, by source element, move and bit
    j, i = np.nonzero(vecs)
    flips = np.array(_exterior_flips(rank), dtype=np.int64)[:, i, 1:]
    at, ji = np.nonzero((to >= 0)[:, j][order // width] & (
        (np.arange(width)[:, None] >> i & 1) == lower[j])[order % width])
    cut = np.searchsorted(at, cut).tolist()
    e = order[at]  # the source element of each triplet
    rows = number[to[e // width, j[ji]] * width + flips[e % width, ji, 0]]
    cols = number[e]
    vals = (vecs[j, i] * coeffs[j])[ji] * flips[e % width, ji, 1]
    del at, ji, e, to
    blocks = {(s_, t_): la.SparseMatrix(
        shape=(len(pieces.get((s_, t_ + 1), ())), len(basis)),
        rows=rows[lo:hi], cols=cols[lo:hi], vals=vals[lo:hi])
        for ((s_, t_), basis), lo, hi in zip(pieces.items(), cut, cut[1:])}
    return KoszulComplex(space=PairedMonomialSpace(pair, cap, pieces),
                         blocks=blocks, field=f.field)


def cohomology_dims(complex_: KoszulComplex) -> dict:
    """dim ker - dim im of D on each conserved piece (s, t), where
    s = e + deg m - deg n and t = deg m + deg n.

    D(s, t) is ranked only on the columns off the pivot rows of D(s, t-1):
    the minor there is invertible (mod p, so over Q), so its columns span a
    W in im D(s, t-1) (in ker D(s, t), as D^2 = 0) that the unit vectors off
    those rows complement, and D(s, t) has the same image on them.  So t
    goes up, and one la.block_ranks call ranks the D(s, t) of every s."""
    ranks, reached, by_t = {}, {}, {}
    for s, t in sorted(complex_.blocks):
        by_t.setdefault(t, []).append(s)
    for t, ss in sorted(by_t.items()):
        for s, (rank, pivot_rows) in zip(ss, la.block_ranks(
                [(complex_.blocks[s, t], reached.pop((s, t), ())) for s in ss],
                complex_.field)):
            ranks[s, t], reached[s, t + 1] = rank, pivot_rows
    dims = {}
    for (s, t), basis in complex_.space.pieces.items():
        h = len(basis) - ranks[s, t] - ranks.get((s, t - 1), 0)
        if h:
            dims[s, t] = h
    return dims


@dataclass(frozen=True)
class DecompositionReport:
    """Comparison of complex cohomology with the face-sum prediction."""

    matches: bool
    computed: dict       # (s, t) -> dim, restricted to the reliable window
    expected: dict       # (s, t) -> dim from tilde-S products
    boundary: tuple      # (s, t) pieces affected by the bidegree cap
    face_terms: tuple    # ((dim C, dim C*), a, b, multiplicity)


def expected_cohomology(pair: ReflexivePair) -> tuple[dict, tuple]:
    """Face-sum prediction: each tilde-S product c = tildeS(C)[a] *
    tildeS(C*)[b] at Hodge bidegree (p, q) gives c classes at
    (s, t) = (dim K - 1 - p, q + 1) = (dim C* + a - b, a + b)."""
    expected: dict = {}
    face_terms = []
    for (p, q), c, face, dual, a, b in tilde_s_products(pair):
        st = (pair.cone.dim - 1 - p, q + 1)
        expected[st] = expected.get(st, 0) + c
        face_terms.append(((face.dim, dual.dim), a, b, c))
    return expected, tuple(face_terms)


def compare_with_decomposition(pair: ReflexivePair, f: DegreeOneElement,
                               g: DegreeOneElement, cap: int | None = None,
                               dual_subdivision: FanSubdivision | None = None,
                               ) -> DecompositionReport:
    """Cohomology of the complex against the face decomposition, compared
    on every (s, t) piece with t small enough to be unaffected by the cap.

    Pieces with t <= cap - 1 see their full in- and out-differentials
    (every bidegree on the t and t+1 anti-diagonals satisfies the
    rectangular cap), and the face-sum prediction is supported on
    t <= dim K - 1, so the default cap compares the whole prediction."""
    return decomposition_report(build_complex(
        pair, f, g, cap=cap, dual_subdivision=dual_subdivision))


def decomposition_report(complex_: KoszulComplex) -> DecompositionReport:
    """compare_with_decomposition on a complex that is already built."""
    cap = complex_.space.cap
    dims = cohomology_dims(complex_)
    expected, face_terms = expected_cohomology(complex_.space.pair)
    window = cap - 1
    computed_window = {st: d for st, d in dims.items() if st[1] <= window}
    expected_window = {st: d for st, d in expected.items() if st[1] <= window}
    boundary = tuple(sorted(st for st in dims if st[1] > window))
    matches = computed_window == expected_window
    return DecompositionReport(matches=matches, computed=computed_window,
                               expected=expected_window, boundary=boundary,
                               face_terms=face_terms)
