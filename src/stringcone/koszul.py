"""The paired-monomial complex of a reflexive pair and its cohomology.

The underlying space is the exterior algebra of the dual-side lattice
tensored with the span of monomial pairs [m, n] (m in K, n in K*) that pair
to zero.  The differential contracts by m while multiplying on the K-side
and wedges by n while multiplying on the K*-side (each product, with a
deformed K*-side's cell rule, from lattice.product_table), projecting away
any product that leaves the orthogonality locus:

    D = sum_m f(m) (contract by m) (x) [m]  +  sum_n g(n) (n ^ .) (x) [n].

A basis wedge is the bitmask q of its factors: contraction by e_i clears
bit i, left wedge by e_i sets it, both with sign (-1)^(factors of q below i).
D^2 = 0 holds unconditionally because pairings of cone points are
nonnegative, so the projected multiplications commute.  The differential
preserves s = (exterior degree) + deg(m) - deg(n) and raises
t = deg(m) + deg(n) by one.  The complex is built on the triangle t <= cap:
the pieces with t < cap then see their whole in- and out-differentials, and
those with t = cap are only the targets of D(s, cap-1).  D is stored as one
SparseMatrix (int64 triplets) per piece with t < cap, from (s, t) to
(s, t+1), whose basis is numbered as it is enumerated.  The pairs come face
by face: m.n = 0 exactly when n lies on the dual face of the face whose
relative interior holds m.  One count of the elements and triplets, made
before any point is built, is held to MATRIX_CELL_BUDGET.  Cohomology is
reported per (s, t) piece with t < cap, and D(s, t) is ranked only on the
columns that D(s, t-1)'s pivot rows leave out: t goes up, and one block
rank call ranks the pieces of each t together.

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
    """Basis of the complex: the number of elements (wedge, m, n) of each
    conserved piece (s, t) with t <= cap."""

    pair: ReflexivePair
    cap: int
    sizes: dict  # (s, t) -> int

    def total_dim(self) -> int:
        return sum(self.sizes.values())


@dataclass(frozen=True)
class KoszulComplex:
    """The differential of every piece, over the scalar field of f and g."""

    space: PairedMonomialSpace
    blocks: dict  # (s, t) with t < cap -> la.SparseMatrix of D into (s, t+1)
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
    """The pairs [m, n] with m.n = 0 and deg m + deg n <= cap, counted before
    any point is built.  Each face C pairs its relative-interior points,
    counted by t^dim C S_C(1/t) / (1-t)^dim C (Ehrhart reciprocity), with
    the points of its dual face C*, counted by S_C*(t) / (1-t)^dim C*: each
    term s_i t^(dim C - i) s*_j t^j of the numerators' product adds its
    coefficient times C(cap - k + dim K, dim K), k = dim C - i + j, the t^cap
    coefficient of t^k / (1-t)^(dim K + 1)."""
    dim = pair.cone.dim
    return sum(x * y * math.comb(cap - face.dim + i - j + dim, dim)
               for face in lat.face_lattice(pair.cone).faces
               for i, x in enumerate(face_s(face).coeffs)
               for j, y in enumerate(face_s(pair.dual_face(face)).coeffs))


def build_complex(pair: ReflexivePair, f: DegreeOneElement,
                  g: DegreeOneElement, cap: int | None = None,
                  dual_subdivision: FanSubdivision | None = None,
                  ) -> KoszulComplex:
    """Assemble the differential of every piece (s, t) with t < cap on the
    pairs with deg m + deg n <= cap, over the scalar field of f and g.

    f lives on the cone, g on the dual cone, both over the same field;
    each is checked for regularity on one deformed ring of its cone.
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

    points_k, points_d = ([p for d in range(cap + 1)
                           for p in lat.lattice_points_at_degree(cone, d)]
                          for cone in (k_cone, k_dual))
    arr_k, arr_d, vecs = (np.array(x, np.int64).reshape(-1, rank) for x in (
        points_k, points_d, [p for p, _ in moves]))
    a, b = arr_k @ k_cone.deg, arr_d @ k_dual.deg
    # element e is (wedge q = e % width, m, n) of orthogonal pair e // width,
    # pairs with a + b <= cap in row-major order; pieces are numbered as
    # they first appear, and an element by the elements of its piece before it
    pk, pd = _orthogonal_pairs(arr_k, arr_d, k_cone.facets)
    keep = a[pk] + b[pd] <= cap
    pk, pd = pk[keep], pd[keep]
    width = 1 << rank
    s = (np.array([q.bit_count() for q in range(width)])
         + (a[pk] - b[pd])[:, None]).ravel()
    t = np.repeat(a[pk] + b[pd], width)
    _, first, inverse = np.unique((s + cap) * (cap + 1) + t,
                                  return_index=True, return_inverse=True)
    lead = first[inverse]  # the first element of each element's piece
    order = np.argsort(lead, kind="stable")  # elements grouped by piece
    pos = np.argsort(order)  # place of each element in that grouping
    number = pos - pos[lead]
    first = np.sort(first)
    cut = np.r_[pos[first], len(order)].tolist()
    sizes = dict(zip(zip(s[first].tolist(), t[first].tolist()),
                     np.diff(cut).tolist()))
    del keep, s, t, first, inverse, lead, pos  # the triplets set the peak

    # the projection keeps f(m') [m'] on [m, n] when m'.n = 0, and g(n') [n']
    # when m.n' = 0 and, on a deformed dual side, a cell holds n and n' (the
    # product table's rule): to[x, j] is the pair within the cap that move j
    # takes pair x to, or -1 (so always at t = cap), found by its key
    # pk * (|P_K*| + 1) + pd (a table's -1 gives none)
    coeffs = np.array([c for _, c in moves], np.int64)
    lower = np.arange(len(moves)) < len(f.coefficients)  # contract, or wedge
    cells = () if dual_subdivision is None else dual_subdivision.max_cones
    stride = len(points_d) + 1
    key = pk * stride + pd
    want = np.concatenate([
        lat.product_table(arr_k, vecs[lower], arr_k)[pk] * stride + pd[:, None],
        pk[:, None] * stride + lat.product_table(
            arr_d, vecs[~lower], arr_d, cells)[pd]], axis=1)
    to = np.minimum(np.searchsorted(key, want), len(key) - 1)
    to[key[to] != want] = -1
    del key, want
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
        shape=(sizes.get((s_, t_ + 1), 0), size),
        rows=rows[lo:hi], cols=cols[lo:hi], vals=vals[lo:hi])
        for ((s_, t_), size), lo, hi in zip(sizes.items(), cut, cut[1:])
        if t_ < cap}
    return KoszulComplex(space=PairedMonomialSpace(pair, cap, sizes),
                         blocks=blocks, field=f.field)


def cohomology_dims(complex_: KoszulComplex) -> dict:
    """dim ker - dim im of D on each conserved piece (s, t) with t < cap,
    where s = e + deg m - deg n and t = deg m + deg n.

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
    for (s, t), rank in ranks.items():
        h = complex_.space.sizes[s, t] - rank - ranks.get((s, t - 1), 0)
        if h:
            dims[s, t] = h
    return dims


@dataclass(frozen=True)
class DecompositionReport:
    """Comparison of complex cohomology with the face-sum prediction."""

    matches: bool
    computed: dict       # (s, t) -> dim, on the pieces with t < cap
    expected: dict       # (s, t) -> dim from tilde-S products
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
    on every (s, t) piece with t < cap.

    Those pieces see their full in- and out-differentials on the triangle
    deg m + deg n <= cap, and the face-sum prediction lies on
    t <= dim K - 1 <= cap - 1, so every cap compares the whole prediction."""
    return decomposition_report(build_complex(
        pair, f, g, cap=cap, dual_subdivision=dual_subdivision))


def decomposition_report(complex_: KoszulComplex) -> DecompositionReport:
    """compare_with_decomposition on a complex that is already built."""
    dims = cohomology_dims(complex_)
    expected, face_terms = expected_cohomology(complex_.space.pair)
    return DecompositionReport(matches=dims == expected, computed=dims,
                               expected=expected, face_terms=face_terms)
