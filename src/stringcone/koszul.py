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
t = deg(m) + deg(n) by one, so it is stored as one int64 COO matrix per
piece, from (s, t) to (s, t+1), whose basis is numbered as it is
enumerated; cohomology is reported per (s, t) piece.

For regular f, g the cohomology matches, piece by piece, the sum over
faces C of tilde-S coefficient products placed at exterior degree
dim(C*): contributions of (a, b) sit at (s, t) = (dim C* + a - b, a + b),
which is the string cohomology table's (p, q) at (dim K - 1 - p, q + 1).
Replacing the K*-side ring by a deformed one (a regular subdivision of
the dual cone) leaves all reported dimensions unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import intlinalg as la
from . import lattice as lat
from .errors import CapTooSmall, DimensionBudgetExceeded, NotRegular
from .lattice import FanSubdivision, ReflexivePair
from .semigroup import MATRIX_CELL_BUDGET, DegreeOneElement, is_sigma_regular
from .stringy import face_s, tilde_s_products


@dataclass(frozen=True)
class Differential:
    """D from the (s, t) piece to the (s, t+1) piece as int64 triplets:
    entry vals[k] sits at target row rows[k], source column cols[k]."""

    shape: tuple  # (dim of (s, t+1), dim of (s, t))
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def dense(self) -> np.ndarray:
        mat = np.zeros(self.shape, dtype=np.int64)
        np.add.at(mat, (self.rows, self.cols), self.vals)
        return mat


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
    blocks: dict  # (s, t) -> Differential into (s, t+1)
    field: str

    def verify_d_squared(self) -> bool:
        """D(s, t+1) D(s, t) = 0 over the integers on every piece."""
        for (s, t), first in self.blocks.items():
            second = self.blocks.get((s, t + 1))
            if second is not None and np.any(second.dense() @ first.dense()):
                return False
        return True


@lru_cache(maxsize=None)
def _exterior_flips(rank: int) -> tuple:
    """The flips (i, q ^ 1 << i, sign) of each basis wedge q < 2**rank."""
    return tuple(tuple((i, q ^ 1 << i, (-1) ** (q & (1 << i) - 1).bit_count())
                       for i in range(rank))
                 for q in range(1 << rank))


def _as_array(points, rank: int) -> np.ndarray:
    return np.array(list(points), dtype=np.int64).reshape(-1, rank)


def _orthogonal_pairs(pair: ReflexivePair, cap: int) -> Counter:
    """The pairs [m, n] with m.n = 0 by bidegree (a, b), a, b <= cap,
    counted before any point is built: m.n = 0 exactly when n lies on the
    dual face C* of the face C whose relative interior holds m.  A face
    has S(t)/(1-t)^dim points by degree, S reversed on its relative
    interior (Ehrhart reciprocity)."""
    def counts(face, interior: bool) -> list:
        s = face_s(face).coeffs
        c = list((s + (0,) * (face.dim + 1 - len(s)))[::-1 if interior else 1])
        c += [0] * (cap - face.dim)
        for _ in range(face.dim):
            c = list(accumulate(c))
        return c

    pairs = Counter()
    for face in lat.face_lattice(pair.cone).faces:
        inner, outer = counts(face, True), counts(pair.dual_face(face), False)
        pairs.update({(a, b): x * y for a, x in enumerate(inner) if x
                      for b, y in enumerate(outer) if y})
    return pairs


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
    wedges = [tuple(i for i in range(rank) if q >> i & 1)
              for q in range(1 << rank)]
    # a pair of bidegree (a, b) gives one element per wedge to the piece
    # (deg wedge + a - b, a + b); D maps (s, t) into (s, t+1)
    dims = Counter()
    for (a, b), c in _orthogonal_pairs(pair, cap).items():
        for idx in wedges:
            dims[len(idx) + a - b, a + b] += c
    cells = sum(size * dims[s, t + 1] for (s, t), size in dims.items())
    if cells > MATRIX_CELL_BUDGET:
        raise DimensionBudgetExceeded(
            f"Koszul differential of {cells} dense cells exceeds budget "
            f"{MATRIX_CELL_BUDGET}")
    for elem, sub in ((f, None), (g, dual_subdivision)):
        verdict = is_sigma_regular(elem, sub)
        if not verdict.regular:
            raise NotRegular(verdict.detail)

    deg_k, deg_d = ({p: d for d in range(cap + 1)
                     for p in lat.lattice_points_at_degree(cone, d)}
                    for cone in (k_cone, k_dual))
    points_d = list(deg_d)
    arr_d = _as_array(points_d, rank)
    orthogonal = {m: np.flatnonzero(arr_d @ m == 0) for m in deg_k}
    pieces: dict = {}
    index_of: dict = {}  # (m, n) -> number of (wedges[q], m, n), per q
    for m, a in deg_k.items():
        for n in (points_d[y] for y in orthogonal[m]):
            b = deg_d[n]
            ids = index_of[m, n] = []
            for idx in wedges:
                basis = pieces.setdefault((len(idx) + a - b, a + b), [])
                ids.append(len(basis))
                basis.append((idx, m, n))
    space = PairedMonomialSpace(pair=pair, cap=cap, pieces=pieces)

    # q -> [(q ^ 1 << i, sign * v_i)]: contraction by v lowers q, wedge raises
    contract, wedge = ({vec: [[(q2, sign * vec[i]) for i, q2, sign in row
                               if vec[i] and (q2 < q) == lower]
                              for q, row in enumerate(_exterior_flips(rank))]
                        for vec, _ in elem.coefficients}
                       for lower, elem in ((True, f), (False, g)))
    # the projection keeps f(m') [m'] on [m, n] when m'.n = 0, and g(n') [n']
    # when m.n' = 0 and, on a deformed dual side, n and n' share a cell
    f_zero = arr_d @ _as_array((p for p, _ in f.coefficients), rank).T == 0
    g_zero = _as_array(deg_k, rank) @ _as_array(
        (p for p, _ in g.coefficients), rank).T == 0
    masks = (None if dual_subdivision is None else dict(zip(
        points_d, lat.cell_masks(dual_subdivision.max_cones, points_d))))
    coo = {st: ([], [], []) for st in pieces}
    for (m, a), g_row in zip(deg_k.items(), g_zero):
        for y in orthogonal[m]:
            n = points_d[y]
            b = deg_d[n]
            moves = []  # (move table, coefficient, numbers of the target)
            if a < cap:
                moves += [(contract[mp], c,
                           index_of[tuple(u + v for u, v in zip(m, mp)), n])
                          for (mp, c), z in zip(f.coefficients, f_zero[y])
                          if z]
            if b < cap:
                moves += [(wedge[np_], c,
                           index_of[m, tuple(u + v for u, v in zip(n, np_))])
                          for (np_, c), z in zip(g.coefficients, g_row)
                          if z and (masks is None or masks[n] & masks[np_])]
            for q, (idx, src) in enumerate(zip(wedges, index_of[m, n])):
                rows, cols, vals = coo[len(idx) + a - b, a + b]
                for table, c, target in moves:
                    for q2, w in table[q]:
                        rows.append(target[q2])
                        cols.append(src)
                        vals.append(w * c)

    blocks = {(s, t): Differential(
        shape=(len(pieces.get((s, t + 1), ())), len(pieces[s, t])),
        rows=np.array(rows, dtype=np.int64),
        cols=np.array(cols, dtype=np.int64),
        vals=np.array(vals, dtype=np.int64))
        for (s, t), (rows, cols, vals) in coo.items()}
    return KoszulComplex(space=space, blocks=blocks, field=f.field)


def cohomology_dims(complex_: KoszulComplex) -> dict:
    """dim ker - dim im of D on each conserved piece (s, t), where
    s = e + deg m - deg n and t = deg m + deg n."""
    ranks = {st: la.ranks_with_prefix(d.dense(), (d.shape[1],),
                                      complex_.field)[1]
             for st, d in complex_.blocks.items()}
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
