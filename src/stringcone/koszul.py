"""The paired-monomial complex of a reflexive pair and its cohomology.

The underlying space is the exterior algebra of the dual-side lattice
tensored with the span of monomial pairs [m, n] (m in K, n in K*) that
pair to zero.  The differential contracts by m while multiplying on the
K-side and wedges by n while multiplying on the K*-side, projecting away
any product that leaves the orthogonality locus:

    D = sum_m f(m) (contract by m) (x) [m]  +  sum_n g(n) (n ^ .) (x) [n].

D^2 = 0 holds unconditionally because pairings of cone points are
nonnegative, so the projected multiplications commute.  The differential
preserves s = (exterior degree) + deg(m) - deg(n) and raises
t = deg(m) + deg(n) by one; cohomology is reported per (s, t) piece.

For regular f, g the cohomology matches, piece by piece, the sum over
faces C of tilde-S coefficient products placed at exterior degree
dim(C*): contributions of (a, b) sit at (s, t) = (dim C* + a - b, a + b).
Replacing the K*-side ring by a deformed one (a regular subdivision of
the dual cone) leaves all reported dimensions unchanged.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import intlinalg as la
from . import lattice as lat
from .errors import CapTooSmall, DimensionBudgetExceeded, NotRegular
from .lattice import FanSubdivision, ReflexivePair
from .semigroup import (MATRIX_CELL_BUDGET, DegreeOneElement, _cell_masks,
                        is_sigma_regular)
from .stringy import face_tilde_s


@dataclass(frozen=True)
class DifferentialBlock:
    """Matrix of the differential between two graded pieces."""

    source: tuple  # (deg m, deg n, exterior degree)
    target: tuple
    matrix: tuple  # rows = target basis, columns = source basis


@dataclass(frozen=True)
class PairedMonomialSpace:
    """Basis bookkeeping for the complex, keyed by graded piece."""

    pair: ReflexivePair
    cap: int
    pieces: dict  # (a, b, e) -> list of (exterior index tuple, m, n)

    def piece_dim(self, key) -> int:
        return len(self.pieces.get(key, ()))

    def total_dim(self) -> int:
        return sum(len(v) for v in self.pieces.values())


class KoszulComplex:
    """Assembled blocks of D together with the scalar field context."""

    def __init__(self, space: PairedMonomialSpace, blocks, field: str):
        self.space = space
        self.blocks = list(blocks)
        self.field = field

    def verify_d_squared(self) -> bool:
        """The composite into each target must vanish after summing over
        every intermediate piece."""
        by_source: dict = {}
        for b in self.blocks:
            by_source.setdefault(b.source, []).append(b)
        for src, firsts in by_source.items():
            composites: dict = {}
            for b1 in firsts:
                m1 = np.array(b1.matrix, dtype=np.int64)
                for b2 in by_source.get(b1.target, ()):
                    m2 = np.array(b2.matrix, dtype=np.int64)
                    composites[b2.target] = composites.get(b2.target, 0) \
                        + m2 @ m1
            for total in composites.values():
                if np.any(total):
                    return False
        return True


def _exterior_contract(index: tuple, vector) -> list:
    """Contraction of a basis wedge by a lattice vector (on the dual side)."""
    out = []
    for j, i in enumerate(index):
        coeff = vector[i]
        if coeff:
            rest = index[:j] + index[j + 1:]
            out.append((rest, (-1) ** j * coeff))
    return out


def _exterior_wedge(index: tuple, vector) -> list:
    """Left wedge by a lattice vector against a basis wedge."""
    out = []
    for i, coeff in enumerate(vector):
        if not coeff or i in index:
            continue
        pos = sum(1 for k in index if k < i)
        new = tuple(sorted(index + (i,)))
        out.append((new, (-1) ** pos * coeff))
    return out


def build_complex(pair: ReflexivePair, f: DegreeOneElement,
                  g: DegreeOneElement, cap: int | None = None,
                  dual_subdivision: FanSubdivision | None = None,
                  check_regular: bool = True,
                  field: str | None = None) -> KoszulComplex:
    """Assemble all differential blocks with source bidegrees within cap.

    f lives on the cone, g on the dual cone; both are checked for
    regularity unless check_regular is disabled (degenerate inputs still
    give a complex: the defining identity D^2 = 0 is unconditional).
    """
    k_cone, k_dual = pair.cone, pair.dual
    if f.cone != k_cone or g.cone != k_dual:
        raise ValueError("elements must live on the cone and its dual")
    if cap is None:
        cap = k_cone.dim
    if cap < k_cone.dim:
        raise CapTooSmall(f"cap {cap} below cone dimension {k_cone.dim}")
    rank = k_cone.ambient_rank

    points_k = [p for d in range(cap + 1)
                for p in lat.lattice_points_at_degree(k_cone, d)]
    points_d = [p for d in range(cap + 1)
                for p in lat.lattice_points_at_degree(k_dual, d)]
    deg_k = {p: la.dot(k_cone.deg, p) for p in points_k}
    deg_d = {p: la.dot(k_dual.deg, p) for p in points_d}
    arr_d = np.array(points_d, dtype=np.int64).reshape(-1, rank)
    orthogonal_n = {m: [points_d[y] for y in np.flatnonzero(arr_d @ m == 0)]
                    for m in points_k}
    # a piece (a, b, e) has pairs[a, b] C(rank, e) elements and D maps it to
    # (a+1, b, e-1) and (a, b+1, e+1): sum_e C(r, e) C(r, e -+ 1) = C(2r, r-1)
    pairs = Counter((deg_k[m], deg_d[n])
                    for m, ns in orthogonal_n.items() for n in ns)
    cells = math.comb(2 * rank, rank - 1) * sum(
        c * (pairs[a + 1, b] + pairs[a, b + 1]) for (a, b), c in pairs.items())
    if cells > MATRIX_CELL_BUDGET:
        raise DimensionBudgetExceeded(
            f"Koszul differential of {cells} dense cells exceeds budget "
            f"{MATRIX_CELL_BUDGET}")
    if check_regular:
        for elem, sub in ((f, None), (g, dual_subdivision)):
            verdict = is_sigma_regular(elem, sub)
            if not verdict.regular:
                raise NotRegular(verdict.detail)
    field = field or f.field

    if dual_subdivision is None:
        common = None
    else:
        common = _cell_masks(dual_subdivision, points_d)

    pieces: dict = {}
    index_of: dict = {}
    for m in points_k:
        for n in orthogonal_n[m]:
            for e in range(rank + 1):
                for idx in combinations(range(rank), e):
                    key = (deg_k[m], deg_d[n], e)
                    lst = pieces.setdefault(key, [])
                    index_of[(idx, m, n)] = (key, len(lst))
                    lst.append((idx, m, n))
    space = PairedMonomialSpace(pair=pair, cap=cap, pieces=pieces)

    blocks: dict = {}

    def add_entry(src_key, src_pos, tgt_key, tgt_pos, value):
        mat = blocks.setdefault((src_key, tgt_key), {})
        mat[(tgt_pos, src_pos)] = mat.get((tgt_pos, src_pos), 0) + value

    for key, basis in pieces.items():
        a, b, e = key
        for src_pos, (idx, m, n) in enumerate(basis):
            if a + 1 <= cap:
                for mp, c in f.coefficients:
                    if la.dot(mp, n) != 0:
                        continue  # projection kills the product
                    m2 = tuple(x + y for x, y in zip(m, mp))
                    for rest, sign in _exterior_contract(idx, mp):
                        tgt = index_of.get((rest, m2, n))
                        if tgt is not None:
                            add_entry(key, src_pos, tgt[0], tgt[1], sign * c)
            if b + 1 <= cap:
                for np_, c in g.coefficients:
                    if la.dot(m, np_) != 0:
                        continue
                    if common is not None and not (common[n] & common[np_]):
                        continue  # deformed dual-side product vanishes
                    n2 = tuple(x + y for x, y in zip(n, np_))
                    for new, sign in _exterior_wedge(idx, np_):
                        tgt = index_of.get((new, m, n2))
                        if tgt is not None:
                            add_entry(key, src_pos, tgt[0], tgt[1], sign * c)

    built = []
    for (src_key, tgt_key), entries in sorted(blocks.items()):
        rows = len(pieces.get(tgt_key, ()))
        cols = len(pieces.get(src_key, ()))
        mat = [[0] * cols for _ in range(rows)]
        for (i, j), v in entries.items():
            mat[i][j] = v
        built.append(DifferentialBlock(
            source=src_key, target=tgt_key,
            matrix=tuple(tuple(row) for row in mat)))
    return KoszulComplex(space=space, blocks=built, field=field)


def cohomology_dims(complex_: KoszulComplex) -> dict:
    """dim ker - dim im per conserved piece (s, t) where s = e + a - b and
    t = a + b; the differential maps (s, t) to (s, t+1)."""
    space = complex_.space
    grouped: dict = {}
    for key, basis in space.pieces.items():
        a, b, e = key
        st = (e + a - b, a + b)
        grouped.setdefault(st, []).append(key)

    def assemble(st):
        """Matrix of D from the (s,t) piece to the (s,t+1) piece."""
        s, t = st
        src_keys = sorted(grouped.get((s, t), []))
        tgt_keys = sorted(grouped.get((s, t + 1), []))
        src_off = {}
        off = 0
        for k in src_keys:
            src_off[k] = off
            off += space.piece_dim(k)
        tgt_off = {}
        t_off = 0
        for k in tgt_keys:
            tgt_off[k] = t_off
            t_off += space.piece_dim(k)
        mat = np.zeros((t_off, off), dtype=np.int64)
        for block in complex_.blocks:
            if block.source in src_off and block.target in tgt_off:
                sub = np.array(block.matrix, dtype=np.int64).reshape(
                    space.piece_dim(block.target), space.piece_dim(block.source))
                i0 = tgt_off[block.target]
                j0 = src_off[block.source]
                mat[i0:i0 + sub.shape[0], j0:j0 + sub.shape[1]] += sub
        return mat

    ranks = {st: la.rank(assemble(st), complex_.field) for st in grouped}
    dims = {}
    for st in grouped:
        s, t = st
        total = sum(space.piece_dim(k) for k in grouped[st])
        h = total - ranks.get(st, 0) - ranks.get((s, t - 1), 0)
        if h:
            dims[st] = h
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
    """Face-sum prediction: tilde-S(C)[a] * tilde-S(C*)[b] classes at
    exterior degree dim C*, i.e. at (s, t) = (dim C* + a - b, a + b)."""
    expected: dict = {}
    face_terms = []
    fl = lat.face_lattice(pair.cone)
    for face in fl.faces:
        dual = pair.dual_face(face)
        ts = face_tilde_s(face)
        ts_dual = face_tilde_s(dual)
        for a, ca in ts.coeffs.items():
            for b, cb in ts_dual.coeffs.items():
                st = (dual.dim + a - b, a + b)
                expected[st] = expected.get(st, 0) + ca * cb
                face_terms.append(((face.dim, dual.dim), a, b, ca * cb))
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
    complex_ = build_complex(pair, f, g, cap=cap,
                             dual_subdivision=dual_subdivision)
    cap = complex_.space.cap
    dims = cohomology_dims(complex_)
    expected, face_terms = expected_cohomology(pair)
    window = cap - 1
    computed_window = {st: d for st, d in dims.items() if st[1] <= window}
    expected_window = {st: d for st, d in expected.items() if st[1] <= window}
    boundary = tuple(sorted(st for st in dims if st[1] > window))
    matches = computed_window == expected_window
    return DecompositionReport(matches=matches, computed=computed_window,
                               expected=expected_window, boundary=boundary,
                               face_terms=face_terms)
