"""Exact lattice geometry: polytopes, duality, graded cones, face lattices,
lattice-point enumeration and fan subdivisions.

Everything is integer/rational arithmetic.  A lattice polytope P is read
through its Gorenstein cone, the cone over P x {1}: its extreme rays are
the vertices of P and its primitive facet normals (a, c) are the facets
a·x + c >= 0 of P, so the vertex reduction, the reflexivity test and the
vertices of a reflexive polytope's dual are all read off the facets of
that cone.  Facets come from the double description method in exact
integers, and each cone keeps the incidences it found as bitmasks (the
generators on which each facet vanishes); cones of dimension lower than
the ambient rank are handled through saturated span lattices.  Extreme
rays, lower hulls, face lattices (incidence closure), dual faces and
subdivision checks all read those bitmasks, and each face lattice carries
its one Eulerian poset, which numbers the faces as the lattice does.

Lattice points come from box groups (Stanley 1980).  A face is cut into
the simplices of a pulling triangulation, made half-open so that they
partition it (Koeppe and Verdoolaege 2008, Thm 3), and every degree-k
point is exactly one lifted box class, of some degree d, of one simplex
plus a sum of k - d of that simplex's generators.  The triangulation
restricts to faces, so one Smith form and one histogram of the classes
by support and degree per top simplex of the cone serve every face
(_simplex_box): stringy.face_s reads S off them, and
lattice_points_at_degree adds the sums to the top face's lifted classes,
so neither cost depends on the basis.  Every int64 kernel first checks
that its values cannot wrap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import intlinalg as la
from . import posets as po
from .errors import (
    DimensionBudgetExceeded,
    InvalidSubdivision,
    NotComplete,
    NotGorenstein,
    NotReflexivePair,
    OriginNotInterior,
)

AMBIENT_RANK_BUDGET = 8
_SUBSET_BUDGET = 200_000
_BOX_BUDGET = 20_000_000
BOX_GROUP_BUDGET = 1_000_000  # box points take ~330 B each: ~0.3 GB

Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticePolytope:
    """Full-dimensional lattice polytope given by its sorted vertex list,
    with the Gorenstein cone over it that lattice_polytope built to find
    the vertices (derived data, so equality is on the vertices)."""

    rank: int
    vertices: tuple[Vector, ...]
    cone: GradedCone = field(compare=False, repr=False)


@dataclass(frozen=True)
class RationalPolytope:
    """Polytope with exact rational vertices (the polar dual lives here)."""

    rank: int
    vertices: tuple[tuple[Fraction, ...], ...]


def lattice_polytope(vertices) -> LatticePolytope:
    """Canonicalize a vertex list: dedupe, require full dimension, drop
    non-extreme points (the non-extreme rays of the cone over them), sort."""
    pts = sorted({tuple(int(x) for x in v) for v in vertices})
    if not pts:
        raise ValueError("empty vertex list")
    rank = len(pts[0])
    if any(len(v) != rank for v in pts):
        raise ValueError("vertices of mixed rank")
    cone = cone_from_generators([v + (1,) for v in pts], ambient_rank=rank + 1,
                                deg=(0,) * rank + (1,))
    if cone.dim != rank + 1:
        raise ValueError("polytope is not full-dimensional")
    return LatticePolytope(rank=rank,
                           vertices=tuple(g[:-1] for g in cone.generators),
                           cone=cone)


def dual_polytope(p: LatticePolytope) -> RationalPolytope:
    """Polar dual {n : <m, n> >= -1 for all m in p}, exact: each facet
    a·x + c >= 0 of p gives the vertex a / c."""
    if any(f[-1] <= 0 for f in p.cone.facets):
        raise OriginNotInterior("origin is not in the interior")
    verts = [tuple(Fraction(a_i, f[-1]) for a_i in f[:-1])
             for f in p.cone.facets]
    return RationalPolytope(rank=p.rank, vertices=tuple(sorted(verts)))


def interior_lattice_points(p: LatticePolytope) -> list[Vector]:
    """Interior lattice points of p in lexicographic order: the interior
    degree-1 slice of its Gorenstein cone."""
    return [x[:-1] for x in lattice_points_at_degree(
        gorenstein_cone_over(p), 1, interior_only=True)]


def is_reflexive(p: LatticePolytope) -> bool:
    """Batyrev's facet-distance test: every facet a·x + c >= 0 of p, with
    (a, c) primitive integral, has c = 1.

    This is reflexivity.  With c = 1 everywhere, 0 is interior and the
    polar dual has the integral vertices a; an interior lattice point x
    has a·x + 1 > 0 with a·x an integer, so a·x >= 0 on every facet, which
    in a bounded polytope only 0 satisfies.  Conversely, if the dual vertex
    a/c is integral, c divides every a_i, and primitivity forces c = 1.
    """
    return all(f[-1] == 1 for f in gorenstein_cone_over(p).facets)


# ---------------------------------------------------------------------------
# Graded cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedCone:
    """Pointed rational cone with primitive extreme generators and an
    integral grading functional equal to 1 on every generator.

    Identity is structural on (ambient_rank, generators, deg), hashed once
    since cones key many caches; the facet and equation lists are canonical
    but derived data, and so is the incidence: incidence[j] is the bitmask
    of the generators on which facets[j] vanishes.
    """

    ambient_rank: int
    generators: tuple[Vector, ...]
    deg: Vector
    facets: tuple[Vector, ...] = field(compare=False)
    equations: tuple[Vector, ...] = field(compare=False)
    dim: int = field(compare=False)
    incidence: tuple[int, ...] = field(compare=False)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.ambient_rank, self.generators, self.deg))

    def is_simplicial(self) -> bool:
        return len(self.generators) == self.dim

    def __repr__(self) -> str:
        return (f"GradedCone(dim={self.dim}, rank={self.ambient_rank}, "
                f"generators={list(self.generators)})")


def _cone_facets_fulldim(gens, rank):
    """Sorted primitive facet normals h of the full-dimensional cone over
    gens, each paired with Z(h), the bitmask of the gens on which it
    vanishes: the extreme rays h of {h : h·g >= 0 for all g}, by the double
    description method in exact integers (Motzkin et al. 1953; Fukuda and
    Prodon 1996).  Each h keeps Z(h) over the processed generators, exact
    because a positive combination of two normals vanishes on a processed
    generator iff both do.  The rank generators independent of those before
    them cut R^rank down to their simplicial cone, one Gauss-Jordan step each;
    every other g keeps the h with h·g >= 0 and joins each adjacent pair
    h+·g > 0 > h-·g by _eliminate.  Two normals are adjacent iff they
    share at least rank-2 zeros and no third normal vanishes on all of them.
    """
    lines = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    normals, rest, start = [], [], 0
    for i, g in enumerate(gens):
        k = next((k for k, v in enumerate(lines) if la.dot(v, g)), None)
        if k is None:
            rest.append(i)
            continue
        line = lines.pop(k)
        if la.dot(line, g) < 0:
            line = tuple(-x for x in line)
        normals = [(_eliminate(h, line, g), z | 1 << i)
                   for h, z in normals] + [(line, start)]
        lines = [_eliminate(v, line, g) for v in lines]
        start |= 1 << i
    if lines:
        raise ValueError("generators do not span the ambient space")
    for i in rest:
        vals = [la.dot(h, gens[i]) for h, _ in normals]
        kept = [(h, z | 1 << i if v == 0 else z)
                for (h, z), v in zip(normals, vals) if v >= 0]
        neg = [(h, z) for (h, z), v in zip(normals, vals) if v < 0]
        for (hp, zp), vp in zip(normals, vals):
            for hn, zn in neg if vp > 0 else ():
                common = zp & zn
                if common.bit_count() < rank - 2 or sum(
                        z & common == common for _, z in normals) > 2:
                    continue
                kept.append((_eliminate(hn, hp, gens[i]), common | 1 << i))
        normals = kept
        if len(normals) > _SUBSET_BUDGET:
            raise DimensionBudgetExceeded(
                f"more than {_SUBSET_BUDGET} facet normals")
    return sorted(normals)


def _eliminate(v, w, g):
    """primitive((w·g)·v - (v·g)·w), which vanishes on g."""
    a, b = la.dot(w, g), la.dot(v, g)
    return la.primitive_vector([a * x - b * y for x, y in zip(v, w)])


def _lift_functionals(basis_rows, functionals):
    """Integral lifts of functionals given by their values on a lattice
    basis, through one diagonalization of the basis."""
    lifts = la.solve_integer_all([list(r) for r in basis_rows], functionals)
    if None in lifts:
        raise ArithmeticError("functional does not lift integrally")
    return lifts


def cone_from_generators(generators, ambient_rank: int | None = None,
                         deg: Vector | None = None) -> GradedCone:
    """Build a GradedCone; raises NotGorenstein when no integral functional
    takes the value 1 on all generators."""
    gens = [la.primitive_vector(g) for g in generators]
    gens = sorted({g for g in gens if any(x != 0 for x in g)})
    if ambient_rank is None:
        if not gens:
            raise ValueError("ambient_rank required for the zero cone")
        ambient_rank = len(gens[0])
    if ambient_rank > AMBIENT_RANK_BUDGET:
        raise DimensionBudgetExceeded(
            f"ambient rank {ambient_rank} exceeds budget {AMBIENT_RANK_BUDGET}")
    if not gens:
        eye = [tuple(int(i == j) for j in range(ambient_rank))
               for i in range(ambient_rank)]
        return _graded_cone(ambient_rank, (), (0,) * ambient_rank
                            if deg is None else deg, (), eye, 0)

    span_basis = la.saturation_basis(gens)
    dim = len(span_basis)
    equations = sorted(la.integer_kernel([list(g) for g in gens]))

    if dim == ambient_rank:
        facets = _cone_facets_fulldim(gens, ambient_rank)
    else:
        columns = [list(r) for r in zip(*span_basis)]
        coords = la.solve_integer_all(columns, gens)
        if None in coords:
            raise ArithmeticError("generator outside saturated span")
        local = _cone_facets_fulldim(coords, dim)
        facets = list(zip(_lift_functionals(span_basis, [h for h, _ in local]),
                          (z for _, z in local)))

    # tight facets per generator as bitmasks: the least face is spanned by
    # the generators in it, so the cone is pointed iff none is tight on all
    # facets, and g is extreme iff no other g' is tight wherever g is
    tight = _transpose([z for _, z in facets], len(gens))
    if (1 << len(facets)) - 1 in tight:
        raise ValueError("cone is not pointed")
    keep = [i for i, t in enumerate(tight)
            if sum(u & t == t for u in tight) == 1]
    gens = [gens[i] for i in keep]

    if deg is None:
        deg = deg_functional(gens, ambient_rank)
    elif any(la.dot(deg, g) != 1 for g in gens):
        raise NotGorenstein("given grading is not 1 on all generators")

    zeros = _transpose([tight[i] for i in keep], len(facets))
    return _graded_cone(ambient_rank, gens, deg,
                        [(h, z) for (h, _), z in zip(facets, zeros)],
                        equations, dim)


def _graded_cone(ambient_rank, gens, deg, facets, equations, dim):
    """The GradedCone with the given (facet, zero-set bitmask) pairs,
    sorted by facet."""
    pairs = sorted(facets)
    return GradedCone(ambient_rank=ambient_rank, generators=tuple(gens),
                      deg=tuple(int(x) for x in deg),
                      facets=tuple(h for h, _ in pairs),
                      equations=tuple(equations), dim=dim,
                      incidence=tuple(z for _, z in pairs))


def _transpose(masks, n: int) -> list[int]:
    """The incidence read the other way round: bit i of the j-th result
    is bit j of masks[i], for j < n."""
    return [sum(1 << i for i, m in enumerate(masks) if m >> j & 1)
            for j in range(n)]


def deg_functional(generators, ambient_rank: int | None = None) -> Vector:
    """The integral functional with value 1 on every generator (unique on
    the span, extended deterministically); NotGorenstein if none exists."""
    gens = [la.primitive_vector(g) for g in generators]
    if not gens:
        if ambient_rank is None:
            raise ValueError("ambient_rank required")
        return tuple([0] * ambient_rank)
    sol = la.solve_integer([list(g) for g in gens], [1] * len(gens))
    if sol is None:
        raise NotGorenstein("no integral functional is 1 on all generators")
    return sol


def gorenstein_cone_over(p: LatticePolytope) -> GradedCone:
    """Cone over P x {1}; the grading is the last coordinate."""
    return p.cone


def _check_int64(functionals, points, rank: int) -> None:
    """Raise DimensionBudgetExceeded unless max|coefficient| * max|coordinate|
    * rank < 2^62, so that no functional's value on a point wraps in int64."""
    bound = math.prod(int(np.abs(np.asarray(x)).max(initial=0))
                      for x in (functionals, points)) * rank
    if bound >= 1 << 62:
        raise DimensionBudgetExceeded(f"int64 values up to {bound} reach 2^62")


def cell_membership(cells, points) -> np.ndarray:
    """Entry (i, j) is whether cells[j] contains points[i], the points
    being int rows: one int64 matrix product of the points with the facets
    of every cell and both signs of its equations, the cell holding the
    points where all of its rows are nonnegative."""
    rows = [(j, f) for j, cell in enumerate(cells) for f in cell.facets
            + cell.equations + tuple(tuple(-x for x in e) for e in cell.equations)]
    pts = np.asarray(points)
    _check_int64([f for _, f in rows], pts, pts.shape[1])
    vals = pts.astype(np.int64) @ np.array(
        [f for _, f in rows], dtype=np.int64).reshape(-1, pts.shape[1]).T
    return ~((vals < 0) @ np.eye(len(cells), dtype=bool)[[j for j, _ in rows]])


def product_table(source, support, target, cells=()) -> np.ndarray:
    """Entry (i, j) is the index in target of source[i] + support[j] (int
    rows of one rank), or -1 where that sum is not in target or no cell of
    cells holds both points, their product in the deformed semigroup ring
    being zero there (no cells or one cell: the plain ring).

    A point's code is its dot product with the mixed-radix strides of the
    bounding box of target: linear, so a sum's code is the sum of the
    codes, and injective on that box, but a sum outside it may share a
    target point's code, so every hit is checked in full."""
    src, sup, tgt = (np.asarray(x, dtype=np.int64) for x in (source, support, target))
    if not (len(src) and len(tgt)):
        return np.full((len(src), len(sup)), -1)
    span = (tgt.max(axis=0) - tgt.min(axis=0) + 1).tolist()
    stride = [math.prod(span[:i]) for i in range(len(span))]
    _check_int64([stride], np.concatenate((src, sup, tgt)), tgt.shape[1])
    order = np.argsort(codes := tgt @ stride)
    at = np.searchsorted(codes[order], (src @ stride)[:, None] + sup @ stride)
    table = order[np.minimum(at, len(tgt) - 1)]
    table[(tgt[table] != src[:, None] + sup).any(axis=2)] = -1
    if len(cells) > 1:
        inside = cell_membership(cells, np.concatenate((src, sup)))
        table[~(inside[:len(src)] @ inside[len(src):].T)] = -1
    return table


# ---------------------------------------------------------------------------
# Face lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    """Face of a graded cone, identified by the generators it contains."""

    cone: GradedCone
    gen_indices: frozenset[int]
    dim: int

    def generator_vectors(self) -> tuple[Vector, ...]:
        return tuple(self.cone.generators[i] for i in sorted(self.gen_indices))

    def as_cone(self) -> GradedCone:
        return cone_from_generators(self.generator_vectors(),
                                    self.cone.ambient_rank, deg=self.cone.deg)


def _facets_of_face(cone: GradedCone, members: int) -> dict[int, int]:
    """Facets of the face F on the generator bitmask `members`, each mapped
    to the index j of a facet of the cone cutting it out: the maximal
    proper sets F & incidence[j]."""
    cuts: dict[int, int] = {}
    for j, zero in enumerate(cone.incidence):
        if members & zero != members:
            cuts.setdefault(members & zero, j)
    return {cut: j for cut, j in cuts.items()
            if not any(cut != other and cut & other == cut for other in cuts)}


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a cone with the containment order as cover relations.
    Equality is on these three fields; the lattice's EulerianPoset, whose
    root numbers the faces as `faces` does, is derived on first use."""

    cone: GradedCone
    faces: tuple[Face, ...]            # sorted by (dim, generator indices)
    covers: tuple[tuple[int, int], ...]  # (lower index, upper index)

    @cached_property
    def poset(self) -> po.EulerianPoset:
        """The lattice as an EulerianPoset on generator-index sets, checked
        Eulerian once (NotEulerian), so every G([f, F]) of `below` exists."""
        poset = po.poset_of_face_lattice(self)
        po._checked(poset)
        return poset

    def face_of_gens(self, gen_indices) -> Face:
        return self.faces[self.poset._root.index[frozenset(gen_indices)]]

    def below(self, face: Face) -> list[tuple]:
        """The faces f <= face in lattice order, each with G([f, face]), read
        by number off the poset root's down-set bits and G memo: no views."""
        root = self.poset._root
        top = root.index[face.gen_indices]
        return [(self.faces[f], po._g(root, f, top))
                for f in po._bits(root.down[top])]

    def maximum(self) -> Face:
        return self.faces[-1]


@lru_cache(maxsize=None)
def face_lattice(cone: GradedCone) -> FaceLattice:
    """All faces by incidence closure (Kaibel and Pfetsch): from the top
    face down, each face's facets by _facets_of_face on generator bitmasks,
    one cover and one dimension less per step."""
    order = [(1 << len(cone.generators)) - 1]
    dims = {order[0]: cone.dim}
    pairs = []
    for up in order:  # grows while it is read: breadth first
        for low in _facets_of_face(cone, up):
            pairs.append((low, up))
            if low not in dims:
                dims[low] = dims[up] - 1
                order.append(low)
        if len(order) > _SUBSET_BUDGET:
            raise DimensionBudgetExceeded(f"more than {_SUBSET_BUDGET} faces")
    masks = sorted(dims, key=lambda m: (dims[m], list(po._bits(m))))
    index = {m: i for i, m in enumerate(masks)}
    faces = tuple(Face(cone=cone, gen_indices=frozenset(po._bits(m)),
                       dim=dims[m]) for m in masks)
    covers = sorted((index[low], index[up]) for low, up in pairs)
    return FaceLattice(cone=cone, faces=faces, covers=tuple(covers))


# ---------------------------------------------------------------------------
# Lattice point enumeration
# ---------------------------------------------------------------------------

def _box_classes(u, orders):
    """(L, chunks): the classes a (0 <= a_i < orders[i]) of the box group
    of D = U M V, as their generator coordinates frac(a D^-1 U) in int64
    numerators over L = lcm(orders), in chunks of at most BOX_GROUP_BUDGET
    rows (each entry below n * order * L before the reduction mod L)."""
    size = math.prod(orders)
    if size > _BOX_BUDGET:
        raise DimensionBudgetExceeded(f"box group of order {size}")
    big_l = math.lcm(*orders)
    steps = np.array([[big_l // o * (x % o) for x in row]
                      for o, row in zip(orders, u)], dtype=np.int64)

    def chunk(start):
        rest = np.arange(start, min(size, start + BOX_GROUP_BUDGET),
                         dtype=np.int64)
        nums = np.zeros((len(rest), len(orders)), dtype=np.int64)
        for o, step in zip(orders, steps):
            nums += (rest % o)[:, None] * step
            rest //= o
        return nums % big_l

    return big_l, map(chunk, range(0, size, BOX_GROUP_BUDGET))


@lru_cache(maxsize=None)
def _pulling_triangulation(face: Face) -> tuple:
    """Simplices (sorted generator indices) triangulating the face with no
    new rays: its smallest generator index coned over the triangulations
    of the facets, read off the faces below it in the parent's lattice
    (`FaceLattice.below`), that miss it (so the cone's own triangulation
    restricts to it)."""
    if len(face.gen_indices) == face.dim:
        return (tuple(sorted(face.gen_indices)),)
    apex = min(face.gen_indices)
    return tuple((apex,) + s
                 for f, _ in face_lattice(face.cone).below(face)
                 if f.dim == face.dim - 1 and apex not in f.gen_indices
                 for s in _pulling_triangulation(f))


@lru_cache(maxsize=None)
def _simplex_box(cone: GradedCone, simplex: tuple) -> tuple:
    """(U, orders, lam, counts) of a simplex of the cone's pulling
    triangulation: its Smith data D = U M V, lam[k] = L * (its generator
    coordinates of the cone's k-th generator), and {mask: counts by
    degree} of its box classes by the bitmask of their nonzero
    coordinates, over the chunks of _box_classes."""
    n, rank = len(simplex), cone.ambient_rank
    u, d, v = la._diagonalize([cone.generators[i] for i in simplex])
    orders = [abs(d[i][i]) for i in range(n)]
    big_l, chunks = _box_classes(u, orders)
    g, w, z = (np.array(x, dtype=object).reshape(s) for x, s in  # Python ints
               zip((cone.generators, v, u), ((-1, rank), (rank, -1), (n, n))))
    lam = (g @ w[:, :n] * [big_l // d[i][i] for i in range(n)] @ z).tolist()
    bits, counts = 1 << np.arange(n, dtype=np.int64), 0
    for nums in chunks:
        key = ((nums != 0) @ bits) * (n + 1) + nums.sum(axis=1) // big_l
        counts = counts + np.bincount(key, minlength=(n + 1) << n)
    rows = np.reshape(counts, (1 << n, n + 1)).tolist()
    return u, orders, lam, {m: row for m, row in enumerate(rows) if any(row)}


def _half_open_simplices(face: Face):
    """(top, inside, open) for each simplex s of the face's pulling
    triangulation: the simplex of the cone's triangulation containing s
    (the box classes of s are its classes supported on s), and bitmasks
    of the positions of s in it and of the open ones among them.  Facet i of s is
    open when the i-th coordinate of the reference point, the sum of the
    face's generators perturbed lexicographically by them in index order,
    is negative; a class with coordinate 0 there is lifted by generator i."""
    members = sorted(face.gen_indices)
    tops = _pulling_triangulation(face_lattice(face.cone).maximum())
    for simplex in _pulling_triangulation(face):
        top = next((t for t in tops if set(simplex).issubset(t)), None)
        if top is None:
            raise InvalidSubdivision(f"no top simplex contains {simplex}")
        pos = [top.index(i) for i in simplex]
        lam = _simplex_box(face.cone, top)[2]
        # lam is linear, and its coordinates off s vanish on the face
        sign = [sum(c) for c in zip(*(lam[k] for k in members))]
        for k in members:  # the tie-break, only where a coordinate is still 0
            if all(sign[p] for p in pos):
                break
            sign = [s or x for s, x in zip(sign, lam[k])]
        yield (top, sum(1 << p for p in pos),
               sum(1 << p for p in pos if sign[p] < 0))


@lru_cache(maxsize=4)
def _class_points(cone: GradedCone) -> tuple:
    """(generators G, points num G / L, degrees) of each chunk of the box
    classes of the half-open simplices of the cone's top face, lifted to
    L on their open facets, as int64 arrays kept across degrees."""
    out = []
    top = face_lattice(cone).maximum()
    for simplex, _, is_open in _half_open_simplices(top):
        u, orders = _simplex_box(cone, simplex)[:2]
        big_l, chunks = _box_classes(u, orders)
        gens = [cone.generators[i] for i in simplex]
        _check_int64(gens, [(big_l,)], len(gens))
        g = np.array(gens, dtype=np.int64)
        lift = list(po._bits(is_open))
        for nums in chunks:
            nums[:, lift] += big_l * (nums[:, lift] == 0)
            out.append((g, nums @ g // big_l, nums.sum(axis=1) // big_l))
    return tuple(out)


@lru_cache(maxsize=None)
def lattice_points_at_degree(cone: GradedCone, k: int,
                             interior_only: bool = False) -> tuple[Vector, ...]:
    """The lattice points of the cone (or its relative interior, where
    every facet is positive) at degree k, in lexicographic order: each
    lifted class of degree d <= k plus the C(k - d + n - 1, n - 1) sums of
    k - d of its simplex's n generators, counted before allocation."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return () if interior_only and cone.generators else (
            (0,) * cone.ambient_rank,)
    if not cone.generators:
        return ()
    _check_int64(cone.generators, [(k,)], 1)
    n, rank = cone.dim, cone.ambient_rank
    parts = [(g, base[degs == d], k - d) for g, base, degs in _class_points(cone)
             for d in range(min(k, n) + 1)]
    size = sum(len(b) * math.comb(m + n - 1, m) for _, b, m in parts)
    if size > _BOX_BUDGET:
        raise DimensionBudgetExceeded(f"{size} points at degree {k}")
    sums = {m: np.array(list(itertools.combinations_with_replacement(
        range(n), m)), dtype=np.intp).reshape(math.comb(m + n - 1, m), m)
        for _, b, m in parts if len(b)}
    pts = np.concatenate([(b[:, None] + g[sums[m]].sum(axis=1)).reshape(-1, rank)
                          for g, b, m in parts if len(b)])
    if interior_only:
        _check_int64(cone.facets, pts, rank)
        pts = pts[(pts @ np.array(cone.facets, dtype=np.int64).T > 0).all(axis=1)]
    return tuple(map(tuple, pts[np.lexsort(pts.T[::-1])].tolist()))


@lru_cache(maxsize=None)
def count_lattice_points_at_degree(cone: GradedCone, k: int,
                                   interior_only: bool = False) -> int:
    return len(lattice_points_at_degree(cone, k, interior_only))


# ---------------------------------------------------------------------------
# Reflexive pairs and dual faces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReflexivePair:
    """Gorenstein cones over a reflexive polytope and its polar dual, as
    reflexive_pair builds them: each cone's generators are the other's
    facets, in the same order."""

    cone: GradedCone
    dual: GradedCone

    def dual_face(self, face: Face) -> Face:
        """Order-reversing bijection between the two face lattices.  Each
        cone's facets are the other's generators, in the same order, so
        the generators of the other cone orthogonal to the face are the AND
        of the other cone's facet incidences at the face's generators."""
        if face.cone == self.cone:
            target = self.dual
        elif face.cone == self.dual:
            target = self.cone
        else:
            raise NotReflexivePair("face does not belong to this pair")
        members = (1 << len(target.generators)) - 1
        for i in face.gen_indices:
            members &= target.incidence[i]
        result = face_lattice(target).face_of_gens(po._bits(members))
        if face.dim + result.dim != self.cone.dim:
            raise NotReflexivePair("dual face dimensions do not add up")
        return result


def reflexive_pair(p: LatticePolytope) -> ReflexivePair:
    """Gorenstein cones over p and its polar dual, whose vertices are the
    facet normals a of p (see is_reflexive)."""
    k = gorenstein_cone_over(p)
    if any(f[-1] != 1 for f in k.facets):
        raise NotReflexivePair("polytope is not reflexive")
    dual = lattice_polytope([f[:-1] for f in k.facets])
    return ReflexivePair(cone=k, dual=gorenstein_cone_over(dual))


# ---------------------------------------------------------------------------
# Subdivisions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FanSubdivision:
    """Subdivision of a graded cone into graded subcones."""

    parent: GradedCone
    max_cones: tuple[GradedCone, ...]
    provenance: tuple


def trivial_subdivision(cone: GradedCone) -> FanSubdivision:
    return FanSubdivision(parent=cone, max_cones=(cone,),
                          provenance=("trivial",))


def regular_subdivision(cone: GradedCone, heights,
                        force_generic: bool = False) -> FanSubdivision:
    """Lower-hull subdivision induced by lifting the degree-1 lattice points
    by the given heights.

    Any integer height vector with one entry per degree-1 point yields a
    valid subdivision (constant heights give the trivial one); a vector of
    another length raises InvalidSubdivision.  With force_generic every
    cell is replaced by its pulling triangulation, so every cell is
    simplicial; the step is recorded in the provenance.
    """
    pts = lattice_points_at_degree(cone, 1)
    heights = [int(h) for h in heights]
    if len(heights) != len(pts):
        raise InvalidSubdivision(
            f"got {len(heights)} heights for {len(pts)} degree-1 points")
    if cone.dim != cone.ambient_rank:
        raise ValueError("subdivisions are built for full-dimensional cones")
    cells = [[pts[i] for i in cell]
             for cell in _lower_hull_cells(cone, pts, heights)]
    provenance = ("heights", tuple(heights))
    if force_generic:
        # cells list their generators in lex order, so all are pulled in
        # one global order and the cells sharing a face split it alike
        cones = (cone_from_generators(cell, cone.ambient_rank, deg=cone.deg)
                 for cell in cells)
        cells = [[c.generators[i] for i in s] for c in cones
                 for s in _pulling_triangulation(face_lattice(c).maximum())]
        provenance = ("heights+pulling-triangulation", tuple(heights))
    max_cones = tuple(sorted(
        (cone_from_generators(cell, cone.ambient_rank, deg=cone.deg)
         for cell in cells), key=lambda c: c.generators))
    sub = FanSubdivision(parent=cone, max_cones=max_cones,
                         provenance=provenance)
    validate_subdivision(sub)
    return sub


def _lower_hull_cells(cone: GradedCone, pts, heights):
    """Index sets of the full-dimensional lower-hull cells, sorted.

    Affine functions on the degree-1 slice are exactly linear functionals
    on the ambient lattice, so a cell is the tight set of a functional phi
    with phi(p) <= h(p) for every point.  These are the facets (-phi, 1)
    up to scale of the cone over the lifted points (p, h(p)) and the ray
    (0, ..., 0, 1): the facets with last coordinate > 0.
    """
    lifted = [tuple(p) + (h,) for p, h in zip(pts, heights)]
    up = (0,) * cone.ambient_rank + (1,)
    return sorted(tuple(po._bits(zero)) for f, zero in _cone_facets_fulldim(
        lifted + [up], cone.ambient_rank + 1) if f[-1] > 0)


def stellar_subdivision(cone: GradedCone) -> FanSubdivision:
    """The regular subdivision with height -1 at the unique interior
    degree-1 point (it exists for cones over reflexive polytopes) and 0 at
    every other degree-1 point: that point coned over every facet."""
    interior = lattice_points_at_degree(cone, 1, interior_only=True)
    if len(interior) != 1:
        raise ValueError("no canonical interior degree-1 center")
    return regular_subdivision(cone, [-1 if p == interior[0] else 0
                                      for p in lattice_points_at_degree(cone, 1)])


def validate_subdivision(sub: FanSubdivision) -> None:
    """Containment, coverage of the parent's points of degree <= 3, and
    pairwise common-face checks, with every membership read off
    cell_membership; raises InvalidSubdivision on failure."""
    parent, cells = sub.parent, sub.max_cones
    if not cells:
        raise InvalidSubdivision("no maximal cones")
    if any(cell.dim != parent.dim for cell in cells):
        raise InvalidSubdivision("maximal cone of wrong dimension")
    gens = sorted({g for cell in cells for g in cell.generators})
    if not cell_membership((parent,), gens).all():
        raise InvalidSubdivision("cell generator outside parent")
    if any(la.dot(parent.deg, g) != 1 for g in gens):
        raise InvalidSubdivision("cell generator not at degree 1")
    slices = [lattice_points_at_degree(parent, k) for k in range(4)]
    sample = np.array([p for pts in slices for p in pts], dtype=np.int64)
    inside = cell_membership(cells, sample)
    if not (covered := inside.any(axis=1)).all():
        raise InvalidSubdivision(f"point {tuple(sample[~covered][0].tolist())} "
                                 "not covered")
    # the points of degree 1 and 2 (the origin lies in every face)
    low = slice(1, sum(map(len, slices[:3])))
    gen_in = dict(zip(gens, cell_membership(cells, gens).tolist()))
    for i, j in itertools.combinations(range(len(cells)), 2):
        in12 = [g for g in cells[i].generators if gen_in[g][j]]
        in21 = [g for g in cells[j].generators if gen_in[g][i]]
        if in12 != in21:
            raise InvalidSubdivision("intersection is not a common face")
        cut = _face_cut(cells[i], set(in12))
        _face_cut(cells[j], set(in21))
        # the common face is cut out of cell i by the facets tight on it
        rows = np.array([cells[i].facets[b] for b in po._bits(cut)],
                        dtype=np.int64).reshape(-1, parent.ambient_rank)
        shared = sample[low][inside[low, i] & inside[low, j]]
        if len(off := shared[(shared @ rows.T).any(axis=1)]):
            raise InvalidSubdivision(f"shared point {tuple(off[0].tolist())} "
                                     "outside the common face")


def _face_cut(cell: GradedCone, subset: set) -> int:
    """The facets of the cell (a bitmask) that vanish on every generator of
    subset; raises unless they cut out the face spanned by exactly subset."""
    members = sum(1 << k for k, g in enumerate(cell.generators) if g in subset)
    cut, face = 0, (1 << len(cell.generators)) - 1
    for j, zero in enumerate(cell.incidence):
        if zero & members == members:
            cut |= 1 << j
            face &= zero
    if face != members:
        raise InvalidSubdivision("intersection is not a face")
    return cut


# ---------------------------------------------------------------------------
# Complete fans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fan:
    """Finite fan given by all of its cones (faces included)."""

    rank: int
    cones: tuple[GradedCone, ...]
    max_cones: tuple[GradedCone, ...]


def fan_from_cones(rank: int, max_cones) -> Fan:
    """Collect all faces of the maximal cones; cones must be Gorenstein.

    Every cone is rebuilt from its generator set so that shared faces of
    different maximal cones compare equal (gradings agree on the span but
    their ambient extensions must be canonicalized).
    """
    gen_sets: dict[tuple, None] = {}
    maxes = []
    for c in max_cones:
        canon = cone_from_generators(c.generators, rank)
        maxes.append(canon)
        for f in face_lattice(canon).faces:
            gen_sets.setdefault(f.generator_vectors(), None)
    cones = tuple(sorted((cone_from_generators(gs, rank) for gs in gen_sets),
                         key=lambda c: (c.dim, c.generators)))
    return Fan(rank=rank, cones=cones,
               max_cones=tuple(sorted(maxes, key=lambda c: c.generators)))


def fan_from_rays(rank: int, rays, cone_indices) -> Fan:
    maxes = [cone_from_generators([rays[i] for i in idxs], rank)
             for idxs in cone_indices]
    return fan_from_cones(rank, maxes)


def check_complete(fan: Fan) -> None:
    """Combinatorial completeness: all maximal cones are full-dimensional
    and every (d-1)-cone bounds exactly two of them."""
    d = fan.rank
    if not fan.max_cones or any(c.dim != d for c in fan.max_cones):
        raise NotComplete("a maximal cone is not full-dimensional")
    face_sets = [{f.generator_vectors() for f in face_lattice(m).faces}
                 for m in fan.max_cones]
    for c in fan.cones:
        if c.dim != d - 1:
            continue
        count = sum(c.generators in fs for fs in face_sets)
        if count != 2:
            raise NotComplete(
                f"codimension-1 cone bounds {count} maximal cones")
