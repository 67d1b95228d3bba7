"""Lattice geometry: duality, cones, face lattices, points, subdivisions."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import point_in_cone, slice_scan, sum_table

from stringcone import fixtures as fx
from stringcone import intlinalg as la
from stringcone import lattice as lat
from stringcone import posets as po
from stringcone.errors import (
    DimensionBudgetExceeded,
    InvalidSubdivision,
    NotComplete,
    NotEulerian,
    NotGorenstein,
    NotReflexivePair,
    OriginNotInterior,
)


def poly(name):
    return fx.polytope(name)


def is_integral(q):
    return all(x.denominator == 1 for v in q.vertices for x in v)


def to_lattice(q):
    """The lattice polytope on the vertices of an integral RationalPolytope."""
    assert is_integral(q)
    return lat.lattice_polytope([tuple(int(x) for x in v) for v in q.vertices])


# -- polar duality -----------------------------------------------------------

def test_dual_polytope_examples():
    assert to_lattice(lat.dual_polytope(poly("diamond"))) == poly("square")
    assert to_lattice(lat.dual_polytope(poly("square"))) == poly("diamond")
    assert to_lattice(lat.dual_polytope(poly("p2"))) == poly("p2_dual")


def test_dual_requires_interior_origin():
    shifted = lat.lattice_polytope([(0, 0), (2, 0), (0, 2)])
    with pytest.raises(OriginNotInterior):
        lat.dual_polytope(shifted)


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_dual_dual_is_identity(name):
    p = poly(name)
    assert to_lattice(lat.dual_polytope(to_lattice(lat.dual_polytope(p)))) == p


def test_rational_dual_roundtrip():
    # a non-reflexive polytope with 0 interior still dualizes exactly
    p = lat.lattice_polytope([(-1,), (2,)])
    d = lat.dual_polytope(p)
    assert not is_integral(d)
    assert d.vertices == ((Fraction(-1, 2),), (Fraction(1),))


# -- reflexivity ---------------------------------------------------------------

def test_is_reflexive_examples():
    assert lat.is_reflexive(poly("diamond"))
    assert lat.is_reflexive(poly("p2"))
    assert not lat.is_reflexive(poly("segment_m1_2"))


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_fixture_reflexivity(name):
    assert lat.is_reflexive(poly(name))


def test_interior_point_uniqueness():
    assert lat.interior_lattice_points(poly("cube")) == [(0, 0, 0)]


def sheared(p):
    """A unimodular image of p: x0 += x1, or x -> -x in rank 1."""
    if p.rank == 1:
        return lat.lattice_polytope([(-v[0],) for v in p.vertices])
    return lat.lattice_polytope([(v[0] + v[1],) + v[1:] for v in p.vertices])


DIAMOND_X2 = lat.lattice_polytope([(2, 0), (0, 2), (-2, 0), (0, -2)])


@pytest.mark.parametrize("name", fx.polytope_names() + ["diamond_x2"])
def test_is_reflexive_matches_dual_and_interior_oracle(name):
    # reflexive iff the polar dual is integral and 0 is the only interior
    # lattice point; the facet-distance test must agree on every image
    base = DIAMOND_X2 if name == "diamond_x2" else poly(name)
    for p in (base, sheared(base)):
        oracle = (is_integral(lat.dual_polytope(p))
                  and lat.interior_lattice_points(p) == [(0,) * p.rank])
        assert lat.is_reflexive(p) == oracle
        assert oracle == (name in fx.REFLEXIVE_NAMES)


def test_reflexive_pair_enumerates_facets_twice(monkeypatch):
    calls = []
    enumerate_facets = lat._cone_facets_fulldim

    def counted(*args):
        calls.append(args)
        return enumerate_facets(*args)

    monkeypatch.setattr(lat, "_cone_facets_fulldim", counted)
    # loading the polytope builds its cone, which reflexive_pair reuses
    pair = lat.reflexive_pair(lat.lattice_polytope(
        fx.POLYTOPE_VERTICES["quartic"]))
    assert len(calls) == 2  # one per cone; the dual is read off the facets
    assert pair.dual == lat.gorenstein_cone_over(poly("quartic_dual"))


def test_dual_polytope_enumerates_facets_once(monkeypatch):
    calls = []
    enumerate_facets = lat._cone_facets_fulldim

    def counted(*args):
        calls.append(args)
        return enumerate_facets(*args)

    monkeypatch.setattr(lat, "_cone_facets_fulldim", counted)
    # what `stringcone dual` does: load the polytope, then dualise it
    dual = lat.dual_polytope(lat.lattice_polytope(
        fx.POLYTOPE_VERTICES["quartic"]))
    assert len(calls) == 1  # the dual reads the facets of the loaded cone
    assert to_lattice(dual) == poly("quartic_dual")


# -- Gorenstein cones ----------------------------------------------------------

def test_gorenstein_cone_over():
    k = lat.gorenstein_cone_over(poly("diamond"))
    assert k.dim == 3 and k.deg == (0, 0, 1) and len(k.generators) == 4
    k1 = lat.gorenstein_cone_over(lat.lattice_polytope([(-1,), (1,)]))
    assert k1.dim == 2 and sorted(k1.generators) == [(-1, 1), (1, 1)]
    kq = lat.gorenstein_cone_over(poly("quintic_mirror"))
    assert kq.dim == 5 and len(kq.generators) == 5


def test_equal_cones_built_apart_are_equal_and_hash_equal():
    a = lat.cone_from_generators([(0, 2), (2, 2), (1, 1), (2, 1)])
    b = lat.cone_from_generators([(2, 1), (0, 1)])
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert hash(a) == hash((a.ambient_rank, a.generators, a.deg))
    other = lat.cone_from_generators([(0, 1), (1, 1)])
    assert a != other and {a: 1}.get(other) is None


def test_deg_functional_examples():
    assert lat.deg_functional([(0, 1), (2, 1)]) == (0, 1)
    verts = [v + (1,) for v in poly("diamond").vertices]
    assert lat.deg_functional(verts) == (0, 0, 1)
    with pytest.raises(NotGorenstein):
        lat.deg_functional([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 2)])


def test_non_gorenstein_cone_rejected():
    with pytest.raises(NotGorenstein):
        lat.cone_from_generators([(2, 1), (2, -1)])


def test_generator_canonicalization():
    # redundant interior ray is dropped, non-primitive input reduced
    c = lat.cone_from_generators([(0, 2), (2, 2), (1, 1), (2, 1)])
    assert c.generators == ((0, 1), (2, 1))


# -- facets by double description ------------------------------------------------

def facets_oracle(gens, rank):
    """Facet normals of a full-dimensional pointed cone from the null
    spaces of its (rank-1)-subsets of generators."""
    facets = set()
    for subset in itertools.combinations(gens, rank - 1):
        kernel = la.nullspace_fraction(list(subset)) if subset else \
            [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        if len(kernel) != 1:
            continue
        vals = [la.dot(kernel[0], g) for g in gens]
        if all(v >= 0 for v in vals):
            facets.add(kernel[0])
        elif all(v <= 0 for v in vals):
            facets.add(tuple(-x for x in kernel[0]))
    return sorted(facets)


def span_facets(gens, rank, enumerate_facets):
    """Facets of the cone over gens, enumerated in coordinates of its
    saturated span as cone_from_generators does, then lifted."""
    basis = la.saturation_basis(gens)
    if len(basis) == rank:
        return enumerate_facets(gens, rank)
    coords = sorted({la.coordinates_in_basis(basis, g) for g in gens})
    return sorted(lat._lift_functionals(
        basis, enumerate_facets(coords, len(basis))))


def extreme_oracle(gens, facets, equations, rank):
    """Generators whose minimal face is a ray: rank of their tight facets
    and equations is rank - 1."""
    return tuple(g for g in gens if la.rank_int(
        [list(f) for f in facets if la.dot(f, g) == 0]
        + [list(e) for e in equations]) == rank - 1)


def random_point_sets(seed, count):
    """Point sets at degree 1 (last coordinate 1) of rank 2-5, with
    midpoints of pairs among them, so that many points are not extreme and
    some sets are not full-dimensional."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        rank = rng.randint(2, 5)
        pts = [tuple(rng.randint(-2, 2) for _ in range(rank - 1)) + (1,)
               for _ in range(rng.randint(1, 12 - rank))]
        pairs = [rng.sample(pts, 2) for _ in range(4) if len(pts) > 1]
        pts += [tuple((x + y) // 2 for x, y in zip(a, b))
                for a, b in pairs if all((x + y) % 2 == 0 for x, y in zip(a, b))]
        sets.append((sorted(set(pts)), rank, (0,) * (rank - 1) + (1,)))
    return sets


def dd_cases():
    """(generators, rank, grading) of every fixture cone and face cone, and
    of the seeded random point sets."""
    cases = []
    for name in ORACLE_NAMES:
        for top in oracle_cones(name):
            for face in lat.face_lattice(top).faces:
                if face.gen_indices:
                    cases.append((face.generator_vectors(), top.ambient_rank,
                                  top.deg))
    return cases + random_point_sets(11, 300)


def dd_normals(gens, rank):
    """The facet normals of the double description, without their zero sets
    (test_incidence_of_every_double_description_case checks those)."""
    return [h for h, _ in lat._cone_facets_fulldim(gens, rank)]


def test_double_description_matches_subset_scan_oracle():
    for gens, rank, _ in dd_cases():
        assert span_facets(gens, rank, dd_normals) == \
            span_facets(gens, rank, facets_oracle), (gens, rank)


def test_extreme_rays_match_rank_oracle():
    non_extreme = 0
    for gens, rank, deg in dd_cases():
        facets = span_facets(gens, rank, facets_oracle)
        equations = la.integer_kernel([list(g) for g in gens])
        expect = extreme_oracle(gens, facets, equations, rank)
        cone = lat.cone_from_generators(gens, rank, deg=deg)
        assert cone.generators == expect, (gens, rank)
        assert cone.facets == tuple(facets)
        non_extreme += len(gens) - len(expect)
    assert non_extreme > 100


def test_non_pointed_cones_raise():
    for gens in ([(1, 0), (-1, 0), (0, 1)],              # a half-plane
                 [(1, 0), (0, 1), (-1, -1)],              # the whole plane
                 [(1, 0, 1), (-1, 0, -1), (0, 1, 1)],     # a half-plane, rank 3
                 [(1, 0, 0), (-1, 0, 0)]):                # a line, dim 1
        with pytest.raises(ValueError, match="not pointed"):
            lat.cone_from_generators(gens)


def test_double_description_budget(monkeypatch):
    cone = lat.gorenstein_cone_over(poly("cube"))  # 6 facets
    assert len(lat._cone_facets_fulldim(cone.generators, 4)) == 6
    monkeypatch.setattr(lat, "_SUBSET_BUDGET", 5)
    with pytest.raises(DimensionBudgetExceeded):
        lat._cone_facets_fulldim(cone.generators, 4)


# -- face lattices ---------------------------------------------------------------

def test_face_lattice_counts():
    a1 = lat.cone_from_generators([(0, 1), (2, 1)])
    assert len(lat.face_lattice(a1).faces) == 4
    square_cone = lat.cone_from_generators(
        [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert len(lat.face_lattice(square_cone).faces) == 10
    k = lat.gorenstein_cone_over(poly("diamond"))
    assert len(lat.face_lattice(k).faces) == 10
    kq = lat.gorenstein_cone_over(poly("quintic_mirror"))
    assert len(lat.face_lattice(kq).faces) == 32


def test_face_dims_and_covers():
    fl = lat.face_lattice(lat.gorenstein_cone_over(poly("diamond")))
    dims = sorted(f.dim for f in fl.faces)
    assert dims == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    for i, j in fl.covers:
        assert fl.faces[j].dim == fl.faces[i].dim + 1
        assert fl.faces[i].gen_indices < fl.faces[j].gen_indices


def face_lattice_oracle(cone):
    """Every face as the generators on which a subset of facets vanishes,
    its dimension the rank of those generators, covers by inclusion."""
    nf = len(cone.facets)
    gens = cone.generators
    values = [[la.dot(f, g) for g in gens] for f in cone.facets]
    seen = {}
    for subset in itertools.product([0, 1], repeat=nf):
        members = frozenset(
            i for i in range(len(gens))
            if all(values[j][i] == 0 for j in range(nf) if subset[j]))
        seen.setdefault(members, None)
    faces = []
    for members in seen:
        sub = [list(gens[i]) for i in sorted(members)]
        dim = la.rank_int(sub) if sub else 0
        faces.append(lat.Face(cone=cone, gen_indices=members, dim=dim))
    faces.sort(key=lambda f: (f.dim, tuple(sorted(f.gen_indices))))
    covers = [(i, j) for i, low in enumerate(faces)
              for j, up in enumerate(faces)
              if up.dim == low.dim + 1 and low.gen_indices <= up.gen_indices]
    return lat.FaceLattice(cone=cone, faces=tuple(faces), covers=tuple(covers))


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_below_matches_public_interval_g(name):
    pair = fx.reflexive_pair(name)
    for cone in (pair.cone, pair.dual):
        fl = lat.face_lattice(cone)
        poset = po.poset_of_face_lattice(fl)
        for face in fl.faces:
            expect = [(f, po.g_polynomial(
                poset.interval(f.gen_indices, face.gen_indices)))
                for f in fl.faces if f.gen_indices <= face.gen_indices]
            assert fl.below(face) == expect


def test_below_refuses_a_non_eulerian_lattice():
    # the diamond's cone without the ray of generator 0: the two edges on
    # that ray each cover one ray, so their lower intervals are chains
    fl = lat.face_lattice(fx.reflexive_pair("diamond").cone)
    keep = [i for i, f in enumerate(fl.faces) if f.gen_indices != {0}]
    number = {i: k for k, i in enumerate(keep)}
    broken = lat.FaceLattice(
        cone=fl.cone, faces=tuple(fl.faces[i] for i in keep),
        covers=tuple((number[i], number[j]) for i, j in fl.covers
                     if i in number and j in number))
    assert not po.poset_of_face_lattice(broken).is_eulerian()
    with pytest.raises(NotEulerian):
        broken.below(broken.maximum())


def oracle_cones(name):
    """Both cones of a reflexive fixture, or every cone of a fan fixture."""
    if name in fx.fan_names():
        return list(fx.fan(name).cones)
    pair = fx.reflexive_pair(name)
    return [pair.cone, pair.dual]


ORACLE_NAMES = list(fx.REFLEXIVE_NAMES) + fx.fan_names()


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_face_lattice_matches_subset_scan_oracle(name):
    for top in oracle_cones(name):
        assert lat.face_lattice(top) == face_lattice_oracle(top)
        for face in lat.face_lattice(top).faces:
            cone = face.as_cone()
            assert lat.face_lattice(cone) == face_lattice_oracle(cone)


def assert_same_cone(got, expect):
    assert (got.generators, got.facets, got.equations, got.dim, got.deg) == \
        (expect.generators, expect.facets, expect.equations, expect.dim,
         expect.deg)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_face_cones_match_cone_from_generators(name):
    for top in oracle_cones(name):
        for face in lat.face_lattice(top).faces:
            cone = face.as_cone()
            assert_same_cone(cone, lat.cone_from_generators(
                face.generator_vectors(), top.ambient_rank, deg=top.deg))
            for sub in lat.face_lattice(cone).faces:
                assert_same_cone(sub.as_cone(), lat.cone_from_generators(
                    sub.generator_vectors(), top.ambient_rank, deg=top.deg))


def test_face_lattice_of_a_32_gon_cone():
    # 16 primitive directions and their negatives, sorted by angle: the
    # cumulative sums are the vertices of a convex lattice 32-gon
    half = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2),
            (2, -1), (1, 3), (3, 1), (1, -3), (3, -1), (2, 3), (3, 2),
            (2, -3), (3, -2)]
    steps = sorted(half + [(-x, -y) for x, y in half],
                   key=lambda v: math.atan2(v[1], v[0]))
    vertices = list(itertools.accumulate(steps, lambda a, b: (a[0] + b[0],
                                                              a[1] + b[1])))
    cone = lat.cone_from_generators([v + (1,) for v in vertices])
    assert len(cone.generators) == len(cone.facets) == 32
    fl = lat.face_lattice(cone)
    assert len(fl.faces) == 66
    assert po.poset_of_face_lattice(fl).is_eulerian()


def test_face_lattice_face_count_budget(monkeypatch):
    cone = lat.gorenstein_cone_over(poly("cube"))  # 28 faces
    monkeypatch.setattr(lat, "_SUBSET_BUDGET", 27)
    with pytest.raises(DimensionBudgetExceeded):
        lat.face_lattice.__wrapped__(cone)


def test_dimension_budget():
    with pytest.raises(DimensionBudgetExceeded):
        lat.cone_from_generators(
            [tuple(int(i == j) for j in range(9)) for i in range(9)])


# -- dual faces -------------------------------------------------------------------

def test_dual_face_example():
    pair = fx.reflexive_pair("diamond")
    fl = lat.face_lattice(pair.cone)
    ray = fl.face_of_gens([i for i, g in enumerate(pair.cone.generators)
                           if g == (1, 0, 1)])
    dual = pair.dual_face(ray)
    assert set(dual.generator_vectors()) == {(-1, 1, 1), (-1, -1, 1)}
    assert pair.dual_face(dual) == ray


@pytest.mark.parametrize("name", ["diamond", "p2", "cube", "quartic"])
def test_dual_face_is_order_reversing_bijection(name):
    pair = fx.reflexive_pair(name)
    fl = lat.face_lattice(pair.cone)
    seen = set()
    for face in fl.faces:
        dual = pair.dual_face(face)
        assert face.dim + dual.dim == pair.cone.dim
        assert pair.dual_face(dual) == face
        seen.add(dual.gen_indices)
    assert len(seen) == len(fl.faces)
    # order reversal on a sample of comparable pairs
    for f1 in fl.faces:
        for f2 in fl.faces:
            if f1.gen_indices < f2.gen_indices:
                d1, d2 = pair.dual_face(f1), pair.dual_face(f2)
                assert d2.gen_indices < d1.gen_indices


# the standard reflexive 4-simplex under a unimodular shear
SHEARED_SIMPLEX = [(1, 0, 0, 0), (2, 1, 0, 0), (0, 3, 1, 0), (-1, 0, 1, 1),
                   (-2, -4, -2, -1)]


def incidence_oracle(cone):
    """Bit i of entry j iff facet j vanishes on generator i, by dot products."""
    return tuple(sum(1 << i for i, g in enumerate(cone.generators)
                     if la.dot(h, g) == 0) for h in cone.facets)


INCIDENCE_PAIRS = [fx.reflexive_pair(name) for name in fx.REFLEXIVE_NAMES] \
    + [lat.reflexive_pair(lat.lattice_polytope(SHEARED_SIMPLEX))]


@pytest.mark.parametrize("pair", INCIDENCE_PAIRS,
                         ids=list(fx.REFLEXIVE_NAMES) + ["sheared_simplex"])
def test_incidence_and_dual_faces_match_dot_products(pair):
    assert pair.dual.generators == pair.cone.facets
    assert pair.cone.generators == pair.dual.facets
    for source, target in ((pair.cone, pair.dual), (pair.dual, pair.cone)):
        assert source.incidence == incidence_oracle(source)
        for face in lat.face_lattice(source).faces:
            cone = face.as_cone()
            assert cone.incidence == incidence_oracle(cone)
            expect = frozenset(
                j for j, w in enumerate(target.generators)
                if all(la.dot(w, g) == 0 for g in face.generator_vectors()))
            assert pair.dual_face(face).gen_indices == expect


def test_incidence_of_every_double_description_case():
    # full-dimensional and lower-dimensional cones, with points that are not
    # extreme, so the stored incidence is re-indexed to the kept generators
    for gens, rank, deg in dd_cases():
        cone = lat.cone_from_generators(gens, rank, deg=deg)
        assert cone.incidence == incidence_oracle(cone), (gens, rank)


def test_dual_face_rejects_foreign_cone():
    pair = fx.reflexive_pair("diamond")
    other = fx.reflexive_pair("p2")
    face = lat.face_lattice(other.cone).faces[0]
    with pytest.raises(NotReflexivePair):
        pair.dual_face(face)


def test_reflexive_pair_requires_reflexive():
    with pytest.raises(NotReflexivePair):
        lat.reflexive_pair(poly("segment_m1_2"))


# -- lattice point enumeration ------------------------------------------------------

def test_points_at_degree_examples():
    a1 = lat.cone_from_generators([(0, 1), (2, 1)])
    assert lat.lattice_points_at_degree(a1, 1) == ((0, 1), (1, 1), (2, 1))
    assert lat.lattice_points_at_degree(a1, 0) == ((0, 0),)
    square_cone = lat.cone_from_generators(
        [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert len(lat.lattice_points_at_degree(square_cone, 2)) == 9


def test_counts_match_enumeration():
    k = lat.gorenstein_cone_over(poly("cube"))
    for deg in range(4):
        for interior in (False, True):
            pts = lat.lattice_points_at_degree(k, deg, interior)
            assert lat.count_lattice_points_at_degree(k, deg, interior) == len(pts)


@pytest.mark.parametrize("name", ["diamond", "p2", "cube", "quartic"])
def test_interior_points_are_face_complement(name):
    # relative interior = all points minus the union over proper faces
    cone = lat.gorenstein_cone_over(poly(name))
    fl = lat.face_lattice(cone)
    for deg in range(min(cone.dim, 4) + 1):
        allpts = set(lat.lattice_points_at_degree(cone, deg))
        interior = set(lat.lattice_points_at_degree(cone, deg, True))
        boundary = set()
        for face in fl.faces[:-1]:
            boundary |= set(lat.lattice_points_at_degree(face.as_cone(), deg))
        assert interior == allpts - boundary


def brute_force_points(cone, k):
    """point_in_cone over the box of k times the generators, which holds
    the degree-k slice k·conv(generators); lexicographic order."""
    gens = cone.generators or [(0,) * cone.ambient_rank]
    ranges = [range(k * min(column), k * max(column) + 1)
              for column in zip(*gens)]
    return tuple(x for x in itertools.product(*ranges)
                 if la.dot(cone.deg, x) == k and point_in_cone(cone, x))


@pytest.mark.parametrize("name", fx.polytope_names()
                         + [f"fan_{n}" for n in fx.fan_names()])
def test_slice_scan_matches_brute_force_on_every_face(name):
    if name.startswith("fan_"):
        tops = fx.fan(name[len("fan_"):]).max_cones
    else:
        tops = [lat.gorenstein_cone_over(poly(name))]
    for top in tops:
        for face in lat.face_lattice(top).faces:
            cone = face.as_cone()
            for k in range(4):
                closed = brute_force_points(cone, k)
                interior = tuple(x for x in closed
                                 if point_in_cone(cone, x, strict=True))
                for flag, expect in ((False, closed), (True, interior)):
                    assert lat.lattice_points_at_degree(cone, k, flag) == expect
                    assert lat.count_lattice_points_at_degree(
                        cone, k, flag) == len(expect)


def test_points_match_the_bounding_box_scan():
    # every fixture cone, every face cone and every stellar cell, at every
    # degree up to dim + 1, closed and interior
    cones = [face.as_cone() for name in ORACLE_NAMES
             for top in oracle_cones(name)
             for face in lat.face_lattice(top).faces]
    cones += [cell for name in fx.REFLEXIVE_NAMES
              for cell in lat.stellar_subdivision(
                  lat.gorenstein_cone_over(poly(name))).max_cones]
    for cone in dict.fromkeys(cones):
        for k in range(cone.dim + 2):
            for flag in (False, True):
                assert lat.lattice_points_at_degree(cone, k, flag) == \
                    slice_scan(cone, k, flag), (cone, k, flag)


def test_points_over_budget_raise_before_allocating():
    # the cone over the standard 5-simplex has C(105, 5) ~ 9.6*10^7
    # points at degree 100, and one box class
    simplex = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    cone = lat.gorenstein_cone_over(lat.lattice_polytope(
        simplex + [(0,) * 5]))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionBudgetExceeded):
            lat.lattice_points_at_degree(cone, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ehrhart_counts():
    k = lat.gorenstein_cone_over(poly("diamond"))
    got = [lat.count_lattice_points_at_degree(k, d) for d in range(5)]
    assert got == [2 * d * d + 2 * d + 1 for d in range(5)]


# -- subdivisions ----------------------------------------------------------------

def test_trivial_subdivision_from_zero_heights():
    square_cone = lat.cone_from_generators(
        [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    sub = lat.regular_subdivision(square_cone, [0, 0, 0, 0])
    assert sub.max_cones == (sub.parent,)


def test_square_splits_into_two_triangles():
    square_cone = lat.cone_from_generators(
        [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    sub = lat.regular_subdivision(square_cone, [0, 0, 0, 1])
    assert len(sub.max_cones) == 2
    assert all(c.is_simplicial() for c in sub.max_cones)


def test_generic_heights_give_simplicial_cells():
    pair = fx.reflexive_pair("diamond")
    rng = random.Random(3)
    pts = lat.lattice_points_at_degree(pair.dual, 1)
    heights = [rng.randint(0, 30) for _ in pts]
    sub = lat.regular_subdivision(pair.dual, heights, force_generic=True)
    assert all(c.is_simplicial() for c in sub.max_cones)
    assert str(sub.provenance[0]).startswith("heights")


@pytest.mark.parametrize("name, cells", [("square", 2), ("diamond", 2),
                                         ("cross", 4), ("cube", 6)])
def test_generic_zero_heights_give_simplicial_cells(name, cells):
    # zero heights give the whole cone as one cell, which force_generic
    # replaces by its pulling triangulation
    cone = lat.gorenstein_cone_over(poly(name))
    heights = [0] * len(lat.lattice_points_at_degree(cone, 1))
    assert lat.regular_subdivision(cone, heights).max_cones == (cone,)
    sub = lat.regular_subdivision(cone, heights, force_generic=True)
    assert len(sub.max_cones) == cells
    assert all(c.is_simplicial() for c in sub.max_cones)
    assert sub.provenance == ("heights+pulling-triangulation", tuple(heights))


def test_stellar_subdivision():
    k = lat.gorenstein_cone_over(poly("cube"))
    sub = lat.stellar_subdivision(k)
    assert len(sub.max_cones) == 6  # one cell per facet of the cube
    lat.validate_subdivision(sub)


@given(st.lists(st.integers(0, 12), min_size=9, max_size=9))
@settings(max_examples=25, deadline=None)
def test_random_heights_always_give_valid_subdivision(heights):
    cone = lat.gorenstein_cone_over(poly("square"))
    sub = lat.regular_subdivision(cone, heights)
    # validate_subdivision already ran; degree-2 points all covered
    for p in lat.lattice_points_at_degree(cone, 2):
        assert any(point_in_cone(c, p) for c in sub.max_cones)


def test_invalid_subdivision_detected():
    cone = lat.gorenstein_cone_over(poly("square"))
    half = lat.cone_from_generators(
        [(1, 1, 1), (1, -1, 1), (-1, 1, 1)], deg=cone.deg)
    bad = lat.FanSubdivision(parent=cone, max_cones=(half,),
                             provenance=("explicit",))
    with pytest.raises(InvalidSubdivision):
        lat.validate_subdivision(bad)


def test_wrong_number_of_heights_is_invalid():
    cone = lat.gorenstein_cone_over(poly("square"))  # 9 degree-1 points
    with pytest.raises(InvalidSubdivision, match="got 5 heights for 9"):
        lat.regular_subdivision(cone, [0] * 5)


FIXTURE_CONES = [pytest.param(cone, id=f"{name}{side}")
                 for name in fx.REFLEXIVE_NAMES
                 for side, cone in (("", fx.reflexive_pair(name).cone),
                                    ("-dual", fx.reflexive_pair(name).dual))]


def _generic_quintic_subdivision():
    cone = lat.gorenstein_cone_over(poly("quintic"))
    rng = random.Random(1)
    heights = [rng.randrange(10) for _ in lat.lattice_points_at_degree(cone, 1)]
    return lat.regular_subdivision(cone, heights, force_generic=True)


def _assert_membership_matches_point_in_cone(sub, degrees):
    pts = [p for k in degrees for p in lat.lattice_points_at_degree(sub.parent, k)]
    inside = lat.cell_membership(sub.max_cones, pts)
    assert inside.shape == (len(pts), len(sub.max_cones))
    assert inside.tolist() == [
        [point_in_cone(cell, p) for cell in sub.max_cones] for p in pts]


@pytest.mark.parametrize("cone", FIXTURE_CONES)
def test_cell_masks_match_point_in_cone_on_stellar(cone):
    """cell_membership, whose columns are the cells' boolean masks."""
    _assert_membership_matches_point_in_cone(lat.stellar_subdivision(cone),
                                             range(4))


def test_cell_membership_matches_point_in_cone_on_generic_subdivision():
    cone = fx.reflexive_pair("quartic_dual").cone
    pts = lat.lattice_points_at_degree(cone, 1)
    sub = lat.regular_subdivision(cone, [sum(x * x for x in p) for p in pts],
                                  force_generic=True)
    assert len(sub.max_cones) == 58
    assert all(c.is_simplicial() for c in sub.max_cones)
    _assert_membership_matches_point_in_cone(sub, range(4))


def test_cell_membership_beyond_64_cells():
    sub = _generic_quintic_subdivision()
    assert len(sub.max_cones) == 104
    assert all(c.is_simplicial() for c in sub.max_cones)
    _assert_membership_matches_point_in_cone(sub, [1])


def test_cell_membership_on_lower_dimensional_cones():
    cone = lat.gorenstein_cone_over(poly("cube"))
    faces = [f.as_cone() for f in lat.face_lattice(cone).faces]
    pts = [p for k in range(3) for p in lat.lattice_points_at_degree(cone, k)]
    assert lat.cell_membership(faces, pts).tolist() == [
        [point_in_cone(face, p) for face in faces] for p in pts]
    empty = lat.cell_membership(faces, np.zeros((0, cone.ambient_rank)))
    assert empty.shape == (0, len(faces))


def _table_subdivisions(cone):
    """Trivial, stellar, and seeded random heights 0..3 on the degree-1
    points with and without force_generic."""
    rng = random.Random(len(cone.generators))
    heights = [rng.randrange(4) for _ in lat.lattice_points_at_degree(cone, 1)]
    return [lat.trivial_subdivision(cone), lat.stellar_subdivision(cone),
            lat.regular_subdivision(cone, heights),
            lat.regular_subdivision(cone, heights, force_generic=True)]


def _rows(points, rank):
    return np.array(points, dtype=np.int64).reshape(-1, rank)


@pytest.mark.parametrize("cone", FIXTURE_CONES)
def test_product_table_matches_the_dict_reference(cone):
    """Degree k-1 times degree 1 into degree k up to dim+1 (degree 3 on the
    126-point cones of the quintic pair, where dim+1 would take 5e6 Python
    lookups), and the points of degree <= 2 times degree 1 into themselves,
    where the sums of degree 3 are not in the target."""
    rank = cone.ambient_rank
    at = [lat.lattice_points_at_degree(cone, k) for k in range(cone.dim + 2)]
    top = cone.dim + 1 if len(at[1]) < 100 else 3
    cases = [(at[k - 1], at[1], at[k]) for k in range(1, top + 1)]
    cases.append((at[0] + at[1] + at[2], at[1], at[0] + at[1] + at[2]))
    for sub in _table_subdivisions(cone):
        for source, support, target in cases:
            got = lat.product_table(_rows(source, rank), _rows(support, rank),
                                    _rows(target, rank), sub.max_cones)
            assert got.tolist() == sum_table(source, support, target,
                                             sub.max_cones), sub.provenance


def test_product_table_checks_every_code_hit():
    # strides (1, 2) on the 2 x 2 box: (2, 0) has the code of (0, 1)
    target = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert lat.product_table([(2, 0)], [(0, 0)], target).tolist() == [[-1]]
    assert lat.product_table([(1, 0)], [(-1, 1), (1, 0)], target).tolist() \
        == [[2, -1]]


def test_product_table_edge_shapes():
    target = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert lat.product_table(np.zeros((0, 2)), target, target).shape == (0, 4)
    # a zero support finds the source points themselves: the unit columns
    assert lat.product_table(target[::-1], np.zeros((1, 2)),
                             target).tolist() == [[3], [2], [1], [0]]


@pytest.mark.parametrize("cone", FIXTURE_CONES)
def test_stellar_is_regular_with_center_heights(cone):
    sub = lat.stellar_subdivision(cone)
    pts = lat.lattice_points_at_degree(cone, 1)
    (center,) = lat.lattice_points_at_degree(cone, 1, interior_only=True)
    heights = [-1 if p == center else 0 for p in pts]
    assert sub == lat.regular_subdivision(cone, heights)
    assert sub.provenance == ("heights", tuple(heights))
    # the center coned over every facet
    coned = {lat.cone_from_generators(
        [g for g in cone.generators if la.dot(f, g) == 0] + [center],
        cone.ambient_rank, deg=cone.deg) for f in cone.facets}
    assert set(sub.max_cones) == coned and len(coned) == len(cone.facets)


def test_stellar_needs_a_full_dimensional_cone():
    cone = lat.gorenstein_cone_over(poly("cube"))
    facet = lat.face_lattice(cone).faces[-2].as_cone()
    with pytest.raises(ValueError):
        lat.stellar_subdivision(facet)


def test_validating_104_generic_quintic_cells_is_fast():
    start = time.process_time()
    sub = _generic_quintic_subdivision()
    elapsed = time.process_time() - start
    assert len(sub.max_cones) == 104
    assert elapsed < 5.0


def test_int64_kernels_refuse_values_that_could_wrap():
    # the Newton polytope of P(2,3,3,8,14)[30] in the kernel basis of its
    # weights: one 3-face cone of its dual has facet functionals of ~3*10^52
    pair = lat.reflexive_pair(lat.lattice_polytope([
        (-2, -1, 1, 0), (-2, 1, 2, -1), (-2, 9, -1, -1), (-1, -1, -1, 1),
        (0, -1, 2, -1), (1, -1, 2, -1), (8, -1, -1, -1), (13, -1, -1, -1)]))
    cones = [f.as_cone() for f in lat.face_lattice(pair.dual).faces]
    cone = max(cones, key=lambda c: max(map(abs, itertools.chain(*c.facets)),
                                        default=0))
    assert cone.dim == 3 and max(map(abs, itertools.chain(*cone.facets))) > 10**52
    # the closed slice reads no facet (the scan oracle does, so the exact
    # brute force checks it); the interior slice and cell_membership do
    assert lat.lattice_points_at_degree(cone, 1) == brute_force_points(cone, 1)
    with pytest.raises(DimensionBudgetExceeded):
        lat.lattice_points_at_degree(cone, 1, interior_only=True)
    with pytest.raises(DimensionBudgetExceeded):
        lat.cell_membership((cone,), cone.generators)
    # a product table's codes: strides up to (2^31 + 1)^2 on this box
    wide = [(0, 0, 0), (2**31, 2**31, 2**31)]
    with pytest.raises(DimensionBudgetExceeded):
        lat.product_table(wide, wide, wide)
    assert lat.product_table(wide[:1], wide, wide[:1]).tolist() == [[0, -1]]


def _diamond_cells(*triangles):
    cone = lat.gorenstein_cone_over(poly("diamond"))
    cells = [lat.cone_from_generators([v + (1,) for v in t], deg=cone.deg)
             for t in triangles]
    return lat.FanSubdivision(parent=cone, max_cones=tuple(cells),
                              provenance=("explicit",))


def test_overlapping_cells_detected():
    upper, lower = ((-1, 0), (1, 0), (0, 1)), ((-1, 0), (1, 0), (0, -1))
    right = ((0, -1), (0, 1), (1, 0))
    lat.validate_subdivision(_diamond_cells(upper, lower))
    with pytest.raises(InvalidSubdivision, match="outside the common face"):
        lat.validate_subdivision(_diamond_cells(upper, lower, right))


def test_intersection_that_is_not_a_face_detected():
    whole = ((-1, 0), (1, 0), (0, 1), (0, -1))
    upper = ((-1, 0), (1, 0), (0, 1))
    with pytest.raises(InvalidSubdivision, match="not a face"):
        lat.validate_subdivision(_diamond_cells(whole, upper))


# -- fans ---------------------------------------------------------------------------

def test_fan_completeness():
    lat.check_complete(fx.fan("p1"))
    lat.check_complete(fx.fan("p2"))
    lat.check_complete(fx.fan("p112"))
    incomplete = lat.fan_from_rays(2, [(1, 0), (0, 1)], [[0, 1]])
    with pytest.raises(NotComplete):
        lat.check_complete(incomplete)


def test_fan_cones_share_faces():
    fan = fx.fan("p2")
    assert len(fan.cones) == 7  # origin + 3 rays + 3 maximal cones
    assert sorted(c.dim for c in fan.cones) == [0, 1, 1, 1, 2, 2, 2]


# -- unimodular invariance (strong independent oracle) -------------------------------

def unimodular_transforms(rank, rng):
    mat = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(6):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(rank):
            mat[i][k] += c * mat[j][k]
    return mat


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_reflexivity_is_unimodular_invariant(seed):
    rng = random.Random(seed)
    p = poly(rng.choice(["diamond", "square", "p2"]))
    mat = unimodular_transforms(p.rank, rng)
    image = lat.lattice_polytope(
        [tuple(sum(mat[i][k] * v[k] for k in range(p.rank))
               for i in range(p.rank)) for v in p.vertices])
    assert lat.is_reflexive(image)


# -- lower hulls -------------------------------------------------------------------

def lower_hull_oracle(cone, pts, heights):
    """Lower-hull cells by the subset scan: for every dim-subset of points
    through whose lifts (p, h(p)) passes a unique functional phi, the tight
    set of phi when phi(p) <= h(p) for every point.  phi·det comes from the
    integer adjugate, for all subsets at once; fixture points have entries
    of at most 3, so minors, adjugates and products stay exact in int64."""
    d = cone.dim
    pts_a = np.array(pts, dtype=np.int64)
    h_a = np.array(heights, dtype=np.int64)
    subsets = np.array(list(itertools.combinations(range(len(pts)), d)))
    rows = pts_a[subsets]                                   # (m, d, d)
    det = np.rint(np.linalg.det(rows)).astype(np.int64)
    adj = np.zeros_like(rows)
    for i in range(d):
        for j in range(d):
            minor = np.delete(np.delete(rows, i, axis=1), j, axis=2)
            adj[:, j, i] = (-1) ** (i + j) * np.rint(np.linalg.det(minor))
    ok = det != 0
    phi = np.einsum("mij,mj->mi", adj[ok], h_a[subsets[ok]]) \
        * np.sign(det[ok])[:, None]                         # |det|·phi
    vals = phi @ pts_a.T
    bound = np.abs(det[ok])[:, None] * h_a[None, :]
    below = (vals <= bound).all(axis=1)
    return sorted({tuple(np.flatnonzero(tight).tolist())
                   for tight in (vals == bound)[below]})


def lower_hull_cases():
    """Every full-dimensional fixture cone whose dim-subsets of degree-1
    points number at most 2·10^5 (what the subset scan allowed)."""
    cones = [c for name in ORACLE_NAMES for c in oracle_cones(name)
             if c.dim == c.ambient_rank]
    return [c for c in dict.fromkeys(cones) if math.comb(len(
        lat.lattice_points_at_degree(c, 1)), c.dim) <= 200_000]


def test_lower_hull_matches_subset_oracle():
    rng = random.Random(5)
    for cone in lower_hull_cases():
        pts = lat.lattice_points_at_degree(cone, 1)
        for generic in (False, True):
            for spread in (0, 1, 4):
                heights = [rng.randint(0, spread) for _ in pts]
                if generic:
                    heights = [h * (1 << 20) + i for i, h in enumerate(heights)]
                assert lat._lower_hull_cells(cone, pts, heights) == \
                    lower_hull_oracle(cone, pts, heights), (cone, heights)
