"""S/tilde-S polynomials, stringy E-functions, Hodge tables, box points."""

import importlib.util
import itertools
import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from oracles import cold_caches, slice_scan

from stringcone import fixtures as fx
from stringcone import intlinalg as la
from stringcone import lattice as lat
from stringcone import posets as po
from stringcone import stringy as st
from stringcone.errors import (
    ConeNotInFan,
    DimensionBudgetExceeded,
    InvalidSubdivision,
    NegativeHodgeNumber,
    NotSimplicial,
)
from stringcone.polynomials import BivariateLaurentPolynomial as B
from stringcone.polynomials import UnivariatePolynomial as U

A1 = lat.cone_from_generators([(0, 1), (2, 1)])
A2 = lat.cone_from_generators([(0, 1), (3, 1)])
UNIMODULAR = lat.cone_from_generators([(1, 0), (0, 1)])
ZERO2 = lat.cone_from_generators((), 2)
SQUARE_CONE = lat.cone_from_generators(
    [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])


def pair(name):
    return fx.reflexive_pair(name)


def k_cone(name):
    return lat.gorenstein_cone_over(fx.polytope(name))


# -- S polynomials ---------------------------------------------------------------

def test_s_polynomial_examples():
    assert st.s_polynomial(ZERO2) == U.one()
    assert st.s_polynomial(A1) == U((1, 1))
    assert st.s_polynomial(k_cone("diamond")) == U((1, 2, 1))


def test_s_from_series_oracle():
    # (1-t)^2 * sum (2k+1) t^k truncates to 1 + t for the A1 cone
    series = [2 * k + 1 for k in range(6)]
    acc = {}
    for i, c in enumerate(series):
        for j, b in ((0, 1), (1, -2), (2, 1)):
            acc[i + j] = acc.get(i + j, 0) + c * b
    assert U(acc.get(k, 0) for k in range(3)) == st.s_polynomial(A1)


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_s_reciprocity(name):
    for cone in (k_cone(name),):
        assert st.s_polynomial(cone).coeff_list(cone.dim)[::-1] == \
            st.s_polynomial_interior(cone).coeff_list(cone.dim)


def test_s_reciprocity_on_faces():
    for face in lat.face_lattice(k_cone("cube")).faces:
        c = face.as_cone()
        assert st.s_polynomial(c).coeff_list(c.dim)[::-1] == \
            st.s_polynomial_interior(c).coeff_list(c.dim)


def scan_s(cone):
    """The slow reference: (1-t)^dim times the point counts of the
    bounding-box scan, which shares no code with face_s."""
    d = cone.dim
    return st._times_one_minus_t_pow(
        [len(slice_scan(cone, k, False)) for k in range(d + 1)], d)


def perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def sheared_hodge_polytopes():
    """The hodge benchmark's polytopes, sheared as its seed-3 batch."""
    wl = perfbench_workloads()
    transform = wl.unimodular_transform(random.Random("hodge:3"), 4)
    return ([transform(wl.newton_simplex(w))
             for w, _ in wl.WEIGHTED_SIMPLICES.values()]
            + [transform(wl.polygon_product(a, b))
               for (a, b), _ in wl.PRODUCTS.values()])


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_face_s_matches_scan_on_every_fixture_face(name):
    # in the cones over the square and the 3-cube the unperturbed reference
    # point lies on an interior wall of the pulling triangulation, so a
    # missing tie-break counts the points on that wall twice or not at all
    for top in (pair(name).cone, pair(name).dual):
        for face in lat.face_lattice(top).faces:
            assert st.face_s(face) == scan_s(face.as_cone()), face


def test_face_s_matches_scan_on_the_sheared_hodge_batch():
    for vertices in sheared_hodge_polytopes():
        p = lat.reflexive_pair(lat.lattice_polytope(vertices))
        for top in (p.cone, p.dual):
            for face in lat.face_lattice(top).faces:
                assert st.face_s(face) == scan_s(face.as_cone()), face


def top_simplices(cone):
    return lat._pulling_triangulation(lat.face_lattice(cone).maximum())


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_face_s_takes_one_smith_form_per_top_simplex(name, monkeypatch):
    p = pair(name)
    cold_caches()
    calls = []
    real = la._diagonalize
    monkeypatch.setattr(la, "_diagonalize",
                        lambda mat: calls.append(mat) or real(mat))
    for top in (p.cone, p.dual):
        for face in lat.face_lattice(top).faces:
            st.face_s(face)
    # a self-dual pair (the segment) has one cone
    assert len(calls) == sum(map(len, map(top_simplices, {p.cone, p.dual})))
    if name == "quintic":  # two simplices, not one Smith form per face
        assert len(calls) == 2


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_every_face_simplex_lies_in_a_top_simplex(name):
    for cone in (pair(name).cone, pair(name).dual):
        for face in lat.face_lattice(cone).faces:
            found = list(lat._half_open_simplices(face))
            assert [tuple(top[i] for i in po._bits(inside))
                    for top, inside, _ in found] \
                == list(lat._pulling_triangulation(face))
            assert all(top in top_simplices(cone) for top, _, _ in found)


def test_face_simplex_outside_every_top_simplex_raises(monkeypatch):
    fl = lat.face_lattice(k_cone("cube"))
    real = lat._pulling_triangulation
    monkeypatch.setattr(lat, "_pulling_triangulation",
                        lambda f: real(f)[:1] if f == fl.maximum() else real(f))
    with pytest.raises(InvalidSubdivision, match="contains"):
        for face in fl.faces:
            list(lat._half_open_simplices(face))


@pytest.mark.parametrize("name", fx.SMALL_REFLEXIVE_NAMES)
def test_s_matches_scan_on_stellar_cells(name):
    for cell in lat.stellar_subdivision(k_cone(name)).max_cones:
        assert st.s_polynomial(cell) == scan_s(cell), cell


def test_s_counts_box_groups_in_chunks():
    # the segment (1, 0)..(1, N) has h* = 1 + (N-1) t and box group Z/N
    n = st.BOX_GROUP_BUDGET + 5
    assert st.s_polynomial(lat.cone_from_generators([(1, 0), (1, n)])) \
        == U((1, n - 1))


def test_s_over_class_budget_raises_before_allocating():
    cone = lat.cone_from_generators([(1, 0), (1, lat._BOX_BUDGET + 1)])
    tracemalloc.start()
    try:
        with pytest.raises(DimensionBudgetExceeded):
            st.s_polynomial(cone)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def newton_simplex(weights):
    """Newton simplex of the degree-sum(w) hypersurface in P(w), in the
    lattice basis e_i - w_i e_0 of {x : w.x = 0}, shifted by (1,...,1)."""
    d = sum(weights)
    return [tuple(d // w * (i == j) - 1 for j in range(1, len(weights)))
            for i, w in enumerate(weights)]


def cy3_table(h11, h21):
    return {(0, 0): 1, (3, 3): 1, (3, 0): 1, (0, 3): 1,
            (1, 1): h11, (2, 2): h11, (2, 1): h21, (1, 2): h21}


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("weights, h11, h21", [
    ((1, 1, 12, 28, 42), 11, 491),
    ((1, 1, 1, 6, 9), 2, 272),
    ((1, 1, 2, 8, 12), 3, 243),
])
def test_weight_system_goldens(weights, h11, h21, mirror):
    # the top cones' degree slices have bounding boxes beyond the scan's
    # budget (22,895,136 cells for P(1,1,12,28,42)); their box groups do not
    cold_caches()
    start = time.process_time()
    p = lat.lattice_polytope(newton_simplex(weights))
    if mirror:
        p = lat.lattice_polytope([tuple(map(int, v))
                                  for v in lat.dual_polytope(p).vertices])
        h11, h21 = h21, h11
    table = st.stringy_hodge_table(
        st.e_st_hypersurface(lat.reflexive_pair(p)), 3)
    elapsed = time.process_time() - start
    assert table.as_dict() == cy3_table(h11, h21)
    assert elapsed < 2.0


def test_hodge_batch_is_fast():
    ops = perfbench_workloads().make_batch("hodge", 3)
    cold_caches()
    start = time.process_time()
    results = [op.run() for op in ops]
    elapsed = time.process_time() - start
    assert results == [op.expected for op in ops]
    assert elapsed < 0.6


# -- tilde-S ------------------------------------------------------------------------

def test_tilde_s_examples():
    assert st.tilde_s_polynomial(A1) == U((0, 1))
    assert st.tilde_s_polynomial(SQUARE_CONE) == U.zero()
    assert st.tilde_s_polynomial(k_cone("diamond")) == U((0, 1, 1))


def test_tilde_s_simplicial_examples():
    assert st.tilde_s_simplicial(A1) == U((0, 1))
    assert st.tilde_s_simplicial(UNIMODULAR) == U.zero()
    assert st.tilde_s_simplicial(ZERO2) == U.one()
    with pytest.raises(NotSimplicial):
        st.tilde_s_simplicial(k_cone("diamond"))


@pytest.mark.parametrize("name", ["diamond", "p2", "cube", "quartic", "quintic"])
def test_tilde_s_properties_on_faces(name):
    p = pair(name)
    for cone in (p.cone, p.dual):
        fl = lat.face_lattice(cone)
        poset = fl.poset
        for face in fl.faces:
            c = face.as_cone()
            ts = st.tilde_s_polynomial(c)
            # palindromic duality
            assert ts.is_zero() or ts.is_palindromic(c.dim)
            # simplicial formula agreement
            if c.is_simplicial():
                assert st.tilde_s_simplicial(c) == ts
        # inversion identity on the full cone
        total = U.zero()
        top = fl.faces[-1].gen_indices
        for face in fl.faces:
            iv = poset.interval(face.gen_indices, top)
            total = total + st.tilde_s_polynomial(face.as_cone()) \
                * po.g_polynomial(iv.dual())
        assert total == st.s_polynomial(cone)


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_face_tilde_s_matches_tilde_s_of_the_face_cone(name):
    p = pair(name)
    for cone in (p.cone, p.dual):
        for face in lat.face_lattice(cone).faces:
            assert st.face_tilde_s(face) == st.tilde_s_polynomial(face.as_cone())


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_face_tilde_s_matches_polynomial_face_sum(name):
    p = pair(name)
    for cone in (p.cone, p.dual):
        fl = lat.face_lattice(cone)
        poset = fl.poset
        for face in fl.faces:
            total = U.zero()
            for f in fl.faces:
                if f.gen_indices <= face.gen_indices:
                    g = po.g_polynomial(
                        poset.interval(f.gen_indices, face.gen_indices))
                    total = total + (-1) ** (face.dim - f.dim) * (
                        st.s_polynomial(f.as_cone()) * g)
            assert st.face_tilde_s(face) == total


# -- box points -----------------------------------------------------------------------

def test_box_point_examples():
    assert st.box_points(UNIMODULAR).by_shift == {}
    assert st.box_points(A1).by_shift == {1: [(1, 1)]}
    assert st.box_points(A2).by_shift == {1: [(1, 1), (2, 1)]}
    with pytest.raises(NotSimplicial):
        st.box_points(k_cone("diamond"))


@lru_cache(maxsize=None)
def box_points_oracle(cone):
    """The slow reference: the degree-l lattice points whose coordinates
    in the generator basis, solved over Q, all lie in (0, 1)."""
    gens = cone.generators
    table = {}
    for l in range(1, max(cone.dim, 1)):
        hits = []
        for p in lat.lattice_points_at_degree(cone, l):
            aug = [[Fraction(g[i]) for g in gens] + [Fraction(p[i])]
                   for i in range(len(p))]
            rref, pivots = la.rref_fraction(aug)
            if len(gens) in pivots or len(pivots) != len(gens):
                continue  # p is outside the span of the generators
            if all(0 < row[-1] < 1 for row in rref[:len(gens)]):
                hits.append(p)
        if hits:
            table[l] = hits
    return table


def oracle_top_cones(name):
    """Criterion 7's cones: both cones of a reflexive fixture, or the
    cones of a fan fixture."""
    if name in fx.fan_names():
        return [c for c in fx.fan(name).cones if c.dim > 0]
    return [pair(name).cone, pair(name).dual]


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES + tuple(fx.fan_names()))
def test_box_points_match_fraction_oracle(name):
    # a cone is its own top face, so the simplex top cones (quartic_dual,
    # quintic_mirror, quintic) are compared too
    for top in oracle_top_cones(name):
        for face in lat.face_lattice(top).faces:
            c = face.as_cone()
            if c.is_simplicial():
                assert st.box_points(c).by_shift == box_points_oracle(c), c


def test_box_points_of_lower_dimensional_non_saturated_face():
    # an edge of the quartic_dual simplex has lattice length 4: its 2-d
    # cone in Z^4 has index 4 in the saturated span lattice
    edge = next(f.as_cone() for f in lat.face_lattice(k_cone("quartic_dual")).faces
                if f.generator_vectors() == ((-1, -1, -1, 1), (-1, -1, 3, 1)))
    assert edge.dim == 2 < edge.ambient_rank
    expected = {1: [(-1, -1, 0, 1), (-1, -1, 1, 1), (-1, -1, 2, 1)]}
    assert st.box_points(edge).by_shift == expected == box_points_oracle(edge)


def test_box_group_over_budget_raises_before_allocating():
    # the box group of (1, 0), (1, N) is Z/N
    cone = lat.cone_from_generators([(1, 0), (1, st.BOX_GROUP_BUDGET + 1)])
    tracemalloc.start()
    try:
        with pytest.raises(DimensionBudgetExceeded):
            st.box_points(cone)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("name", ["quartic", "quartic_dual", "p2", "p2_dual"])
def test_box_counts_match_tilde_s(name):
    cone = k_cone(name)
    table = st.box_points(cone)
    ts = st.tilde_s_polynomial(cone)
    for shift in range(1, cone.dim):
        assert table.count(shift) == ts.coeff(shift)


# -- stringy E of hypersurfaces ----------------------------------------------------------

def test_e_st_diamond():
    expected = B({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    assert st.e_st_hypersurface(pair("diamond")) == expected
    assert st.e_st_oracle(pair("diamond")) == expected


def poset_roots(calls):
    """The element lists of the EulerianPoset roots built, as a multiset."""
    return Counter(tuple(tuple(sorted(x)) for x in args[0]) for args in calls)


def lattice_roots(cones):
    return Counter(tuple(tuple(sorted(f.gen_indices))
                         for f in lat.face_lattice(c).faces) for c in cones)


def test_e_st_hypersurface_builds_one_poset_per_face_lattice(monkeypatch):
    calls = []
    init = po.EulerianPoset.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(po.EulerianPoset, "__init__", counted)
    st.face_tilde_s.cache_clear()
    lat.face_lattice.cache_clear()
    p = pair("cube")
    st.e_st_hypersurface(p)
    # one root each for K and K*: intervals are views of their lattice's root
    assert poset_roots(calls) == lattice_roots([p.cone, p.dual])


def test_e_st_hypersurface_reads_g_by_face_number(monkeypatch):
    views, checks = [], []
    interval = po.EulerianPoset.interval
    is_eulerian = po.EulerianPoset.is_eulerian

    def spy_interval(self, x, y):
        views.append((x, y))
        return interval(self, x, y)

    def spy_is_eulerian(self):
        checks.append(self)
        return is_eulerian(self)

    monkeypatch.setattr(po.EulerianPoset, "interval", spy_interval)
    monkeypatch.setattr(po.EulerianPoset, "is_eulerian", spy_is_eulerian)
    for name in ("quintic", "cube"):
        for cache in (st.face_tilde_s, st.face_s, lat.face_lattice,
                      lat._pulling_triangulation):
            cache.cache_clear()
        views.clear()
        checks.clear()
        p = pair(name)
        st.e_st_hypersurface(p)
        faces = sum(len(lat.face_lattice(c).faces) for c in (p.cone, p.dual))
        # every G([f, F]) is read by face number: no interval view, and the
        # Eulerian test runs per lattice, not per (f, F) pair
        assert views == []
        assert 0 < len(checks) <= faces


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_two_formulas_agree(name):
    p = pair(name)
    assert st.e_st_hypersurface(p) == st.e_st_oracle(p)


def test_k3_hodge_number():
    table = st.stringy_hodge_table(st.e_st_hypersurface(pair("quartic")), 2)
    assert table.entry(1, 1) == 20
    assert table.entry(0, 0) == table.entry(2, 0) == 1


def test_quintic_hodge_numbers():
    table = st.stringy_hodge_table(st.e_st_hypersurface(pair("quintic")), 3)
    assert table.entry(1, 1) == 1 and table.entry(2, 1) == 101
    mirror = st.stringy_hodge_table(
        st.e_st_hypersurface(pair("quintic_mirror")), 3)
    assert mirror.entry(1, 1) == 101 and mirror.entry(2, 1) == 1


HEXAGON = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


@pytest.mark.parametrize("vertices,h11,h21", [
    ([u + v for u in HEXAGON for v in HEXAGON], 8, 44),         # hex x hex
    ([u + (0, 0) for u in HEXAGON] + [(0, 0) + v for v in HEXAGON],
     44, 8),                                                      # hex + hex
])
def test_hexagon_product_and_sum(vertices, h11, h21):
    # 36 vertices (the product) or 36 dual vertices (the free sum); the
    # two are polar duals, so the tables are mirror images
    start = time.process_time()
    p = lat.reflexive_pair(lat.lattice_polytope(vertices))
    e_st = st.e_st_hypersurface(p)
    table = st.stringy_hodge_table(e_st, 3)
    assert (table.entry(1, 1), table.entry(2, 1)) == (h11, h21)
    assert st.e_st_oracle(p) == e_st
    assert time.process_time() - start < 3


def test_quintic_from_its_monomials():
    # the 126 monomials of a quintic, shifted by (1,...,1) and written in
    # the basis e_i - e_0, load as the Newton simplex
    monomials = [m for m in itertools.product(range(6), repeat=5)
                 if sum(m) == 5]
    p = lat.lattice_polytope([tuple(x - 1 for x in m[1:]) for m in monomials])
    assert len(monomials) == 126 and p == fx.polytope("quintic")
    table = st.stringy_hodge_table(st.e_st_hypersurface(
        lat.reflexive_pair(p)), 3)
    assert (table.entry(1, 1), table.entry(2, 1)) == (1, 101)


@pytest.mark.parametrize("a,b", fx.MIRROR_PAIRS)
def test_mirror_duality(a, b):
    pa, pb = pair(a), pair(b)
    cy_dim = pa.cone.dim - 2
    assert st.e_st_hypersurface(pa) == \
        st.mirror_transform(st.e_st_hypersurface(pb), cy_dim)


# -- Hodge tables ----------------------------------------------------------------------

def test_hodge_table_sign_rule():
    e = B({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    table = st.stringy_hodge_table(e, 1)
    assert table.as_dict() == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert all(table.entry(q, p) == h for (p, q), h in table.entries)
    # the signed coefficients give e back
    assert B({pq: (-1) ** sum(pq) * h for pq, h in table.entries}) == e


def test_hodge_table_toric_example():
    e = B({(0, 0): 1, (1, 1): 2, (2, 2): 1})
    table = st.stringy_hodge_table(e, 2)
    assert table.as_dict() == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_hodge_table_empty_and_invalid():
    assert st.stringy_hodge_table(B.zero(), 1).entries == ()
    with pytest.raises(NegativeHodgeNumber):
        st.stringy_hodge_table(B({(1, 0): 1}), 1)
    with pytest.raises(NegativeHodgeNumber):
        st.stringy_hodge_table(B({(-1, 0): 1}), 1)


# -- toric varieties ---------------------------------------------------------------------

def test_e_st_toric_values():
    assert st.e_st_toric(fx.fan("p1")) == B({(0, 0): 1, (1, 1): 1})
    assert st.e_st_toric(fx.fan("p2")) == B({(0, 0): 1, (1, 1): 1, (2, 2): 1})
    assert st.e_st_toric(fx.fan("p112")) == \
        B({(0, 0): 1, (1, 1): 2, (2, 2): 1})


def test_smooth_toric_hodge_diagonal():
    table = st.stringy_hodge_table(st.e_st_toric(fx.fan("p2")), 2)
    assert all(p == q for (p, q), _ in table.entries)


def test_e_int_orbit_closures():
    fan = fx.fan("p2")
    ray = lat.cone_from_generators([(1, 0)], 2)
    assert st.e_int_orbit_closure(fan, ray) == B({(0, 0): 1, (1, 1): 1})
    full = [c for c in fan.cones if c.dim == 2][0]
    assert st.e_int_orbit_closure(fan, full) == B.one()
    whole = lat.cone_from_generators((), 2)
    assert st.e_int_orbit_closure(fx.fan("p112"), whole) == \
        B({(0, 0): 1, (1, 1): 1, (2, 2): 1})
    with pytest.raises(ConeNotInFan):
        st.e_int_orbit_closure(fan, lat.cone_from_generators([(1, 1)], 2))


@pytest.mark.parametrize("name", ["p1", "p2", "p112"])
def test_toric_stringy_decomposes_over_orbit_closures(name):
    fan = fx.fan(name)
    total = B.zero()
    for cone in fan.cones:
        total = total + st.e_int_orbit_closure(fan, cone) \
            * st.tilde_s_polynomial(cone).to_bivariate(1, 1)
    assert total == st.e_st_toric(fan)


def _fan_interval_oracle(fan, low, high):
    """The interval [low, high] of the fan built afresh from its cones
    ordered by generator-set inclusion."""
    members = [c for c in fan.cones
               if set(low.generators) <= set(c.generators) <= set(high.generators)]
    covers = [(a.generators, b.generators) for a in members for b in members
              if b.dim == a.dim + 1 and set(a.generators) <= set(b.generators)]
    return po.EulerianPoset([c.generators for c in members], covers)


@pytest.mark.parametrize("name", ["p1", "p2", "p112"])
def test_orbit_closure_intervals_match_fan_intervals(name, monkeypatch):
    fan = fx.fan(name)
    expected = {}
    for cone in fan.cones:
        total = B.zero()
        for upper in fan.cones:
            if set(cone.generators) <= set(upper.generators):
                interval = _fan_interval_oracle(fan, cone, upper)
                total = total + B({(1, 1): 1, (0, 0): -1}) ** (
                    fan.rank - upper.dim) * po.g_polynomial(
                        interval.dual()).to_bivariate(1, 1)
        expected[cone] = total
    calls = []
    init = po.EulerianPoset.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(po.EulerianPoset, "__init__", counted)
    lat.face_lattice.cache_clear()
    for cone in fan.cones:
        assert st.e_int_orbit_closure(fan, cone) == expected[cone]
    # one face-lattice root per upper cone, every interval a view of it
    assert poset_roots(calls) == lattice_roots(fan.cones)


# -- string cohomology table -----------------------------------------------------------------

def test_table_diamond():
    table = st.string_cohomology_table(pair("diamond"))
    assert table.as_dict() == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}


def test_table_quintic():
    table = st.string_cohomology_table(pair("quintic"))
    assert table.entry(1, 1) == 1 and table.entry(2, 1) == 101


@pytest.mark.parametrize("name", ["diamond", "p2", "cube", "quartic"])
def test_table_signed_sum_and_subdivision_invariance(name):
    p = pair(name)
    base = st.string_cohomology_table(p)
    assert st.stringy_hodge_table(st.e_st_hypersurface(p),
                                  base.dimension) == base
