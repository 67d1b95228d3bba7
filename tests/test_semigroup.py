"""Deformed semigroup-ring quotients and regularity."""

import random

import pytest
from oracles import (full_matrix_dims, point_in_cone, restrict_element,
                     sigma_regular_by_cells)

from stringcone import fixtures as fx
from stringcone import intlinalg as la
from stringcone import lattice as lat
from stringcone import semigroup as sg
from stringcone import stringy as st
from stringcone.errors import (DimensionBudgetExceeded, InvalidField,
                               PointOutsideCone)
from stringcone.polynomials import UnivariatePolynomial

A1 = lat.cone_from_generators([(0, 1), (2, 1)])
SQUARE_CONE = lat.cone_from_generators(
    [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])


def k_cone(name):
    return lat.gorenstein_cone_over(fx.polytope(name))


def restrict_to_face(sub, face_cone):
    """The subdivision that sub induces on a face of its parent."""
    gens = sorted({g for cell in sub.max_cones for g in cell.generators})
    on_face = {g for g in gens if point_in_cone(face_cone, g)}
    cells = []
    for cell in sub.max_cones:
        inside = [g for g in cell.generators if g in on_face]
        if not inside:
            continue
        restricted = lat.cone_from_generators(
            inside, sub.parent.ambient_rank, deg=sub.parent.deg)
        if restricted.dim == face_cone.dim and restricted not in cells:
            cells.append(restricted)
    return lat.FanSubdivision(
        parent=face_cone,
        max_cones=tuple(sorted(cells or [face_cone], key=lambda c: c.generators)),
        provenance=("restricted",))


def expected_vectors(cone):
    return (tuple(st.s_polynomial(cone).coeff_list(cone.dim)),
            tuple(st.tilde_s_polynomial(cone).coeff_list(cone.dim)))


# -- elements and derivatives -----------------------------------------------------

def test_field_descriptor_validation():
    assert la.parse_field("rational") == ("rational", None)
    assert la.parse_field("prime:2097169") == ("prime", 2097169)
    for bad in ("prime:65537", "float", "prime:", "prime:2000001",
                "prime:4194319"):
        for _ in range(2):  # a failed parse is not memoised
            with pytest.raises(InvalidField):
                la.parse_field(bad)


def test_field_descriptor_primality_runs_once(monkeypatch):
    calls = []
    prime_test = la._is_probable_prime
    monkeypatch.setattr(la, "_is_probable_prime",
                        lambda n: calls.append(n) or prime_test(n))
    la.parse_field.cache_clear()
    for _ in range(3):
        assert la.parse_field("prime:2097169") == ("prime", 2097169)
    assert calls == [2097169]


def test_degree_one_element_validation():
    with pytest.raises(PointOutsideCone):
        sg.degree_one_element(A1, {(5, 1): 1})
    g = sg.degree_one_element(A1, {(0, 1): 1, (1, 1): 0})
    assert dict(g.coefficients) == {(0, 1): 1}


def test_random_element_is_reproducible_and_full_support():
    g1 = sg.random_degree_one(A1, seed=42)
    g2 = sg.random_degree_one(A1, seed=42)
    assert g1 == g2
    assert {m for m, _ in g1.coefficients} == set(
        lat.lattice_points_at_degree(A1, 1))
    lo, hi = sg.COEFFICIENT_RANGE
    assert all(lo <= c <= hi for _, c in g1.coefficients)


def test_logarithmic_derivative_example():
    g = sg.degree_one_element(A1, {(0, 1): 1, (2, 1): 1, (1, 1): 1})
    ders = sg.logarithmic_derivatives(g)
    assert ders == [{(1, 1): 1, (2, 1): 2}, {(0, 1): 1, (1, 1): 1, (2, 1): 1}]


def test_logarithmic_derivative_single_point_and_zero():
    g = sg.degree_one_element(A1, {(2, 1): 5})
    assert sg.logarithmic_derivatives(g) == [{(2, 1): 10}, {(2, 1): 5}]
    z = sg.degree_one_element(A1, {})
    assert sg.logarithmic_derivatives(z) == [{}, {}]


def test_derivative_span_independent_of_functional_choice():
    # span over Q of the derivatives is the full gradient space
    from stringcone import intlinalg as la
    g = sg.random_degree_one(k_cone("p2"), seed=1)
    ders = sg.logarithmic_derivatives(g)
    pts = lat.lattice_points_at_degree(g.cone, 1)
    rows = [[d.get(p, 0) for p in pts] for d in ders]
    alt = []
    for n in ((1, 1, 1), (1, -1, 0), (0, 1, -1)):  # another spanning triple
        alt.append([la.dot(p, n) * dict(g.coefficients)[p] for p in pts])
    assert la.rank_fraction(rows) == la.rank_fraction(rows + alt)


# -- graded dimensions -----------------------------------------------------------------

def test_a1_dims():
    rep = sg.graded_quotient_dims(sg.random_degree_one(A1, seed=0))
    assert rep.dims_R0 == (1, 1, 0)
    assert rep.dims_R1 == (0, 1, 0)
    assert rep.top_degree_dims == (0, 0)
    assert rep.regular_profile
    # the apex cone is ranked through degree 1, which has no points
    apex = lat.cone_from_generators([], 2, deg=(0, 1))
    rep = sg.graded_quotient_dims(sg.random_degree_one(apex, seed=0))
    assert (rep.dims_R0, rep.dims_R1, rep.top_degree_dims,
            rep.regular_profile) == ((1,), (1,), (0, 0), True)


def test_square_cone_dims_both_subdivisions():
    g = sg.random_degree_one(SQUARE_CONE, seed=1)
    for sub in (None, lat.regular_subdivision(SQUARE_CONE, [0, 0, 0, 1])):
        rep = sg.graded_quotient_dims(g, sub)
        assert rep.dims_R0 == (1, 1, 0, 0)
        assert rep.dims_R1 == (0, 0, 0, 0)


def test_diamond_dims():
    rep = sg.graded_quotient_dims(sg.random_degree_one(k_cone("diamond"), seed=2))
    assert rep.dims_R1 == (0, 1, 1, 0)
    assert rep.dims_R0 == (1, 2, 1, 0)


@pytest.mark.parametrize("name", ["diamond", "p2", "cross", "quartic"])
def test_dims_match_s_and_tilde_s(name):
    cone = k_cone(name)
    expect_r0, expect_r1 = expected_vectors(cone)
    for seed in (0, 1):
        rep = sg.graded_quotient_dims(sg.random_degree_one(cone, seed=seed))
        assert rep.dims_R0 == expect_r0
        assert rep.dims_R1 == expect_r1
        assert sum(rep.dims_R0) == sum(st.s_polynomial(cone).coeffs)
        assert rep.dims_R1 == rep.dims_R1[::-1]  # palindromic


def test_backends_agree():
    cone = k_cone("p2_dual")
    rp = sg.graded_quotient_dims(sg.random_degree_one(cone, seed=5))
    rq = sg.graded_quotient_dims(
        sg.random_degree_one(cone, seed=5, field="rational"))
    assert (rp.dims_R0, rp.dims_R1) == (rq.dims_R0, rq.dims_R1)


def test_deformed_dims_invariant_under_subdivision():
    cone = k_cone("p2")
    expect_r0, expect_r1 = expected_vectors(cone)
    g = sg.random_degree_one(cone, seed=3)
    rep = sg.graded_quotient_dims(g, lat.stellar_subdivision(cone))
    assert rep.dims_R0 == expect_r0
    assert rep.dims_R1 == expect_r1


# -- regularity ------------------------------------------------------------------------

def test_generic_element_is_regular():
    g = sg.random_degree_one(k_cone("diamond"), seed=0)
    assert sg.is_sigma_regular(g).regular


def test_missing_vertex_coefficient_breaks_regularity():
    cone = k_cone("diamond")
    coeffs = dict(sg.random_degree_one(cone, seed=0).coefficients)
    coeffs[cone.generators[0]] = 0
    bad = sg.degree_one_element(cone, coeffs)
    verdict = sg.is_sigma_regular(bad)
    report = sg.graded_quotient_dims(bad)
    assert not verdict.regular
    assert "cutoff" in verdict.detail
    assert f"dims {report.dims_R0} + top {report.top_degree_dims}" in verdict.detail


def test_trivial_subdivision_regularity_is_classical():
    cone = k_cone("p2")
    g = sg.random_degree_one(cone, seed=0)
    triv = sg.is_sigma_regular(g, lat.trivial_subdivision(cone))
    assert triv.regular == sg.is_sigma_regular(g).regular


def test_regularity_restricts_to_faces():
    cone = k_cone("diamond")
    sub = lat.stellar_subdivision(cone)
    g = sg.random_degree_one(cone, seed=0)
    assert sg.is_sigma_regular(g, sub).regular
    for face in lat.face_lattice(cone).faces:
        if face.dim in (0, cone.dim):
            continue
        fc = face.as_cone()
        verdict = sg.is_sigma_regular(restrict_element(g, fc),
                                      restrict_to_face(sub, fc))
        assert verdict.regular


def test_one_verdict_is_one_deformed_ring(monkeypatch):
    cone = k_cone("p2_dual")
    sub = lat.stellar_subdivision(cone)
    calls = []
    quotient = sg.graded_quotient_dims
    monkeypatch.setattr(sg, "graded_quotient_dims", lambda *args: calls.append(
        args) or quotient(*args))
    good = sg.random_degree_one(cone, seed=2)
    bad = sg.degree_one_element(cone, {cone.generators[0]: 7})
    assert [sg.is_sigma_regular(g, sub).regular for g in (good, bad)] == [
        True, False]
    assert calls == [(good, sub), (bad, sub)]


def grid_subdivisions(cone, seed):
    """Trivial, stellar and random heights, each also pulled to simplices."""
    points = lat.lattice_points_at_degree(cone, 1)
    centre = lat.lattice_points_at_degree(cone, 1, True)[0]
    rng = random.Random(seed)
    for heights in ([0] * len(points), [-(p == centre) for p in points],
                    [rng.randint(0, 3) for _ in points]):
        for generic in (False, True):
            yield lat.regular_subdivision(cone, heights, generic)


def grid_elements(cone, sub, field, seed):
    """Elements on one cell's generators, on every point but the stellar
    centre, on half the points, all ones, and zero mod p on half."""
    points = lat.lattice_points_at_degree(cone, 1)
    centre = lat.lattice_points_at_degree(cone, 1, True)[0]
    rng = random.Random(seed)
    coeff = lambda: rng.randint(1, 10**6)
    cell = rng.choice(sub.max_cones)
    for support in (cell.generators,
                    [p for p in points if p != centre],
                    rng.sample(points, len(points) // 2)):
        yield sg.degree_one_element(cone, {p: coeff() for p in support}, field)
    yield sg.degree_one_element(cone, dict.fromkeys(points, 1), field)
    # zero mod p on every other point, not over Q
    yield sg.degree_one_element(cone, {
        p: coeff() * (1 if i % 2 else la.DEFAULT_PRIME)
        for i, p in enumerate(points)}, field)


def test_deformed_ring_regularity_matches_every_cell():
    # the 2-d reflexive polygons, each dual to another, then cube and cross
    cones = [k_cone(name) for name in ("diamond", "square", "p2", "p2_dual",
                                       "cube", "cross")]
    checked, irregular = 0, 0
    for seed, cone in enumerate(cones):
        fields = (sg.DEFAULT_FIELD,) + ("rational",) * (cone.dim == 3)
        for sub in grid_subdivisions(cone, seed):
            for field in fields:
                for g in grid_elements(cone, sub, field, seed):
                    regular = sigma_regular_by_cells(g, sub)
                    assert sg.is_sigma_regular(g, sub).regular == regular, (
                        cone.generators, sub.provenance, g.coefficients)
                    checked += 1
                    irregular += not regular
    # 300 elements, 181 of them not regular: neither verdict is vacuous
    assert checked == 300 and irregular >= 150 and checked - irregular >= 100


def test_restrict_subdivision_to_face():
    k = k_cone("square")
    sub = lat.stellar_subdivision(k)
    face = lat.face_lattice(k).faces[-2].as_cone()  # a facet
    induced = restrict_to_face(sub, face)
    assert all(c.dim == face.dim for c in induced.max_cones)
    for cell in induced.max_cones:
        assert all(point_in_cone(face, g) for g in cell.generators)


# -- one rank route per field, and the closed forms against their loops ---------

@pytest.mark.parametrize("name", ["diamond", "square"])
def test_rational_dims_make_no_fraction_rank(name, monkeypatch):
    calls = []
    rank_fraction = la.rank_fraction
    monkeypatch.setattr(la, "rank_fraction",
                        lambda rows: calls.append(rows) or rank_fraction(rows))
    cone = k_cone(name)
    g = sg.random_degree_one(cone, seed=0, field="rational")
    for sub in (None, lat.stellar_subdivision(cone)):
        sg.graded_quotient_dims(g, sub)
    assert calls == []


def functionals_oracle(cone):
    """The greedy choice by one exact rank per coordinate."""
    gens = [list(g) for g in cone.generators]
    chosen, rows = [], []
    for i in range(cone.ambient_rank):
        col = [g[i] for g in gens]
        if gens and la.rank_int(rows + [col]) > len(rows):
            rows.append(col)
            chosen.append(i)
        if len(chosen) == cone.dim:
            break
    return tuple(tuple(int(j == i) for j in range(cone.ambient_rank))
                 for i in chosen)


@pytest.mark.parametrize("name", fx.polytope_names())
def test_grading_functionals_match_greedy_ranks(name):
    cone = lat.gorenstein_cone_over(fx.polytope(name))
    for face in lat.face_lattice(cone).faces:
        fc = face.as_cone()
        assert sg.grading_functionals(fc) == functionals_oracle(fc)


@pytest.mark.parametrize("name", fx.fan_names())
def test_grading_functionals_match_greedy_ranks_on_fans(name):
    for cone in fx.fan(name).cones:
        assert sg.grading_functionals(cone) == functionals_oracle(cone)


# -- derivative d skips the monomials that derivatives < d reach -----------------

def subdivision(cone, stellar):
    return (lat.stellar_subdivision(cone) if stellar
            else lat.trivial_subdivision(cone))


def assert_matches_full_matrix_dims(report, g, sub):
    """The oracle's dims at degrees 0 .. dim.  The oracle alone ranks
    degree dim+1: it is zero wherever degree dim is (the cutoff lemma),
    and the report names it (0, 0) exactly there, None elsewhere."""
    r0, r1, top = full_matrix_dims(g, sub)
    assert (report.dims_R0, report.dims_R1) == (r0, r1)
    if r0[-1] == 0:
        assert report.top_degree_dims == top == (0, 0)
    else:
        assert report.top_degree_dims is None


@pytest.mark.parametrize("field", [sg.DEFAULT_FIELD, "rational"])
@pytest.mark.parametrize("stellar", [False, True])
@pytest.mark.parametrize("name", fx.SMALL_REFLEXIVE_NAMES)
def test_reduced_matrices_match_full_matrix_dims(name, stellar, field):
    cone = k_cone(name)
    sub = subdivision(cone, stellar)
    for seed in range(3):
        g = sg.random_degree_one(cone, seed, field)
        report = sg.graded_quotient_dims(g, sub)
        assert report.regular_profile
        assert_matches_full_matrix_dims(report, g, sub)


@pytest.mark.parametrize("field", [sg.DEFAULT_FIELD, "rational"])
@pytest.mark.parametrize("name,stellar", [("diamond", True), ("p2_dual", False),
                                          ("cross", True), ("quartic", False)])
def test_non_regular_element_matches_full_matrix_dims(name, stellar, field):
    cone = k_cone(name)
    sub = subdivision(cone, stellar)
    g = sg.degree_one_element(cone, {cone.generators[0]: 7}, field)
    report = sg.graded_quotient_dims(g, sub)
    assert not report.regular_profile
    assert_matches_full_matrix_dims(report, g, sub)


def test_one_vertex_element_on_the_cube_is_lifted_at_every_degree(monkeypatch):
    # many dependent rows: eight lifts, the last at degree dim = 4 a
    # 470 x 470 system with 259 right-hand sides; every lift succeeds and
    # no rank falls back to Fraction elimination
    cone = k_cone("cube")
    g = sg.degree_one_element(cone, {cone.generators[0]: 7}, "rational")
    sub = lat.stellar_subdivision(cone)
    sg.logarithmic_derivatives(g)  # its grading basis may need one RREF
    lifts, fractions = [], []
    lift, rref_fraction = la._dixon_lift, la.rref_fraction
    monkeypatch.setattr(la, "_dixon_lift", lambda square, rhs, p: lifts.append(
        (square.shape, rhs.shape[1], lift(square, rhs, p))) or lifts[-1][2])
    monkeypatch.setattr(la, "rref_fraction", lambda rows: fractions.append(
        rows) or rref_fraction(rows))
    report = sg.graded_quotient_dims(g, sub)
    assert (report.dims_R0, report.dims_R1, report.top_degree_dims) == (
        (1, 26, 105, 262, 521), (0, 1, 26, 105, 262), None)
    assert len(lifts) == 8 and lifts[-1][:2] == ((470, 470), 259)
    assert max(shape for shape, _, _ in lifts) == (470, 470)
    assert all(lifted is not None for _, _, lifted in lifts)
    assert not fractions


@pytest.mark.parametrize("field", [sg.DEFAULT_FIELD, "rational"])
def test_only_degrees_where_s_vanishes_add_a_mod_p_attempt(field,
                                                           monkeypatch):
    cone = k_cone("quartic")
    sub = lat.trivial_subdivision(cone)
    vanish = len(st.s_polynomial(cone).coeffs)
    calls, lifts = [], []
    rank_call, lift = la.ranks_with_prefix, la._dixon_lift
    monkeypatch.setattr(la, "ranks_with_prefix", lambda mat, bounds, f:
                        calls.append(f) or rank_call(mat, bounds, f))
    monkeypatch.setattr(la, "_dixon_lift", lambda square, rhs, p:
                        lifts.append((len(square), rhs.shape)) or lift(
                            square, rhs, p))

    def run(g):
        calls.clear()
        lifts.clear()
        return sg._QuotientWorkspace(g, sub).dims(), calls[:], lifts[:]

    _, fields, _ = run(sg.random_degree_one(cone, 0, field))
    assert fields == [field] * (vanish - 1) + [sg.DEFAULT_FIELD] * (
        cone.dim + 1 - vanish)  # regular: one rank call per degree
    one_vertex = sg.degree_one_element(cone, {cone.generators[0]: 7}, field)
    dims, fields, lifted = run(one_vertex)
    # degrees vanish .. dim each add a mod-p attempt that falls short
    assert fields == [field] * (vanish - 1) + [sg.DEFAULT_FIELD, field] * (
        cone.dim + 1 - vanish)
    # the route that builds the unit columns at every degree lifts the same
    monkeypatch.setattr(sg, "s_polynomial", lambda c: UnivariatePolynomial(
        (1,) * (c.dim + 1)))
    assert run(one_vertex)[::2] == (dims, lifted)
    assert bool(lifted) == (field == "rational")


# -- the graded ring ends at degree dim ---------------------------------------------

def test_small_support_elements_match_full_matrix_dims():
    # elements on 1-4 of the points that can make a cell quotient finite
    # (the cone's generators and its interior degree-one point); the
    # oracle ranks degree dim+1 whatever degree dim gives
    cutoffs = 0
    for name in ("diamond", "p2_dual", "cross", "quartic"):
        cone = k_cone(name)
        points = cone.generators + lat.lattice_points_at_degree(cone, 1, True)
        for stellar in (False, True):
            sub = subdivision(cone, stellar)
            for seed in range(32):
                rng = random.Random(seed)
                g = sg.degree_one_element(cone, {
                    m: rng.randint(1, 10**6)
                    for m in rng.sample(points, rng.randint(1, 4))})
                report = sg.graded_quotient_dims(g, sub)
                assert_matches_full_matrix_dims(report, g, sub)
                cutoffs += report.dims_R0[-1] == 0
    assert cutoffs >= 16


def full_matrix_cells(cone, k):
    rows = len(lat.lattice_points_at_degree(cone, k))
    return rows * (cone.dim * len(lat.lattice_points_at_degree(cone, k - 1))
                   + len(lat.lattice_points_at_degree(cone, k, True)))


def test_degree_dim_is_the_last_degree_checked_and_built(monkeypatch):
    # one budget check, of degree dim's full matrix, before any assembly;
    # no element, regular or not, builds a degree above dim
    cone = k_cone("diamond")
    cells = full_matrix_cells(cone, cone.dim)
    built = []
    products = sg._QuotientWorkspace._products
    monkeypatch.setattr(sg._QuotientWorkspace, "_products",
                        lambda self, k, *args: built.append(k)
                        or products(self, k, *args))
    for field in (sg.DEFAULT_FIELD, "rational"):
        regular = sg.random_degree_one(cone, 0, field)
        one_vertex = sg.degree_one_element(cone, {cone.generators[0]: 7},
                                           field)
        monkeypatch.setattr(la, "MATRIX_CELL_BUDGET", cells - 1)
        for g in (regular, one_vertex):
            with pytest.raises(DimensionBudgetExceeded,
                               match=f"degree-{cone.dim} .* = {cells} cells"):
                sg.graded_quotient_dims(g)
        assert built == []
        monkeypatch.setattr(la, "MATRIX_CELL_BUDGET", cells)
        assert [sg.graded_quotient_dims(g).regular_profile
                for g in (regular, one_vertex)] == [True, False]
        assert set(built) == set(range(1, cone.dim + 1))
        built.clear()
