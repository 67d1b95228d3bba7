"""Eulerian posets and the G/H/B polynomial recursions."""

from collections import Counter
from functools import cache

import pytest

from stringcone import fixtures as fx
from stringcone import lattice as lat
from stringcone import posets as po
from stringcone.errors import NotEulerian, NotGraded
from stringcone.polynomials import BivariateLaurentPolynomial as B
from stringcone.polynomials import UnivariatePolynomial as U
from test_stringy import sheared_hodge_polytopes


def face_poset(name):
    cone = lat.gorenstein_cone_over(fx.polytope(name))
    return po.poset_of_face_lattice(lat.face_lattice(cone))


def all_intervals(poset):
    for x in poset.elements:
        for y in poset.elements:
            if poset.le(x, y):
                yield poset.interval(x, y)


# -- structure ----------------------------------------------------------------

def test_is_eulerian_examples():
    assert face_poset("square").is_eulerian()
    chain = po.EulerianPoset("abc", [("a", "b"), ("b", "c")])
    assert not chain.is_eulerian()
    assert po.boolean_lattice(3).is_eulerian()


def test_not_graded_detection():
    with pytest.raises(NotGraded):
        po.EulerianPoset("abcd", [("a", "b"), ("b", "d"), ("a", "c"),
                                  ("c", "d"), ("a", "d")])


@pytest.mark.parametrize("elements, covers, match", [
    ("aab", [("a", "b")], "duplicate"),
    ("ab", [("a", "z")], "outside"),
    ("abc", [("a", "b")], "unique minimum"),
    ("abcd", [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")], "cycle"),
])
def test_malformed_posets_rejected(elements, covers, match):
    with pytest.raises(ValueError, match=match):
        po.EulerianPoset(elements, covers)


def test_non_eulerian_rejected_by_recursions():
    chain = po.EulerianPoset("abc", [("a", "b"), ("b", "c")])
    with pytest.raises(NotEulerian):
        po.g_polynomial(chain)
    with pytest.raises(NotEulerian):
        po.b_polynomial(chain)
    # an Eulerian interval of a non-Eulerian poset is judged on its own
    edge = chain.interval("a", "b")
    assert edge.is_eulerian()
    assert edge.elements == ("a", "b") and edge.total_rank() == 1
    assert po.g_polynomial(edge) == U.one()


def test_dual_poset():
    p = face_poset("diamond")
    d = p.dual()
    assert d.total_rank() == p.total_rank()
    assert d.min == p.max and d.max == p.min
    assert d.is_eulerian()
    assert po.g_polynomial(d) == po.g_polynomial(p)  # self-dual lattice


# -- G and H ---------------------------------------------------------------------

def test_rank_zero_base_case():
    point = po.boolean_lattice(0)
    assert po.g_polynomial(point) == U.one()
    assert po.h_polynomial(point) == U.one()


def test_boolean_two():
    b2 = po.boolean_lattice(2)
    assert po.h_polynomial(b2) == U((1, 1))
    assert po.g_polynomial(b2) == U.one()


def test_square_face_lattice_g():
    assert po.g_polynomial(face_poset("square")) == U((1, 1))


def test_polygon_g_polynomials():
    # g-polynomial of an n-gon face lattice is 1 + (n-3)t
    import math
    for n in (3, 4, 5, 6):
        verts = []
        for k in range(n):
            # integral polygon vertices on a large circle, n-gon fan shape
            verts.append((int(round(100 * math.cos(2 * math.pi * k / n))),
                          int(round(100 * math.sin(2 * math.pi * k / n)))))
        cone = lat.cone_from_generators(
            [(x, y, 1) for x, y in verts], ambient_rank=3)
        poset = po.poset_of_face_lattice(lat.face_lattice(cone))
        # zero coefficients are dropped, so this also covers n = 3
        assert po.g_polynomial(poset) == U((1, n - 3))


def test_g_of_boolean_lattices_is_one():
    for n in range(6):
        assert po.g_polynomial(po.boolean_lattice(n)) == U.one()


def test_g_degree_bound():
    for name in ("diamond", "cube", "quartic"):
        poset = face_poset(name)
        for interval in all_intervals(poset):
            d = interval.total_rank()
            g = po.g_polynomial(interval)
            if d >= 1:
                assert 2 * g.degree() < d


# -- B ----------------------------------------------------------------------------

def test_b_polynomial_base_cases():
    assert po.b_polynomial(po.boolean_lattice(0)) == B.one()
    assert po.b_polynomial(po.boolean_lattice(1)) == B({(0, 0): 1, (1, 0): -1})
    assert po.b_polynomial(po.boolean_lattice(2)) == \
        B({(0, 0): 1, (1, 0): -2, (2, 0): 1})


def test_b_via_g_examples():
    assert po.b_via_g(po.boolean_lattice(0)) == B.one()
    assert po.b_via_g(po.boolean_lattice(2)) == \
        B({(2, 0): 1, (1, 0): -2, (0, 0): 1})
    sq = face_poset("square")
    assert po.b_via_g(sq) == po.b_polynomial(sq)


def test_b_square_lattice_value():
    # solved by hand from the defining recursion
    sq = face_poset("square")
    assert po.b_polynomial(sq) == B({(0, 0): 1, (1, 1): 1, (3, 0): -1,
                                     (2, 1): -1, (2, 0): 4, (1, 0): -4})


def test_b_duality():
    # B(P; u, v) = (-u)^rank * B(P*; 1/u, v)
    for name in ("diamond", "p2", "cube"):
        poset = face_poset(name)
        d = poset.total_rank()
        b = po.b_polynomial(poset)
        b_dual = po.b_polynomial(poset.dual())
        flipped = B({(d - a, bb): c * (-1) ** d
                     for (a, bb), c in b_dual.terms.items()})
        assert b == flipped


@pytest.mark.parametrize("name", ["diamond", "square", "p2", "cube", "quartic"])
def test_b_equals_b_via_g_on_all_intervals(name):
    poset = face_poset(name)
    for interval in all_intervals(poset):
        assert po.b_polynomial(interval) == po.b_via_g(interval)


# -- convolution identity ------------------------------------------------------------

def test_convolution_rank_one():
    assert po.convolution_inverse_check(po.boolean_lattice(1))


def test_convolution_b3():
    assert po.convolution_inverse_check(po.boolean_lattice(3))


@pytest.mark.parametrize("name", ["square", "cube", "quartic_dual"])
def test_convolution_on_all_intervals(name):
    poset = face_poset(name)
    count = 0
    for interval in all_intervals(poset):
        if interval.total_rank() >= 1:
            assert po.convolution_inverse_check(interval)
            count += 1
    assert count > 0


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_every_fixture_face_lattice_is_eulerian(name):
    # the Eulerian test itself runs over every interval of the lattice
    assert face_poset(name).is_eulerian()


# -- independent oracle ------------------------------------------------------------

def _add(p, q, sign=1):
    out = Counter(p)
    for k, c in q.items():
        out[k] += sign * c
    return {k: c for k, c in out.items() if c}


def _mul(p, q):
    out = Counter()
    for a, x in p.items():
        for b, y in q.items():
            out[tuple(i + j for i, j in zip(a, b))] += x * y
    return {k: c for k, c in out.items() if c}


def textbook_ghb(elements, rank):
    """G, H and B of the intervals [x, y] of frozensets ordered by
    inclusion, graded by rank, from their defining recursions on
    {exponents: coefficient} dicts."""
    @cache
    def h(x, y):
        total = {(0,): 1} if x == y else {}
        for z in elements:
            if x < z <= y:
                power = {(0,): 1}
                for _ in range(rank[z] - rank[x] - 1):
                    power = _mul(power, {(0,): -1, (1,): 1})
                total = _add(total, _mul(power, g(z, y)))
        return total

    @cache
    def g(x, y):
        if x == y:
            return {(0,): 1}
        return {k: c for k, c in _mul({(0,): 1, (1,): -1}, h(x, y)).items()
                if 2 * k[0] < rank[y] - rank[x]}

    @cache
    def b(x, y):
        # sum over z of B([x,z]) u^(rank y - rank z) G([z,y]; v/u) = G(uv)
        total = {(i, i): c for (i,), c in g(x, y).items()}
        for z in elements:
            if x <= z < y:
                upper = {(rank[y] - rank[z] - i, i): c
                         for (i,), c in g(z, y).items()}
                total = _add(total, _mul(b(x, z), upper), -1)
        return total

    return g, h, b


def _univariate(p):
    top = max((i for (i,) in p), default=-1)
    return U(p.get((i,), 0) for i in range(top + 1))


def assert_matches_textbook(poset, rename, rank):
    """Compare G/H/B on every interval of poset, whose element x is the
    frozenset rename(x) of the oracle's inclusion order."""
    g, h, b = textbook_ghb([rename(x) for x in poset.elements], rank)
    for interval in all_intervals(poset):
        x, y = rename(interval.min), rename(interval.max)
        assert po.g_polynomial(interval) == _univariate(g(x, y))
        assert po.h_polynomial(interval) == _univariate(h(x, y))
        assert po.b_polynomial(interval) == B(b(x, y))


# with the hodge benchmark's sheared 4-cube and bicubic: rank-5 face
# lattices with non-Boolean intervals of ranks 3 and 4
LATTICE_NAMES = fx.REFLEXIVE_NAMES + ("cube4", "bicubic")


def lattice_cone(name):
    if name in fx.REFLEXIVE_NAMES:
        return lat.gorenstein_cone_over(fx.polytope(name))
    *_, cube4, bicubic = sheared_hodge_polytopes()
    vertices = {"cube4": cube4, "bicubic": bicubic}[name]
    return lat.gorenstein_cone_over(lat.lattice_polytope(vertices))


@pytest.mark.parametrize("name", LATTICE_NAMES)
def test_ghb_match_textbook_recursion_on_face_lattices(name):
    fl = lat.face_lattice(lattice_cone(name))
    poset = po.poset_of_face_lattice(fl)
    top = fl.maximum()
    assert_matches_textbook(poset, lambda f: f,
                            {f.gen_indices: f.dim for f in fl.faces})
    # the dual order is inclusion of complements, ranked by codimension
    every = top.gen_indices
    assert_matches_textbook(poset.dual(), lambda f: every - f,
                            {every - f.gen_indices: top.dim - f.dim
                             for f in fl.faces})


@pytest.mark.parametrize("n", range(5))
def test_ghb_match_textbook_recursion_on_boolean_lattices(n):
    poset = po.boolean_lattice(n)
    assert_matches_textbook(poset, lambda s: s,
                            {s: len(s) for s in poset.elements})


@pytest.mark.parametrize("name", LATTICE_NAMES)
def test_g1_is_coatoms_minus_rank(name):
    # the closed form below rank 5, with the coatoms counted here from the
    # ranks; from rank 5 on the recursion computes G
    poset = po.poset_of_face_lattice(lat.face_lattice(lattice_cone(name)))
    for p in (poset, poset.dual()):
        for interval in all_intervals(p):
            top, d = interval.max, interval.total_rank()
            coatoms = sum(p.interval(x, top).total_rank() == 1
                          for x in interval.elements)
            assert po.g_polynomial(interval).coeff_list(1) == [1, coatoms - d]
