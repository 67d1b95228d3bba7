"""The paired-monomial complex and its cohomology decomposition."""

import random
from collections import Counter

import numpy as np
import pytest
from oracles import (cells_holding, dense, full_block_cohomology,
                     paired_elements)

from stringcone import fixtures as fx
from stringcone import intlinalg as la
from stringcone import koszul as kz
from stringcone import lattice as lat
from stringcone import semigroup as sg
from stringcone import stringy as st
from stringcone.errors import (CapTooSmall, DimensionBudgetExceeded,
                               NotRegular)


def make_pair(name):
    return fx.reflexive_pair(name)


def elements(pair, seed):
    return (sg.random_degree_one(pair.cone, seed),
            sg.random_degree_one(pair.dual, seed + 17))


def random_heights(cone, seed, generic):
    """The regular subdivision of seeded heights 0..3 on the degree-1
    points."""
    rng = random.Random(seed)
    return lat.regular_subdivision(cone, [
        rng.randrange(4) for _ in lat.lattice_points_at_degree(cone, 1)],
        force_generic=generic)


def test_d_squared_generic():
    pair = make_pair("diamond")
    f, g = elements(pair, 0)
    assert kz.build_complex(pair, f, g).verify_d_squared()


def assume_regular(monkeypatch):
    """Let degenerate elements through: D^2 = 0 holds for them too."""
    verdict = sg.RegularityVerdict(regular=True, detail="")
    monkeypatch.setattr(kz, "is_sigma_regular", lambda elem, sub: verdict)


def test_d_squared_zero_elements(monkeypatch):
    pair = make_pair("diamond")
    z1 = sg.degree_one_element(pair.cone, {})
    z2 = sg.degree_one_element(pair.dual, {})
    assume_regular(monkeypatch)
    complex_ = kz.build_complex(pair, z1, z2)
    assert complex_.verify_d_squared()
    # zero differential: cohomology equals the full graded pieces below cap
    dims = kz.cohomology_dims(complex_)
    assert dims == {(s, t): v for (s, t), v in complex_.space.sizes.items()
                    if t < complex_.space.cap}


def test_d_squared_single_monomial(monkeypatch):
    pair = make_pair("diamond")
    apex = sg.degree_one_element(pair.cone, {(0, 0, 1): 321})
    _, g = elements(pair, 1)
    assume_regular(monkeypatch)
    complex_ = kz.build_complex(pair, apex, g)
    assert complex_.verify_d_squared()


def flip_one_value(complex_):
    """Negate one entry of some D(s, t) whose target row D(s, t+1) reads,
    so that D(s, t+1) D(s, t) changes by a nonzero column."""
    for (s, t), d in complex_.blocks.items():
        after = complex_.blocks.get((s, t + 1))
        if after is not None:
            hit = np.flatnonzero(np.isin(d.rows, after.cols))
            if len(hit):
                d.vals[hit[0]] *= -1
                return
    raise AssertionError("no entry of one block is read by the next")


@pytest.mark.parametrize("scale", [1, 2**40])
def test_d_squared_detects_one_flipped_value(scale, monkeypatch):
    # 2**40 times the coefficients forces the products into Python integers
    pair = make_pair("diamond")
    f, g = (sg.degree_one_element(e.cone, {m: scale * c
                                          for m, c in e.coefficients})
            for e in elements(pair, 0))
    assume_regular(monkeypatch)
    complex_ = kz.build_complex(pair, f, g)
    assert complex_.verify_d_squared()
    flip_one_value(complex_)
    assert not complex_.verify_d_squared()


def test_field_mismatch_rejected():
    # a prime f with a rational g would otherwise rank mod p without warning
    pair = make_pair("diamond")
    f = sg.random_degree_one(pair.cone, 0)
    g = sg.random_degree_one(pair.dual, 17, field="rational")
    with pytest.raises(ValueError, match="rational"):
        kz.build_complex(pair, f, g)


@pytest.mark.parametrize("name", ["segment", "diamond", "square", "p2",
                                  "p2_dual", "cube"])
def test_budget_counts_built_differentials(name, monkeypatch):
    # the budget check runs before any point is built; its count must bound
    # the elements and triplets that assembly then builds, and it counts
    # the elements exactly
    pair = make_pair(name)
    f, g = elements(pair, 0)
    count = {"segment": 456, "diamond": 22_400, "square": 22_400,
             "p2": 23_800, "p2_dual": 23_800, "cube": 1_828_608}[name]
    monkeypatch.setattr(la, "MATRIX_CELL_BUDGET", count - 1)
    with pytest.raises(DimensionBudgetExceeded, match=str(count)):
        kz.build_complex(pair, f, g)
    monkeypatch.setattr(la, "MATRIX_CELL_BUDGET", count)
    complex_ = kz.build_complex(pair, f, g)
    size = complex_.space.total_dim()
    assert size == kz._pair_count(pair, pair.cone.dim) << pair.cone.ambient_rank
    assert count >= size + sum(len(d.vals) for d in complex_.blocks.values())


@pytest.mark.parametrize("name, cap", [("segment", 9), ("diamond", 6),
                                       ("p2_dual", 5), ("p2", 4), ("cube", 4),
                                       ("quartic", 4), ("cross", 3)])
def test_orthogonal_pairs_counted_from_faces_match_the_scan(name, cap):
    pair = make_pair(name)
    points_k, points_d = ([p for d in range(cap + 1)
                           for p in lat.lattice_points_at_degree(cone, d)]
                          for cone in (pair.cone, pair.dual))
    scan = [(x, y) for x, m in enumerate(points_k)
            for y, n in enumerate(points_d) if np.dot(m, n) == 0]
    pk, pd = kz._orthogonal_pairs(np.array(points_k), np.array(points_d),
                                  pair.cone.facets)
    assert list(zip(pk.tolist(), pd.tolist())) == scan
    assert kz._pair_count(pair, cap) == sum(
        np.dot(points_k[x], pair.cone.deg) + np.dot(points_d[y], pair.dual.deg)
        <= cap for x, y in scan)


def test_differentials_map_st_to_st_plus_one():
    pair = make_pair("diamond")
    f, g = elements(pair, 0)
    complex_ = kz.build_complex(pair, f, g)
    cap = complex_.space.cap
    pieces = paired_elements(pair, cap)
    assert list(complex_.space.sizes.items()) == [
        (st, len(basis)) for st, basis in pieces.items()]
    assert complex_.blocks.keys() == {(s, t) for s, t in pieces if t < cap}
    for (s, t), d in complex_.blocks.items():
        assert d.shape == (len(pieces.get((s, t + 1), ())), len(pieces[s, t]))
        assert d.rows.dtype == d.cols.dtype == d.vals.dtype == np.int64
        assert dense(d).shape == d.shape


def test_cap_too_small():
    pair = make_pair("diamond")
    f, g = elements(pair, 0)
    with pytest.raises(CapTooSmall):
        kz.build_complex(pair, f, g, cap=2)


def test_regularity_checked():
    pair = make_pair("diamond")
    coeffs = dict(sg.random_degree_one(pair.cone, seed=0).coefficients)
    coeffs[pair.cone.generators[0]] = 0
    bad = sg.degree_one_element(pair.cone, coeffs)
    _, g = elements(pair, 0)
    with pytest.raises(NotRegular):
        kz.build_complex(pair, bad, g)


def test_diamond_total_dimension():
    pair = make_pair("diamond")
    f, g = elements(pair, 0)
    report = kz.compare_with_decomposition(pair, f, g)
    assert report.matches
    # total = sum over faces of tildeS(C,1) * tildeS(C*,1) = 1*2 + 2*1
    assert sum(report.computed.values()) == 4


def test_diamond_exterior_profile():
    pair = make_pair("diamond")
    f, g = elements(pair, 0)
    report = kz.compare_with_decomposition(pair, f, g)
    profile = Counter()
    for (dim_c, dim_dual), a, b, mult in report.face_terms:
        profile[dim_dual] += mult
    assert profile == {0: 2, 3: 2}


@pytest.mark.parametrize("name", ["segment", "diamond", "p2"])
def test_decomposition_matches(name):
    pair = make_pair(name)
    f, g = elements(pair, 0)
    report = kz.compare_with_decomposition(pair, f, g)
    assert report.matches, (report.computed, report.expected)


@pytest.mark.parametrize("name", ["segment", "diamond", "p2", "square",
                                  "p2_dual"])
def test_decomposition_with_dual_subdivision(name):
    """Stellar, and seeded random heights with and without force_generic,
    for two elements at caps dim and dim+1."""
    pair = make_pair(name)
    subs = [lat.stellar_subdivision(pair.dual)] + [
        random_heights(pair.dual, seed, generic)
        for seed in range(4) for generic in (False, True)]
    assert any(len(sub.max_cones) > 1 for sub in subs[1:])
    for seed in range(2):
        f, g = elements(pair, seed)
        for cap in (pair.cone.dim, pair.cone.dim + 1):
            base = kz.compare_with_decomposition(pair, f, g, cap)
            assert base.matches
            for sub in subs:
                deformed = kz.compare_with_decomposition(
                    pair, f, g, cap, dual_subdivision=sub)
                assert deformed.computed == base.computed, sub.provenance


def test_reseed_invariance():
    pair = make_pair("diamond")
    dims = []
    for seed in (0, 1, 2):
        f, g = elements(pair, seed)
        dims.append(kz.compare_with_decomposition(pair, f, g).computed)
    assert dims[0] == dims[1] == dims[2]


def test_expected_matches_tilde_s_products():
    pair = make_pair("p2")
    expected, _ = kz.expected_cohomology(pair)
    total = sum(expected.values())
    check = 0
    for face in lat.face_lattice(pair.cone).faces:
        dual = pair.dual_face(face)
        check += sum(st.tilde_s_polynomial(face.as_cone()).coeffs) \
            * sum(st.tilde_s_polynomial(dual.as_cone()).coeffs)
    assert total == check


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_expected_is_the_reindexed_cohomology_table(name):
    # h^{p,q} classes at (s, t) = (dim K - 1 - p, q + 1), also on the 3-d
    # and 4-d pairs whose complexes are too large to build
    pair = make_pair(name)
    expected, _ = kz.expected_cohomology(pair)
    table = st.string_cohomology_table(pair)
    assert expected == {(pair.cone.dim - 1 - p, q + 1): h
                        for (p, q), h in table.entries}
    # CapTooSmall admits cap >= dim K, so the prediction lies on t < cap
    # and decomposition_report compares it whole, with no window
    assert max(t for _, t in expected) <= pair.cone.dim - 1


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("field", [sg.DEFAULT_FIELD, "rational"])
@pytest.mark.parametrize("stellar", [False, True])
@pytest.mark.parametrize("name", ["segment", "diamond", "square", "p2",
                                  "p2_dual"])
def test_reduced_blocks_match_full_block_cohomology(name, stellar, field,
                                                    seed):
    pair = make_pair(name)
    f = sg.random_degree_one(pair.cone, seed, field=field)
    g = sg.random_degree_one(pair.dual, seed + 17, field=field)
    sub = lat.stellar_subdivision(pair.dual) if stellar else None
    for cap in (pair.cone.dim, pair.cone.dim + 1):
        complex_ = kz.build_complex(pair, f, g, cap=cap, dual_subdivision=sub)
        dims = kz.cohomology_dims(complex_)
        assert dims == full_block_cohomology(complex_)
        # the pieces at t = cap are built only as targets of D(s, cap - 1)
        assert max(t for _, t in complex_.space.sizes) == cap
        assert max(t for _, t in complex_.blocks) == cap - 1
        assert max(t for _, t in dims) < cap


@pytest.mark.parametrize("field", [sg.DEFAULT_FIELD, "rational"])
@pytest.mark.parametrize("degenerate", ["zero", "apex"])
def test_degenerate_complexes_match_full_block_cohomology(degenerate, field,
                                                          monkeypatch):
    # far from exact: most of each piece survives, so the columns left out
    # come from small images
    pair = make_pair("diamond")
    if degenerate == "zero":
        f, g = (sg.degree_one_element(c, {}, field)
                for c in (pair.cone, pair.dual))
    else:
        f = sg.degree_one_element(pair.cone, {(0, 0, 1): 321}, field)
        g = sg.random_degree_one(pair.dual, 18, field=field)
    assume_regular(monkeypatch)
    for cap in (3, 4):
        complex_ = kz.build_complex(pair, f, g, cap=cap)
        dims = kz.cohomology_dims(complex_)
        assert dims == full_block_cohomology(complex_)
        assert sum(dims.values()) > 4


def test_rational_field_variant():
    pair = make_pair("segment")
    f = sg.random_degree_one(pair.cone, 0, field="rational")
    g = sg.random_degree_one(pair.dual, 17, field="rational")
    report = kz.compare_with_decomposition(pair, f, g)
    assert report.matches


def exterior_contract(index: tuple, vector) -> list:
    """Contraction of a basis wedge by a lattice vector (on the dual side)."""
    out = []
    for j, i in enumerate(index):
        coeff = vector[i]
        if coeff:
            rest = index[:j] + index[j + 1:]
            out.append((rest, (-1) ** j * coeff))
    return out


def exterior_wedge(index: tuple, vector) -> list:
    """Left wedge by a lattice vector against a basis wedge."""
    out = []
    for i, coeff in enumerate(vector):
        if not coeff or i in index:
            continue
        pos = sum(1 for k in index if k < i)
        new = tuple(sorted(index + (i,)))
        out.append((new, (-1) ** pos * coeff))
    return out


def term_by_term_triplets(complex_, f, g, sub):
    """(row, column, value) of every piece's differential, one exterior
    contraction or wedge per (basis element, coefficient point)."""
    cap = complex_.space.cap
    pieces = paired_elements(complex_.space.pair, cap)
    index_of = {elem: i for basis in pieces.values()
                for i, elem in enumerate(basis)}
    points = sorted({n for *_, n in index_of} | {q for q, _ in g.coefficients})
    holders = None if sub is None else cells_holding(sub.max_cones, points)
    out = {}
    for (s, t), basis in pieces.items():
        if t == cap:
            continue  # every move leaves the triangle deg m + deg n <= cap
        triplets = out[s, t] = []
        for src, (idx, m, n) in enumerate(basis):
            for mp, c in f.coefficients:
                if np.dot(mp, n) == 0:
                    m2 = tuple(u + v for u, v in zip(m, mp))
                    triplets += [(index_of[new, m2, n], src, w * c) for new, w
                                 in exterior_contract(idx, mp)]
            for np_, c in g.coefficients:
                if (np.dot(m, np_) == 0
                        and (holders is None or holders[n] & holders[np_])):
                    n2 = tuple(u + v for u, v in zip(n, np_))
                    triplets += [(index_of[new, m, n2], src, w * c) for new, w
                                 in exterior_wedge(idx, np_)]
    return out


@pytest.mark.parametrize("stellar", [False, True])
@pytest.mark.parametrize("name", ["diamond", "square", "p2", "p2_dual"])
def test_tabulated_moves_match_term_by_term_assembly(name, stellar):
    pair = make_pair(name)
    sub = lat.stellar_subdivision(pair.dual) if stellar else None
    assert_moves_match_term_by_term(pair, sub)


@pytest.mark.parametrize("generic", [False, True])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["diamond", "square", "p2", "p2_dual"])
def test_tabulated_moves_match_on_random_height_subdivisions(name, seed,
                                                             generic):
    pair = make_pair(name)
    assert_moves_match_term_by_term(pair, random_heights(pair.dual, seed,
                                                         generic))


def assert_moves_match_term_by_term(pair, sub):
    f, g = elements(pair, 3)
    complex_ = kz.build_complex(pair, f, g, dual_subdivision=sub)
    expected = term_by_term_triplets(complex_, f, g, sub)
    assert complex_.blocks.keys() == expected.keys()
    for st_, d in complex_.blocks.items():
        got = zip(d.rows.tolist(), d.cols.tolist(), d.vals.tolist())
        assert sorted(got) == sorted(expected[st_])


def flip_matrices(rank, v, w):
    """Contraction by v and left wedge by w on all 2**rank basis wedges,
    read off the flip table: a contraction lowers the bitmask q, a wedge
    raises it."""
    contract = np.zeros((1 << rank, 1 << rank), dtype=np.int64)
    wedge = np.zeros_like(contract)
    for q, row in enumerate(kz._exterior_flips(rank)):
        for i, q2, sign in row:
            if q2 < q:
                contract[q2, q] += sign * v[i]
            else:
                wedge[q2, q] += sign * w[i]
    return contract, wedge


@pytest.mark.parametrize("rank", range(1, lat.AMBIENT_RANK_BUDGET + 1))
def test_flip_table_satisfies_the_clifford_relation(rank):
    # the K3 complexes of rank 4 pass the budget, but the quintic's, of
    # rank 5, does not: from rank 5 up this is the only check of the signs
    rng = np.random.default_rng(rank)
    for _ in range(3):
        v, w = rng.integers(-9, 10, (2, rank))
        contract, wedge = flip_matrices(rank, v, w)
        assert np.array_equal(contract @ wedge + wedge @ contract,
                              np.dot(v, w) * np.eye(1 << rank, dtype=np.int64))
        assert not np.any(contract @ contract)
        assert not np.any(wedge @ wedge)
