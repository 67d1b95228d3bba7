"""The sparse mod-p front end against Fraction ranks and the dense kernel."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stringcone import fixtures as fx
from stringcone import intlinalg as la
from stringcone import koszul as kz
from stringcone import lattice as lat
from stringcone import semigroup as sg

P = la.DEFAULT_PRIME


def check_echelon(mat, split=None):
    """Run the front end and check its contract against rank_fraction and
    echelon_mod_p; return (rank, pivots, order)."""
    mat = np.asarray(mat, dtype=np.int64).reshape(len(mat), -1)
    r, pivots, order = la.sparse_echelon_mod_p(mat, P, split)
    assert r == len(pivots) == la.echelon_mod_p(mat, P)[0]
    assert sorted(order) == list(range(mat.shape[0]))
    assert len(set(pivots)) == r
    square = mat[order[:r]][:, pivots]
    assert la.echelon_mod_p(square, P)[0] == r  # invertible mod p
    assert la.rank_fraction(square.tolist()) == r
    if split is not None:
        below = [c for c in pivots if c < split]
        assert pivots[:len(below)] == below  # prefix pivots come first
        assert len(below) == la.echelon_mod_p(mat[:, :split], P)[0]
    return r, pivots, order


def record_dense_calls(monkeypatch):
    """(shape, prime) of every matrix handed to echelon_mod_p."""
    calls = []
    dense = la.echelon_mod_p
    monkeypatch.setattr(la, "echelon_mod_p", lambda rows, p: calls.append(
        (np.shape(rows), p)) or dense(rows, p))
    return calls


small_matrices = st.integers(1, 9).flatmap(
    lambda m: st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 7, -30, P]),
                              min_size=n, max_size=n),
                     min_size=m, max_size=m),
            st.integers(0, n))))


@given(small_matrices)
@example(([[0, 0], [0, 0]], 1))
@example(([[P, 2 * P], [3, 6]], 1))
@settings(max_examples=120, deadline=None)
def test_front_end_matches_dense_and_fraction_ranks(case):
    rows, split = case
    r, _, _ = check_echelon(rows, split)
    if not any(x % P for row in rows for x in row if x):
        assert r == 0
    if all(x % P or not x for row in rows for x in row):
        assert r == la.rank_fraction(rows)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0)])
def test_empty_matrices_make_one_dense_call(shape, monkeypatch):
    calls = record_dense_calls(monkeypatch)
    r, pivots, order = la.sparse_echelon_mod_p(np.zeros(shape, np.int64), P)
    assert (r, pivots, order) == (0, [], list(range(shape[0])))
    assert len(calls) == 1


def test_zero_single_row_and_single_column():
    assert la.sparse_echelon_mod_p(np.zeros((4, 5), np.int64), P) == (
        0, [], [0, 1, 2, 3])
    assert check_echelon([[0, 3, 0, P, -2]], split=2)[:2] == (1, [1])
    assert check_echelon([[0], [2 * P], [5], [7]])[:2] == (1, [0])


def test_entries_that_vanish_mod_p():
    mat = [[P, 2 * P, 1], [3 * P, 5, 0], [P, 0, 0]]
    r, pivots, order = check_echelon(mat, split=1)
    assert r == 2 and sorted(pivots) == [1, 2] and order[2] == 2
    # vanishing residues are rejected, big ones reduced first
    big = [[10**30, 1], [10**30 + P, 1]]
    assert la.sparse_echelon_mod_p(big, P)[0] == la.echelon_mod_p(big, P)[0]


def test_dense_random_matrix_is_handed_off_at_once(monkeypatch):
    calls = record_dense_calls(monkeypatch)
    mat = np.random.default_rng(1).integers(-9, 10, (40, 60))
    check_echelon(mat, split=25)
    assert calls[0] == ((40, 60), P)


def test_sparse_structured_matrix_stays_sparse(monkeypatch):
    # weighted incidence matrix of a 6 x 6 grid graph: two entries per
    # column, so no pivot fills in past the handoff floor
    rng = np.random.default_rng(2)
    side = 6
    edges = [((i, j), (i + di, j + dj)) for i in range(side)
             for j in range(side) for di, dj in ((0, 1), (1, 0))
             if i + di < side and j + dj < side]
    mat = np.zeros((side * side, len(edges)), dtype=np.int64)
    for k, (u, v) in enumerate(edges):
        mat[u[0] * side + u[1], k] = rng.integers(1, 50)
        mat[v[0] * side + v[1], k] = -rng.integers(1, 50)
    calls = record_dense_calls(monkeypatch)
    r, _, _ = la.sparse_echelon_mod_p(mat, P)
    assert calls == [((0, 0), P)] and r == side * side
    assert la.rank_fraction(mat.tolist()) == r
    check_echelon(mat, split=20)


def test_sparse_block_beside_dense_block_is_handed_off_mid_run(monkeypatch):
    rng = np.random.default_rng(3)
    sparse = np.zeros((50, 60), dtype=np.int64)
    for i in range(50):
        sparse[i, rng.choice(60, 2, replace=False)] = rng.integers(1, 9, 2)
    mat = np.zeros((80, 100), dtype=np.int64)
    mat[:50, :60] = sparse
    mat[50:, 60:] = rng.integers(-9, 10, (30, 40))
    calls = record_dense_calls(monkeypatch)
    r, _, _ = check_echelon(mat, split=70)
    assert calls[0] == ((30, 40), P)  # the dense block, once the rest is gone
    assert r == la.rank_fraction(mat.tolist())


def test_front_end_builds_no_dense_copy():
    rng = np.random.default_rng(4)
    mat = np.zeros((1000, 2000), dtype=np.int64)
    for i in range(1000):
        mat[i, rng.choice(2000, 3, replace=False)] = rng.integers(1, 10**6, 3)
    tracemalloc.start()
    try:
        r = la.sparse_echelon_mod_p(mat, P)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == la.echelon_mod_p(mat, P)[0]
    assert peak < mat.nbytes / 4


@pytest.mark.parametrize("name,stellar,k", [("cube", False, 5),
                                            ("quartic_dual", True, 4)])
def test_multiplication_matrices_match_dense_ranks(name, stellar, k,
                                                   monkeypatch):
    cone = lat.gorenstein_cone_over(fx.polytope(name))
    sub = (lat.stellar_subdivision(cone) if stellar
           else lat.trivial_subdivision(cone))
    work = sg._QuotientWorkspace(sg.random_degree_one(cone, 5), sub)
    built = []  # the matrix dims() ranks at each degree 1 .. dim+1
    monkeypatch.setattr(la, "ranks_with_prefix",
                        lambda aug, split, field: built.append(aug) or (0, 0))
    work.dims()
    aug = built[k - 1]
    mat = work.multiplication_matrix(k)
    # the multiplication fills the leading columns, then one unit column
    # per interior point, in order
    assert np.array_equal(aug[:, :mat.shape[1]], mat)
    rows, cols = np.nonzero(aug[:, mat.shape[1]:])
    assert tuple(work.points[k][i] for i in rows) == work.interior[k]
    assert cols.tolist() == list(range(len(work.interior[k])))
    assert aug[rows, mat.shape[1] + cols].tolist() == [1] * len(rows)
    r, pivots, order = la.sparse_echelon_mod_p(aug, P, mat.shape[1])
    assert r == la.echelon_mod_p(aug, P)[0]
    prefix = sum(1 for c in pivots if c < mat.shape[1])
    assert prefix == la.echelon_mod_p(mat, P)[0]
    assert sorted(order) == list(range(aug.shape[0]))
    assert la.echelon_mod_p(aug[order[:r]][:, pivots], P)[0] == r


# -- certified ranks over Q -------------------------------------------------------

def test_rational_prefix_ranks_take_one_elimination(monkeypatch):
    rng = np.random.default_rng(5)
    mat = rng.integers(-9, 10, (20, 30)) * (rng.random((20, 30)) < 0.3)
    aug = np.concatenate([mat, np.eye(20, dtype=np.int64)[:, :7]], axis=1)
    assert la.echelon_mod_p(mat, P)[0] == 20  # full row rank
    calls = record_dense_calls(monkeypatch)
    assert la.ranks_with_prefix(aug, 30, "rational") == (20, 20)
    assert [p for _, p in calls] == [P]  # one elimination, not two


def test_rational_prefix_ranks_below_full_row_rank(monkeypatch):
    rng = np.random.default_rng(6)
    left = rng.integers(-5, 6, (24, 9))
    mat = (left @ rng.integers(-5, 6, (9, 30))).astype(np.int64)
    aug = np.concatenate([mat, np.eye(24, dtype=np.int64)[:, :5]], axis=1)
    calls = record_dense_calls(monkeypatch)
    ranks = la.ranks_with_prefix(aug, 30, "rational")
    assert ranks == (la.rank_fraction(mat.tolist()),
                     la.rank_fraction(aug.tolist())) == (9, 14)
    assert [p for _, p in calls] == [P]


def spy_certified_calls(monkeypatch):
    """Count rank_rational_certified calls, and every sparse_echelon_mod_p
    call made outside one."""
    counts = {"certified": 0, "outside": 0, "depth": 0}
    certified, sparse = la.rank_rational_certified, la.sparse_echelon_mod_p

    def certified_spy(*args):
        counts["certified"] += 1
        counts["depth"] += 1
        try:
            return certified(*args)
        finally:
            counts["depth"] -= 1

    def sparse_spy(*args):
        counts["outside"] += not counts["depth"]
        return sparse(*args)

    monkeypatch.setattr(la, "rank_rational_certified", certified_spy)
    monkeypatch.setattr(la, "sparse_echelon_mod_p", sparse_spy)
    return counts


def test_graded_ring_makes_one_certified_call_per_degree(monkeypatch):
    cone = lat.gorenstein_cone_over(fx.polytope("diamond"))
    g = sg.random_degree_one(cone, 0, "rational")
    counts = spy_certified_calls(monkeypatch)
    sg.graded_quotient_dims(g)
    assert counts["certified"] == cone.dim + 1  # degrees 1 .. dim+1
    assert counts["outside"] == 0


def test_koszul_makes_one_certified_call_per_block(monkeypatch):
    pair = fx.reflexive_pair("diamond")
    complex_ = kz.build_complex(
        pair, sg.random_degree_one(pair.cone, 0, "rational"),
        sg.random_degree_one(pair.dual, 17, "rational"))
    counts = spy_certified_calls(monkeypatch)
    kz.cohomology_dims(complex_)
    assert counts["certified"] == sum(
        1 for d in complex_.blocks.values() if 0 not in d.shape) > 0
    assert counts["outside"] == 0
