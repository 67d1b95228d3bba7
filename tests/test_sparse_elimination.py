"""The sparse mod-p front end against Fraction ranks and the dense kernel."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import dense

from stringcone import fixtures as fx
from stringcone import intlinalg as la
from stringcone import koszul as kz
from stringcone import lattice as lat
from stringcone import semigroup as sg
from stringcone.errors import DimensionBudgetExceeded

P = la.DEFAULT_PRIME


def check_echelon(mat, bounds=(), exact=True):
    """Run the front end and check its contract against echelon_mod_p and,
    when exact, rank_fraction; return (rank, pivots, order)."""
    mat = np.asarray(mat, dtype=np.int64).reshape(len(mat), -1)
    r, pivots, order = la.sparse_echelon_mod_p(mat, P, bounds)
    assert r == len(pivots) == la.echelon_mod_p(mat, P)[0]
    assert sorted(order) == list(range(mat.shape[0]))
    assert len(set(pivots)) == r
    square = mat[order[:r]][:, pivots]
    assert la.echelon_mod_p(square, P)[0] == r  # invertible mod p
    assert not exact or la.rank_fraction(square.tolist()) == r
    tiers = np.searchsorted(bounds, pivots, side="right")
    assert (np.diff(tiers) >= 0).all()  # pivots come tier by tier
    for bound in bounds:
        below = sum(1 for c in pivots if c < bound)
        assert below == la.echelon_mod_p(mat[:, :bound], P)[0]
        # the pivot rows so far have full rank on the columns below
        assert la.echelon_mod_p(mat[order[:below], :bound], P)[0] == below
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
    r, _, _ = check_echelon(rows, (split,))
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
    assert check_echelon([[0, 3, 0, P, -2]], (2,))[:2] == (1, [1])
    assert check_echelon([[0], [2 * P], [5], [7]])[:2] == (1, [0])


def test_column_singleton_waits_for_its_tier():
    # column 2 holds one entry, but its row also meets column 0, a tier
    # earlier: taken first, it would leave the prefix at rank 1, not 2
    assert check_echelon([[1, 0, 1], [1, 1, 0]], (2,))[:2] == (2, [1, 0])


def test_permuted_triangular_matrix_is_taken_in_bulk(monkeypatch):
    # after the pivots before it, every pivot is alone in its row
    rng = np.random.default_rng(9)
    n = 600
    tri = np.triu(rng.integers(-9, 10, (n, n)) * (rng.random((n, n)) < 0.01))
    tri[np.arange(n), np.arange(n)] = rng.choice([-7, -1, 1, 2, 5], n)
    mat = tri[rng.permutation(n)][:, rng.permutation(n)]
    dense_form = la.SparseMatrix.of(mat)
    shuffle = rng.permutation(dense_form.vals.size)
    triplets = la.SparseMatrix(mat.shape, *(a[shuffle] for a in (
        dense_form.rows, dense_form.cols, dense_form.vals)))
    bounds = (n // 2, n)
    heaps = []
    monkeypatch.setattr(la.heapq, "heapify", lambda heap: heaps.append(
        len(heap)))
    calls = record_dense_calls(monkeypatch)
    result = la.sparse_echelon_mod_p(triplets, P, bounds)
    assert heaps == [0] and calls == [((0, 0), P)]  # no loop, no core
    assert result[0] == n
    assert result == la.sparse_echelon_mod_p(mat, P, bounds)
    monkeypatch.undo()
    check_echelon(mat, bounds, exact=False)


def test_entries_that_vanish_mod_p():
    mat = [[P, 2 * P, 1], [3 * P, 5, 0], [P, 0, 0]]
    r, pivots, order = check_echelon(mat, (1,))
    assert r == 2 and sorted(pivots) == [1, 2] and order[2] == 2
    # vanishing residues are rejected, big ones reduced first
    big = [[10**30, 1], [10**30 + P, 1]]
    assert la.sparse_echelon_mod_p(big, P)[0] == la.echelon_mod_p(big, P)[0]


def test_dense_random_matrix_is_handed_off_at_once(monkeypatch):
    calls = record_dense_calls(monkeypatch)
    mat = np.random.default_rng(1).integers(-9, 10, (40, 60))
    check_echelon(mat, (25,))
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
    check_echelon(mat, (20,))


def test_sparse_block_beside_dense_block_is_handed_off_mid_run(monkeypatch):
    rng = np.random.default_rng(3)
    sparse = np.zeros((50, 60), dtype=np.int64)
    for i in range(50):
        sparse[i, rng.choice(60, 2, replace=False)] = rng.integers(1, 9, 2)
    mat = np.zeros((80, 100), dtype=np.int64)
    mat[:50, :60] = sparse
    mat[50:, 60:] = rng.integers(-9, 10, (30, 40))
    calls = record_dense_calls(monkeypatch)
    r, _, _ = check_echelon(mat, (70,))
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


def test_dense_core_over_the_budget_is_refused_before_allocation(
        monkeypatch):
    # 2 I + (cyclic shift): two entries in every row and column, so no
    # singleton; with the handoff floor lowered the whole matrix is the core
    n = 500
    mat = la.SparseMatrix(shape=(n, n), rows=np.tile(np.arange(n), 2),
                          cols=np.r_[np.arange(n), np.roll(np.arange(n), -1)],
                          vals=np.r_[np.full(n, 2), np.ones(n, np.int64)])
    calls = record_dense_calls(monkeypatch)
    monkeypatch.setattr(la, "HANDOFF_FLOOR", -n * n)
    monkeypatch.setattr(la, "MATRIX_CELL_BUDGET", n * n - 1)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionBudgetExceeded, match=f"{n} x {n} "):
            la.sparse_echelon_mod_p(mat, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not calls and peak < n * n * 8
    monkeypatch.setattr(la, "MATRIX_CELL_BUDGET", n * n)
    assert la.sparse_echelon_mod_p(mat, P)[0] == n  # det 2^n - 1 != 0 mod P
    assert calls == [((n, n), P)]


def random_bounds(rng, n, count):
    return tuple(sorted(rng.choice(np.arange(1, n), count,
                                   replace=False).tolist()))


@pytest.mark.parametrize("seed", range(6))
def test_tiered_echelon_pivots_tier_by_tier(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    mat = rng.integers(-9, 10, (80, 120)) * (
        rng.random((80, 120)) < (0.02, 0.05)[seed % 2])
    if seed % 3 == 2:  # a dense block, handed off after the sparse pivots
        mat[50:, 50:90] = rng.integers(-9, 10, (30, 40))
    if seed % 2:
        mat[:, 30:50] = mat[:, 10:30] * 3  # tiers whose columns repeat
    bounds = random_bounds(rng, 120, 3 + seed % 2)
    calls = record_dense_calls(monkeypatch)
    r = la.sparse_echelon_mod_p(mat, P, bounds)[0]
    assert (0 < calls[0][0][0] < r) == (seed % 3 == 2)
    monkeypatch.undo()
    check_echelon(mat, bounds)


@pytest.mark.parametrize("field", [f"prime:{P}", "rational"])
def test_rank_call_returns_the_pivot_rows_of_each_tier(field):
    rng = np.random.default_rng(8)
    left = rng.integers(-5, 6, (30, 12))
    mat = (left @ rng.integers(-5, 6, (12, 50))).astype(np.int64)
    mat[:, 40:] = rng.integers(-3, 4, (30, 10)) * (rng.random((30, 10)) < .3)
    bounds = random_bounds(rng, 50, 3) + (50,)
    prefix, rank, tiers = la.ranks_with_prefix(mat, bounds, field)
    assert (prefix, rank) == (la.rank_fraction(mat[:, :50].tolist()),
                              la.rank_fraction(mat.tolist()))
    assert len(tiers) == len(bounds) - 1
    for rows, bound in zip(tiers, bounds):
        assert len(rows) == la.rank_fraction(mat[:, :bound].tolist())
        assert la.rank_fraction(mat[rows, :bound].tolist()) == len(rows)
    assert la.ranks_with_prefix(mat, (50,), field) == (prefix, rank, ())


@pytest.mark.parametrize("name,stellar,k", [("cube", False, 4),
                                            ("quartic_dual", True, 4)])
def test_multiplication_matrices_match_dense_ranks(name, stellar, k,
                                                   monkeypatch):
    cone = lat.gorenstein_cone_over(fx.polytope(name))
    sub = (lat.stellar_subdivision(cone) if stellar
           else lat.trivial_subdivision(cone))
    work = sg._QuotientWorkspace(sg.random_degree_one(cone, 5), sub)
    built = []  # (matrix, bounds, ranks) of dims() at each degree 1 .. dim
    rank_call = la.ranks_with_prefix
    monkeypatch.setattr(la, "ranks_with_prefix", lambda aug, bounds, field:
                        built.append((aug, bounds, rank_call(
                            aug, bounds, field))) or built[-1][2])
    work.dims()
    assert len(built) == k == cone.dim  # regular: one rank call per degree
    # S vanishes at degree dim: the kept products alone, square and of full
    # rank, with no unit column
    triplets, bounds, (rank_m, rank_aug, _) = built[k - 1]
    assert (bounds[-1] == triplets.shape[1] == triplets.shape[0] == rank_m
            == rank_aug == len(work.points[k]))
    if name == "cube":
        assert rank_m == 729
    # the unit columns at degree dim - 1, where S does not vanish
    k -= 1
    triplets, bounds, (rank_m, rank_aug, _) = built[k - 1]
    aug = dense(triplets)
    check_echelon(aug, bounds, exact=False)  # the square is too big for Q
    split = bounds[-1]
    mat = dense(work._products(k)[0])
    # the kept columns are a subsequence of the full matrix's columns
    full = iter(map(bytes, mat.T))
    assert all(col in full for col in map(bytes, aug[:, :split].T))
    # then one unit column per interior point, in order
    rows, cols = np.nonzero(aug[:, split:])
    assert tuple(work.points[k][i] for i in rows) == work.interior[k]
    assert cols.tolist() == list(range(len(work.interior[k])))
    assert aug[rows, split + cols].tolist() == [1] * len(rows)
    full_aug = np.concatenate([mat, aug[:, split:]], axis=1)
    assert (rank_m, rank_aug) == (la.echelon_mod_p(mat, P)[0],
                                  la.echelon_mod_p(full_aug, P)[0])
    assert rank_m == split  # regular: the kept products are independent


# -- certified ranks over Q -------------------------------------------------------

def test_rational_prefix_ranks_take_one_elimination(monkeypatch):
    rng = np.random.default_rng(5)
    mat = rng.integers(-9, 10, (20, 30)) * (rng.random((20, 30)) < 0.3)
    aug = np.concatenate([mat, np.eye(20, dtype=np.int64)[:, :7]], axis=1)
    assert la.echelon_mod_p(mat, P)[0] == 20  # full row rank
    calls = record_dense_calls(monkeypatch)
    assert la.ranks_with_prefix(aug, (30,), "rational") == (20, 20, ())
    assert [p for _, p in calls] == [P]  # one elimination, not two


def test_rational_prefix_ranks_below_full_row_rank(monkeypatch):
    rng = np.random.default_rng(6)
    left = rng.integers(-5, 6, (24, 9))
    mat = (left @ rng.integers(-5, 6, (9, 30))).astype(np.int64)
    aug = np.concatenate([mat, np.eye(24, dtype=np.int64)[:, :5]], axis=1)
    calls = record_dense_calls(monkeypatch)
    ranks = la.ranks_with_prefix(aug, (30,), "rational")[:2]
    assert ranks == (la.rank_fraction(mat.tolist()),
                     la.rank_fraction(aug.tolist())) == (9, 14)
    assert [p for _, p in calls] == [P]


def spy_certified_calls(monkeypatch):
    """A log of ("certified", rows) for each rank_rational_certified call
    and ("outside", rows, rank) for each sparse_echelon_mod_p call made
    outside one, in call order."""
    log, depth = [], [0]
    certified, sparse = la.rank_rational_certified, la.sparse_echelon_mod_p

    def certified_spy(mat, *args):
        log.append(("certified", len(mat)))
        depth[0] += 1
        try:
            return certified(mat, *args)
        finally:
            depth[0] -= 1

    def sparse_spy(mat, *args):
        out = sparse(mat, *args)
        if not depth[0]:
            log.append(("outside", len(mat), out[0]))
        return out

    monkeypatch.setattr(la, "rank_rational_certified", certified_spy)
    monkeypatch.setattr(la, "sparse_echelon_mod_p", sparse_spy)
    return log


def test_graded_ring_makes_one_certified_call_per_degree(monkeypatch):
    # over Q, the only mod-p call outside a certified rank is the attempt
    # at a degree where S vanishes, and a certified call replaces it
    # unless it has full row rank
    cone = lat.gorenstein_cone_over(fx.polytope("diamond"))
    vanish = len(sg.s_polynomial(cone).coeffs)
    rows = [len(lat.lattice_points_at_degree(cone, k))
            for k in range(cone.dim + 1)]
    regular = sg.random_degree_one(cone, 0, "rational")
    one_vertex = sg.degree_one_element(cone, {cone.generators[0]: 7},
                                       "rational")
    log = spy_certified_calls(monkeypatch)
    # the ring ends at degree dim, regular or not
    for g in (regular, one_vertex):
        log.clear()
        report = sg.graded_quotient_dims(g)
        assert report.regular_profile == (g is regular)
        calls = iter(log)
        for k in range(1, cone.dim + 1):
            call = next(calls)
            if k >= vanish:
                assert call[:2] == ("outside", rows[k])
                if call[2] == rows[k]:
                    continue
                call = next(calls)
            assert call == ("certified", rows[k])
        assert next(calls, None) is None
        assert sum(c[0] == "certified" for c in log) == (
            vanish - 1 if g is regular else cone.dim)


def test_koszul_makes_one_elimination_per_t(monkeypatch):
    # over Q: one mod-p elimination per t, over the direct sum of its
    # pieces, then one certification of each nonempty reduced piece alone
    pair = fx.reflexive_pair("diamond")
    complex_ = kz.build_complex(
        pair, sg.random_degree_one(pair.cone, 0, "rational"),
        sg.random_degree_one(pair.dual, 17, "rational"))
    log = spy_certified_calls(monkeypatch)
    sums, certified = [], []
    passes, certify, block_ranks = (
        la._singleton_passes, la._certify_left_kernel, la.block_ranks)
    monkeypatch.setattr(la, "_singleton_passes", lambda mat, *args: (
        sums.append(mat.shape) or passes(mat, *args)))
    monkeypatch.setattr(la, "_certify_left_kernel", lambda mat, *args: (
        certified[-1].append(mat.shape) or certify(mat, *args)))
    reduced = []  # the reduced pieces of each block_ranks call

    def block_spy(blocks, field):
        reduced.append([(d.shape[0], d.shape[1] - len(skip))
                        for d, skip in blocks])
        certified.append([])
        return block_ranks(blocks, field)

    monkeypatch.setattr(la, "block_ranks", block_spy)
    kz.cohomology_dims(complex_)
    assert log == []  # no fallback, and no mod-p call outside the sums
    assert len(sums) == len(reduced) == len({t for _, t in complex_.blocks})
    for union, pieces, calls in zip(sums, reduced, certified):
        assert union == tuple(map(sum, zip(*pieces)))
        nonempty = [shape for shape in pieces if 0 not in shape]
        assert calls == nonempty
        assert union not in calls or len(nonempty) == 1


def random_block(rng, m, n, density):
    return la.SparseMatrix.of(rng.integers(-6, 7, (m, n))
                              * (rng.random((m, n)) < density))


def block_list(rng):
    """Blocks with the columns to drop: sparse and random (some of low
    rank), empty, with no rows, and a dense one for the core."""
    blocks = [random_block(rng, 12, 9, 0.2), la.SparseMatrix.of(np.zeros(
        (0, 5), np.int64)), random_block(rng, 7, 14, 0.35),
        la.SparseMatrix.of(np.zeros((4, 0), np.int64)),
        la.SparseMatrix.of(np.zeros((0, 0), np.int64)),
        la.SparseMatrix.of(rng.integers(-3, 4, (20, 4))
                           @ rng.integers(-3, 4, (4, 16))),
        random_block(rng, 40, 60, 1.0), random_block(rng, 9, 9, 0.1),
        la.SparseMatrix.of(np.zeros((3, 6), np.int64))]
    return [(d, sorted(rng.choice(d.shape[1], d.shape[1] // 3,
                                  replace=False).tolist()))
            for d in blocks]


@pytest.mark.parametrize("floor", [la.HANDOFF_FLOOR, 0])
@pytest.mark.parametrize("field", [f"prime:{P}", "rational"])
@pytest.mark.parametrize("seed", range(3))
def test_block_call_matches_each_block_alone(seed, field, floor, monkeypatch):
    monkeypatch.setattr(la, "HANDOFF_FLOOR", floor)
    blocks = block_list(np.random.default_rng(seed))
    cores = record_dense_calls(monkeypatch)
    got = la.block_ranks(blocks, field)
    in_blocks, cores[:] = cores[:], []
    alone = []
    for d, skip in blocks:
        reduced = d.drop_columns(skip)
        _, rank, (rows,) = la.ranks_with_prefix(
            reduced, (reduced.shape[1],) * 2, field)
        assert rank == la.rank_fraction(dense(reduced).tolist())
        alone.append((rank, rows))
    assert got == alone  # the same ranks and pivot rows, over both fields
    # the same dense cores, each sized by its own block; an empty core is
    # ranked only when a block's survivors reach it
    assert [c for c in cores if c[0] != (0, 0)] == [
        c for c in in_blocks if c[0] != (0, 0)]
    assert any(c[0][0] > 1 for c in in_blocks)


def test_block_call_over_q_falls_back_alone(monkeypatch):
    # the certification from the first prime fails for one block, which
    # alone is ranked again by rank_rational_certified
    rng = np.random.default_rng(11)
    blocks = block_list(rng)
    target = blocks[5][0].drop_columns(blocks[5][1]).shape
    certify = la._certify_left_kernel
    monkeypatch.setattr(la, "_certify_left_kernel", lambda mat, prime, *a: (
        None if prime == P and mat.shape == target
        else certify(mat, prime, *a)))
    log = spy_certified_calls(monkeypatch)
    got = la.block_ranks(blocks, "rational")
    assert [c for c in log if c[0] == "certified"] == [
        ("certified", target[0])]
    for (rank, rows), (d, skip) in zip(got, blocks):
        reduced = dense(d.drop_columns(skip))
        assert rank == la.rank_fraction(reduced.tolist()) == len(rows)
        assert la.rank_fraction(reduced[rows].tolist()) == rank
    log.clear()
    reduced = blocks[5][0].drop_columns(blocks[5][1])
    _, rank, (rows,) = la.ranks_with_prefix(reduced, target[1:] * 2,
                                            "rational")
    assert got[5] == (rank, rows)  # the fallback's second prime


# -- one sparse form from assembly to elimination ----------------------------------

def assert_distinct_entries(mat):
    """No (row, column) of a SparseMatrix holds two entries."""
    keys = mat.rows * max(mat.shape[1], 1) + mat.cols
    assert np.unique(keys).size == keys.size


def test_graded_ring_triplets_eliminate_like_their_dense_form(monkeypatch):
    cone = lat.gorenstein_cone_over(fx.polytope("cube"))
    work = sg._QuotientWorkspace(sg.random_degree_one(cone, 5),
                                 lat.trivial_subdivision(cone))
    built = []
    rank_call = la.ranks_with_prefix
    monkeypatch.setattr(la, "ranks_with_prefix", lambda aug, bounds, field:
                        built.append((aug, bounds)) or rank_call(
                            aug, bounds, field))
    work.dims()
    for mat, _ in built:
        assert isinstance(mat, la.SparseMatrix)
        assert_distinct_entries(mat)
    mat, bounds = built[2]  # degree 3: a tier per derivative, then units
    assert len(bounds) == 4 and bounds[-1] < mat.shape[1]
    assert la.sparse_echelon_mod_p(mat, P, bounds) == (
        la.sparse_echelon_mod_p(dense(mat), P, bounds))


@pytest.mark.parametrize("stellar", [False, True])
@pytest.mark.parametrize("name", ["segment", "diamond", "square", "p2",
                                  "p2_dual"])
def test_koszul_triplets_eliminate_like_their_dense_form(name, stellar):
    pair = fx.reflexive_pair(name)
    complex_ = kz.build_complex(
        pair, sg.random_degree_one(pair.cone, 0),
        sg.random_degree_one(pair.dual, 17),
        dual_subdivision=lat.stellar_subdivision(pair.dual) if stellar
        else None)
    for d in complex_.blocks.values():
        assert_distinct_entries(d)
        bounds = (d.shape[1] // 2, d.shape[1])
        assert la.sparse_echelon_mod_p(d, P, bounds) == (
            la.sparse_echelon_mod_p(dense(d), P, bounds))
        skip = range(0, d.shape[1], 3)
        assert (dense(d.drop_columns(skip))
                == np.delete(dense(d), list(skip), axis=1)).all()


def test_graded_ring_memory_peak():
    cone = lat.gorenstein_cone_over(fx.polytope("cube"))
    g = sg.random_degree_one(cone, 0)
    sg.graded_quotient_dims(g)  # the lattice points are cached from here on
    tracemalloc.start()
    try:
        assert sg.graded_quotient_dims(g).regular_profile
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2**20
