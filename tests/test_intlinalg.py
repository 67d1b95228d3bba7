"""Exact linear algebra kernels against brute-force references."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from stringcone import intlinalg as la


def ref_echelon(rows, p):
    a = np.array(rows, dtype=np.int64) % p
    m, n = a.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        f = a[r + 1:, c].copy()
        a[r + 1:] = (a[r + 1:] - f[:, None] * a[r]) % p
        pivots.append(c)
        r += 1
    return r, pivots


small_matrices = st.integers(1, 8).flatmap(
    lambda m: st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            min_size=m, max_size=m)))


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_rank_mod_p_matches_fraction_rank(rows):
    rf = la.rank_fraction(rows)
    assert la.rank_mod_p(rows, la.DEFAULT_PRIME) == rf
    assert la.rank_mod_p(rows, next(la.primes_below(1 << 22))) == rf


def test_prime_kernels_reject_primes_above_float64_range():
    big = next(la.primes_below(1 << 23))
    with pytest.raises(ValueError):
        la.echelon_mod_p([[1, 2], [3, 4]], big)
    with pytest.raises(ValueError):
        la.rref_mod_p([[1, 2], [3, 4]], big)


def dependent_rows_first(rng, m, n, r, lead):
    """m x n integer matrix of rank r whose first `lead` rows are
    multiples of one later row, so rows 0..r-1 are dependent."""
    basis = rng.integers(-9, 10, (r, n))
    tail = rng.integers(-3, 4, (m - lead, r)) @ basis
    tail[:r] = basis
    head = rng.integers(1, 5, (lead, 1)) * tail[r - 1]
    return np.vstack([head, tail]).astype(np.int64)


def test_echelon_order_names_independent_rows():
    rng = np.random.default_rng(17)
    for _ in range(12):
        m = int(rng.integers(8, 50))
        n = int(rng.integers(8, 100))  # n > 64 spans two panels
        r = int(rng.integers(3, min(m, n) - 2))
        mat = dependent_rows_first(rng, m, n, r, lead=2)
        rank, pivots, order = la.echelon_mod_p(mat, la.DEFAULT_PRIME)
        assert rank == r == la.rank_fraction(mat.tolist())
        assert sorted(order) == list(range(m))
        square = mat[order[:r]][:, pivots]
        assert la.rank_fraction(square.tolist()) == r
        assert la.rank_fraction(mat[:r].tolist()) < r  # natural order fails


def test_blocked_elimination_on_wide_structured_matrices():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(10, 200))
        n = int(rng.integers(70, 300))
        r = int(rng.integers(2, 40))
        left = (rng.integers(-9, 9, (m, r)) * (rng.random((m, r)) < 0.25))
        right = (rng.integers(-9, 9, (r, n)) * (rng.random((r, n)) < 0.25))
        mat = (left @ right).astype(np.int64)
        got = la.echelon_mod_p(mat, la.DEFAULT_PRIME)[:2]
        assert got == tuple(ref_echelon(mat, la.DEFAULT_PRIME))


def test_rref_mod_p_matches_fraction_rref():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        rows = rng.integers(-50, 50, (m, n)).tolist()
        r, piv, mat = la.rref_mod_p(rows, la.DEFAULT_PRIME)
        rref, pivf = la.rref_fraction(rows)
        assert piv == pivf
        for i in range(r):
            for j in range(n):
                v = rref[i][j]
                expect = (v.numerator * pow(v.denominator, -1, la.DEFAULT_PRIME)
                          % la.DEFAULT_PRIME)
                assert int(mat[i][j]) == expect


@pytest.mark.parametrize("n, density", [(150, 0.01), (200, 0.006)])
def test_rref_mod_p_matches_fraction_rref_across_blocks(n, density):
    # [S | I] of rank n > 64 with S sparse, so that Fraction elimination
    # stays fast: back-substitution clears entries above the pivots of
    # one 64-row block with pivot rows from the blocks below it
    p = la.DEFAULT_PRIME
    rng = np.random.default_rng(1)
    s = np.eye(n, dtype=np.int64) + rng.integers(-3, 4, (n, n)) * (
        rng.random((n, n)) < density)
    rows = np.hstack([s[rng.permutation(n)], np.eye(n, dtype=np.int64)])
    r, piv, mat = la.rref_mod_p(rows, p)
    rref, pivf = la.rref_fraction(rows.tolist())
    assert r == n and piv == pivf
    assert mat.tolist() == [[v.numerator * pow(v.denominator, -1, p) % p
                             for v in row] for row in rref]


def test_integer_kernel_and_saturation():
    ker = la.integer_kernel([[1, 2, 3], [4, 5, 6]])
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + 2 * v[1] + 3 * v[2] == 0
    assert 4 * v[0] + 5 * v[1] + 6 * v[2] == 0
    assert la.gcd_vector(v) == 1
    sat = la.saturation_basis([[2, 0], [0, 3]])
    assert sorted(sat) == [(0, 1), (1, 0)]
    assert la.saturation_basis([[2, 4]]) == [(1, 2)]


def test_solve_integer():
    assert la.solve_integer([[0, 1], [2, 1]], [1, 1]) == (0, 1)
    assert la.solve_integer([[2, 1], [2, -1]], [1, 1]) is None
    sol = la.solve_integer([[1, 1, 1]], [5])
    assert sol is not None and sum(sol) == 5


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
@settings(max_examples=60, deadline=None)
def test_rational_reconstruction_roundtrip(num, den):
    frac = Fraction(num, den)
    # modulus must exceed 2 * bound^2 with |num|, den <= bound
    modulus = next(la.primes_below(2 * 10**12 + 10**7))
    residue = frac.numerator * pow(frac.denominator, -1, modulus) % modulus
    assert la.rational_reconstruct(residue, modulus) == frac
    nums, den = la.vector_rational_reconstruct([residue, residue], modulus)
    assert [Fraction(x, den) for x in nums] == [frac, frac]


def test_certified_rank_with_planted_kernel():
    rng = np.random.default_rng(7)
    m, n, r = 120, 150, 117
    left = rng.integers(-5, 5, (m, r))
    right = rng.integers(1, 10**6, (r, n))
    mat = left @ right
    assert la.rank_rational_certified(mat, (mat.shape[1],))[1] == r


def _record_calls(monkeypatch, calls, *names):
    """Append (name, args) to calls for each call of the named kernels."""
    for name in names:
        fn = getattr(la, name)
        monkeypatch.setattr(la, name, lambda *a, fn=fn, name=name:
                            calls.append((name, a)) or fn(*a))


def test_certified_rank_dixon_route_with_dependent_leading_rows(monkeypatch):
    rng = np.random.default_rng(23)
    mat = dependent_rows_first(rng, 60, 90, 50, lead=5)
    calls = []
    _record_calls(monkeypatch, calls, "echelon_mod_p", "rref_mod_p")
    assert la.rank_rational_certified(mat, (mat.shape[1],))[1] == (
        la.rank_fraction(mat.tolist()))
    # one pass, then Dixon
    assert [name for name, _ in calls] == ["echelon_mod_p", "rref_mod_p"]


def test_certified_rank_full_rank_shortcut():
    rng = np.random.default_rng(9)
    mat = rng.integers(1, 10**6, (90, 200))
    assert la.rank_rational_certified(mat, (mat.shape[1],))[1] == 90


def test_certified_rank_small_matrix_takes_dixon_route(monkeypatch):
    calls = []
    _record_calls(monkeypatch, calls, "echelon_mod_p", "rref_mod_p",
                  "rank_fraction")
    assert la.rank_rational_certified(
        [[1, 2, 3], [2, 4, 6], [0, 1, 1]], (3,))[1] == 2
    assert [name for name, _ in calls] == ["echelon_mod_p", "rref_mod_p"]


@given(small_matrices)
@example([[0, 0, 0], [0, 0, 0]])
@settings(max_examples=80, deadline=None)
def test_certified_rank_matches_fraction_rank(rows):
    assert la.rank_rational_certified(rows, (len(rows[0]),))[1] == (
        la.rank_fraction(rows))


def test_certified_rank_retries_with_next_prime(monkeypatch):
    # every entry vanishes mod DEFAULT_PRIME, so the first prime sees rank 0
    mat = [[la.DEFAULT_PRIME * x for x in row]
           for row in ([1, 2, 3], [2, 4, 6], [0, 1, 1])]
    calls = []
    _record_calls(monkeypatch, calls, "echelon_mod_p", "rank_fraction")
    assert la.rank_rational_certified(mat, (3,))[1] == 2
    primes = la.primes_below(la.DEFAULT_PRIME + 1)
    assert [(name, a[1]) for name, a in calls] == [
        ("echelon_mod_p", next(primes)), ("echelon_mod_p", next(primes))]


def test_dixon_lift_solves_every_right_hand_side_at_once():
    rng = np.random.default_rng(5)
    n = 40
    mat = rng.integers(-10**6, 10**6, (n, n))
    rhs = rng.integers(-10**6, 10**6, (n, 3))
    lifted = la._dixon_lift(mat, rhs, la.DEFAULT_PRIME)
    assert lifted is not None
    nums, den = lifted
    assert nums.shape == (n, 3)
    assert (mat.astype(object) @ nums == den * rhs.astype(object)).all()


def test_digit_product_is_exact_at_the_float64_edge():
    rng = np.random.default_rng(47)
    k = 4
    # the pieces' partial sums reach 2**52 and the products 2**62, which
    # one float64 product of the whole factors rounds
    left = rng.integers(2**38, 2**39, (30, k)) * rng.choice([-1, 1], (30, k))
    right = rng.integers(0, 2**22, (k, 20))
    exact = left.astype(object) @ right.astype(object)
    assert (la._digit_product(left.astype(np.float64), right) == exact).all()
    naive = left.astype(np.float64) @ right.astype(np.float64)
    assert any(int(x) != y for x, y in zip(naive.ravel(), exact.ravel()))
    # every partial sum of the low pieces one step below 2**53
    edge = (2**53 - 1) // (k * (2**11 - 1))
    left = np.full((3, k), -edge)
    left[1, 1:] = edge
    right = np.full((k, 5), 2**11 - 1)
    assert (la._digit_product(left.astype(np.float64), right)
            == left.astype(object) @ right.astype(object)).all()


def test_certified_rank_lifts_forty_dependent_rows_once(monkeypatch):
    rng = np.random.default_rng(31)
    mat = dependent_rows_first(rng, 100, 80, 60, lead=4)
    calls = []
    _record_calls(monkeypatch, calls, "echelon_mod_p", "rref_mod_p")
    assert la.rank_rational_certified(mat, (mat.shape[1],))[1] == (
        la.rank_fraction(mat.tolist()))
    assert [name for name, _ in calls] == ["echelon_mod_p", "rref_mod_p"]


def test_certified_rank_with_different_denominators(monkeypatch):
    rng = np.random.default_rng(41)
    units = rng.integers(-9, 10, (4, 12))
    scaled = units * np.array([[2], [3], [5], [7]])
    # each dependent row is a combination of the scaled rows whose
    # coefficients have their own denominators
    dependent = np.array([units[0] + units[1], units[2] - units[3],
                          units[0] + 4 * units[2], units[1] + units[3]])
    mat = np.vstack([dependent, scaled])
    lifts = []
    lift = la._dixon_lift
    monkeypatch.setattr(la, "_dixon_lift",
                        lambda *a: lifts.append(lift(*a)) or lifts[-1])
    assert la.rank_rational_certified(mat, (mat.shape[1],))[1] == 4 == (
        la.rank_fraction(mat.tolist()))
    (nums, den), = lifts
    col_dens = {max(Fraction(int(x), den).denominator for x in col)
                for col in nums.T}
    assert len(col_dens) > 1


@pytest.mark.parametrize("bad_calls, primes", [(1, 2), (None, 3)])
def test_perturbed_lift_is_rejected(monkeypatch, bad_calls, primes):
    rng = np.random.default_rng(43)
    mat = dependent_rows_first(rng, 30, 40, 20, lead=3)
    lift, seen = la._dixon_lift, []

    def perturbed(*args):
        nums, den = lift(*args)
        seen.append(den)
        if bad_calls is None or len(seen) <= bad_calls:
            nums[0, -1] += 1
        return nums, den

    monkeypatch.setattr(la, "_dixon_lift", perturbed)
    calls = []
    _record_calls(monkeypatch, calls, "echelon_mod_p", "rref_fraction")
    assert la.rank_rational_certified(mat, (mat.shape[1],))[1] == 20
    names = [name for name, _ in calls]
    assert names.count("echelon_mod_p") == primes
    assert ("rref_fraction" in names) == (bad_calls is None)


def test_primes_below_yields_primes():
    it = la.primes_below(100)
    assert [next(it) for _ in range(4)] == [97, 89, 83, 79]
