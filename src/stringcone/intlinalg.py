"""Exact integer / rational / prime-field linear algebra.

All geometry in this package reduces to small exact-arithmetic kernels:

* Smith-form based integer solving (grading functionals, lattice kernels,
  saturations),
* row echelon over a prime field p < 2**22 in two stages, both reading
  one sparse form, `SparseMatrix` (int64 triplets with a shape).  The
  sparse front end (`sparse_echelon_mod_p`) reduces only the nonzeros,
  takes every entry alone in its row or column in bulk with numpy
  (structured Gaussian elimination, LaMacchia-Odlyzko 1990), then
  eliminates on the rest with Markowitz pivoting, column with the fewest
  entries first, in tiers: the columns below each of a list of bounds
  are exhausted before the next.  Once the cheapest pivot costs more than
  1/HANDOFF_SHARE of the active rows x columns plus HANDOFF_FLOOR, the
  remaining core is built once as float64 residues and eliminated in
  place by the dense kernel (`echelon_mod_p`: blocked float64 multiply in
  row chunks, exact because every value stays below 2**53, leftmost
  pivots, so the tiers stay in order).  RREF over GF(p) (`rref_mod_p`) is
  that kernel's echelon and a blocked back-substitution over the pivots,
* certified rational rank (`rank_rational_certified`, the one entry over
  Q): one tiered mod-p echelon proposes the rank of the columns below the
  last bound and of the whole matrix and names a square subsystem S.
  Full row or column rank mod p pins a rank; otherwise one Dixon p-adic
  lift of S (one inverse mod p, two exact float64 BLAS products per
  digit, early termination on one random combination of the right-hand
  sides, and one shared-denominator reconstruction over every dependent
  row) and one exact bigint check promote it from "probable" to proven.
  Only the pivot columns are made dense, and only the Fraction fallback
  after every prime attempt failed densifies the whole matrix.

`ranks_with_prefix` (the rank call of one matrix; a plain rank is its
second entry with the column count as the one bound) and `block_ranks`
(each block's rank and pivot rows from one elimination of a direct sum,
one set of singleton passes over the sum, then Markowitz and core per
block) dispatch on a field descriptor, so callers hold one code path for
both scalar fields.
"""

from __future__ import annotations

import contextlib
import ctypes
import heapq
import math
import random
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import DimensionBudgetExceeded, InvalidField

# A prime just above 2**21 keeps 64-term float64 dot products of residues
# exact with room to defer modular reductions across several panels
# (64*(p-1)**2 ~ 2**48 per update), while staying above the 10**6
# coefficient range used for random elements.
DEFAULT_PRIME = 2097169
MIN_FIELD_CHAR = 2_000_000
MAX_FIELD_CHAR = 1 << 22  # exclusive; the float64 kernels need p < 2**22

# rank_rational_certified: primes tried before falling back to Fraction
# elimination
CERTIFY_PRIMES = 3

_BLOCK = 64

# The HANDOFF rule: sparse_echelon_mod_p hands its core to echelon_mod_p
# once its Markowitz pivot's cost, (count - 1) * (length - 1) dict updates,
# exceeds 1/HANDOFF_SHARE of the active rows x columns plus HANDOFF_FLOOR.
# One dict update costs about as much as the dense kernel's work on a few
# thousand cells; the floor covers its per-column overhead on small cores.
# Both values were the fastest of those tried on the multiplication
# matrices of the 2-d and 3-d fixture cones and on the Koszul
# differentials of the 2-d fixtures.
HANDOFF_SHARE = 512
HANDOFF_FLOOR = 512

# the cells a multiplication matrix, a dense core or a Koszul complex's
# elements and triplets may take; each is counted before it is allocated
MATRIX_CELL_BUDGET = 50_000_000


def refuse_over_budget(cells: int, message: str):
    """Raise DimensionBudgetExceeded(message) if cells > MATRIX_CELL_BUDGET."""
    if cells > MATRIX_CELL_BUDGET:
        raise DimensionBudgetExceeded(message)


@dataclass(frozen=True)
class SparseMatrix:
    """An integer matrix as int64 triplets: entry vals[k] sits at row
    rows[k], column cols[k], and no (row, column) appears twice.  Its rows,
    read by index or iteration, come out dense."""

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def of(cls, mat) -> SparseMatrix:
        """mat itself, or the nonzeros of a dense matrix or nested list."""
        if isinstance(mat, cls):
            return mat
        mat = np.asarray(mat)
        if mat.ndim != 2:  # an empty list
            mat = mat.reshape(0, 0)
        rows, cols = np.nonzero(mat)
        return cls(mat.shape, rows, cols, mat[rows, cols])

    def drop_columns(self, skip) -> SparseMatrix:
        """The matrix without the columns listed in skip."""
        keep = np.ones(self.shape[1], dtype=bool)
        keep[list(skip)] = False
        on = keep[self.cols]
        return SparseMatrix((self.shape[0], int(keep.sum())), self.rows[on],
                            (np.cumsum(keep) - 1)[self.cols[on]], self.vals[on])

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        by = np.argsort(self.rows, kind="stable")
        cut = np.searchsorted(self.rows[by], np.arange(len(self) + 1)).tolist()
        for lo, hi in zip(cut, cut[1:]):
            row = np.zeros(self.shape[1], dtype=self.vals.dtype)
            row[self.cols[by[lo:hi]]] = self.vals[by[lo:hi]]
            yield row

    def __getitem__(self, i: int) -> np.ndarray:
        return next(islice(self, i, None))


@lru_cache(maxsize=None)
def parse_field(field: str):
    """Split a field descriptor into ("rational", None) or ("prime", p).

    Raises InvalidField for anything else, for a composite modulus, and
    for a prime outside MIN_FIELD_CHAR <= p < MAX_FIELD_CHAR.  Valid
    descriptors are memoised, so the primality test runs once each."""
    if field == "rational":
        return ("rational", None)
    kind, _, value = field.partition(":")
    try:
        p = int(value) if kind == "prime" else None
    except ValueError:
        p = None
    if p is None:
        raise InvalidField(f"unknown field descriptor {field!r}; "
                           f"expected 'rational' or 'prime:<p>'")
    if not MIN_FIELD_CHAR <= p < MAX_FIELD_CHAR:
        raise InvalidField(f"prime {p} outside the supported range "
                           f"{MIN_FIELD_CHAR} <= p < 2**22")
    if not _is_probable_prime(p):
        raise InvalidField(f"modulus {p} is not prime")
    return ("prime", p)


def gcd_vector(vec) -> int:
    g = 0
    for x in vec:
        g = math.gcd(g, int(x))
    return g


def primitive_vector(vec):
    """Divide out the content, preserving direction (gcd is positive)."""
    g = gcd_vector(vec)
    if g == 0:
        return tuple(int(x) for x in vec)
    return tuple(int(x) // g for x in vec)


def dot(u, v) -> int:
    return sum(int(a) * int(b) for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# Fraction elimination (RREF over Q, rank fallback)
# ---------------------------------------------------------------------------

def rref_fraction(rows):
    """Reduced row echelon form over Q.  Returns (rref_rows, pivot_columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def rank_fraction(rows) -> int:
    return len(rref_fraction(rows)[1])


def nullspace_fraction(rows):
    """Basis of the right kernel over Q, as primitive integer vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = rref_fraction(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rref[i][f]
        den = 1
        for x in vec:
            den = den * x.denominator // math.gcd(den, x.denominator)
        basis.append(primitive_vector([int(x * den) for x in vec]))
    return basis


# ---------------------------------------------------------------------------
# Integer lattice algebra via a diagonalization of Smith type
# ---------------------------------------------------------------------------

def _diagonalize(mat):
    """Return (U, D, V) with D = U @ mat @ V diagonal, U and V unimodular."""
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            reduced = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        reduced = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    addmul_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        reduced = True
            if not reduced:
                break
        t += 1
    return u, a, v


def integer_kernel(mat):
    """Saturated basis of {x in Z^n : mat @ x = 0}."""
    if not mat:
        return []
    n = len(mat[0])
    _, d, v = _diagonalize(mat)
    r = sum(1 for i in range(min(len(d), n)) if d[i][i] != 0)
    return [tuple(v[i][j] for i in range(n)) for j in range(r, n)]


def solve_integer(mat, rhs):
    """One integer solution x of mat @ x = rhs, or None.

    Free coordinates of the diagonalized system are pinned to zero, so the
    returned solution is deterministic.
    """
    return solve_integer_all(mat, [rhs])[0]


def solve_integer_all(mat, rhss):
    """solve_integer(mat, rhs) for each rhs, through one diagonalization."""
    if not mat:
        return [None] * len(rhss)
    m = len(mat)
    n = len(mat[0])
    u, d, v = _diagonalize(mat)

    def solve(rhs):
        ub = [dot(u[i], rhs) for i in range(m)]
        y = [0] * n
        for i in range(min(m, n)):
            di = d[i][i]
            if di != 0:
                if ub[i] % di != 0:
                    return None
                y[i] = ub[i] // di
            elif ub[i] != 0:
                return None
        for i in range(n, m):
            if ub[i] != 0:
                return None
        x = tuple(sum(v[i][j] * y[j] for j in range(n)) for i in range(n))
        for row, b in zip(mat, rhs):
            if dot(row, x) != int(b):
                return None
        return x

    return [solve(rhs) for rhs in rhss]


def saturation_basis(vectors):
    """Basis of span_Q(vectors) ∩ Z^n (the saturated lattice of the span)."""
    vecs = [v for v in vectors if any(x != 0 for x in v)]
    if not vecs:
        return []
    n = len(vecs[0])
    perp = integer_kernel(vecs)          # functionals vanishing on the span
    if not perp:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return integer_kernel(perp)          # saturated double annihilator


def coordinates_in_basis(basis, vec):
    """Integer coordinates of vec in the given lattice basis, or None."""
    cols = list(zip(*basis))  # matrix with basis vectors as columns
    return solve_integer([list(row) for row in cols], vec)


def rank_int(rows) -> int:
    """Exact rank of a small integer matrix."""
    return rank_fraction(rows)


# ---------------------------------------------------------------------------
# Prime field elimination
# ---------------------------------------------------------------------------

def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(start: int):
    """Yield primes descending from start (exclusive)."""
    n = start - 1
    while n > 2:
        if _is_probable_prime(n):
            yield n
        n -= 1


def _to_mod_array(rows, p: int) -> np.ndarray:
    """Residues mod p of an integer matrix, as a 2-d float64 array (a
    float64 array as is); the float64 kernels refuse p >= 2**22."""
    if p >= MAX_FIELD_CHAR:
        raise ValueError(f"prime {p} too large for float64 elimination "
                         f"(needs p < 2**22)")
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        return rows
    if isinstance(rows, np.ndarray) and rows.dtype != object:
        return (rows.astype(np.int64, copy=False) % p).astype(np.float64)
    return np.array([[int(x) % p for x in row] for row in rows]
                    or np.empty((0, 0)), dtype=np.float64)


def echelon_mod_p(rows, p: int):
    """Row echelon over GF(p) with blocked float64 updates.

    Returns (rank, pivot_columns, order): order[i] is the input row that
    ends at echelon position i, so rows order[:rank] are independent mod p
    and, restricted to the pivot columns, form an invertible matrix.  A
    float64 array holds residues in [0, p) and is eliminated in place.
    """
    return _echelon_inplace(_to_mod_array(rows, p), p)


def _echelon_inplace(a: np.ndarray, p: int):
    """The forward elimination of echelon_mod_p on a float64 residue
    matrix, in place: leaves a[:rank] in row echelon form with leading
    ones and entries in [0, p), and the rows below it zero.

    Every value stays an exact integer below 2**53: 64-term dot products
    of residues need 64 * (p-1)**2 < 2**53, and p < 2**22 leaves room to
    defer reductions across panels.  Scalar work touches only the
    64-column panel; the trailing block is updated by forward substitution
    on the pivot rows plus one GEMM per chunk of about 2**18 cells, so no
    temporary is as large as the matrix.
    """
    m, n = a.shape
    order = list(range(m))
    p2 = float(p - 1) ** 2
    panel_growth = _BLOCK * p2
    cap = float(1 << 51)  # keep |values| comfortably under 2**53
    # `bound` tracks the magnitude of not-yet-reduced entries in the live
    # region (rows >= r).  Columns/rows are reduced exactly where they are
    # read; the full block is reduced only when the bound approaches cap.
    bound = float(p - 1)
    r = 0
    pivots = []
    col = 0
    while col < n and r < m:
        hi = min(col + _BLOCK, n)
        r0 = r
        invs = []
        for c in range(col, hi):
            colv = a[r:, c]
            np.mod(colv, p, out=colv)
            nz = np.nonzero(colv)[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:  # the multipliers of earlier pivots move with the rows
                a[[r, i], col:] = a[[i, r], col:]
                order[r], order[i] = order[i], order[r]
            row = a[r, c:hi]
            np.mod(row, p, out=row)
            invs.append(pow(int(row[0]), -1, p))
            row *= invs[-1]
            np.mod(row, p, out=row)
            # column c keeps the multipliers below the pivot, as in LU
            a[r + 1:, c + 1:hi] -= np.outer(a[r + 1:, c], row[1:])
            pivots.append(c)
            r += 1
        panel = pivots[len(pivots) - len(invs):]
        # panel columns accumulate at most one p^2 per pivot
        if hi < n and invs:
            trail = a[:, hi:]
            # finalize pivot rows by forward substitution
            for k, inv in enumerate(invs):
                row = trail[r0 + k]
                row -= a[r0 + k, panel[:k]] @ trail[r0:r0 + k]
                np.mod(row, p, out=row)
                row *= inv
                np.mod(row, p, out=row)
            # the rows below the panel take one GEMM per chunk
            if m > r:
                step = max(_BLOCK, (1 << 18) // trail.shape[1])
                for lo in range(r, m, step):
                    trail[lo:lo + step] -= a[lo:lo + step, panel] @ trail[r0:r]
                bound += panel_growth
                if bound + panel_growth > cap:
                    np.mod(trail[r:], p, out=trail[r:])
                    bound = float(p - 1)
        for k, c in enumerate(panel):
            a[r0 + k + 1:, c] = 0
        col = hi
    return r, pivots, order


def sparse_echelon_mod_p(rows, p: int, bounds=()):
    """Row echelon over GF(p) of a SparseMatrix (or a dense matrix read
    into one) that eliminates on the nonzeros first, in tiers: the columns
    below bounds[0], then bounds[1], ... (no bounds is one tier).  The
    two stages are _singleton_passes and _markowitz_and_core; one stable
    sort by tier then puts the pivots in tier order.

    Returns (rank, pivots, order) like echelon_mod_p, in elimination order:
    rows order[:rank] and columns pivots form a square matrix invertible
    mod p, and for each bound the pivots below it come first and count
    the rank of the columns below it.
    """
    mat = SparseMatrix.of(rows)
    m, n = mat.shape
    tiers = np.searchsorted(bounds, np.arange(n), side="right")
    *bulk, survivors = _singleton_passes(mat, p, tiers, len(bounds) + 1)
    tier = tiers.tolist()
    pivots, order = _markowitz_and_core(survivors, tier, p, *bulk)
    by = sorted(range(len(pivots)), key=lambda j: tier[pivots[j]])
    pivots, order = [pivots[j] for j in by], [order[j] for j in by]
    return len(pivots), pivots, order + sorted(set(range(m)) - set(order))


def _singleton_passes(mat: SparseMatrix, p: int, tiers, span: int):
    """The first stage of sparse_echelon_mod_p, on the nonzero residues of
    mat, with tiers[k] < span the tier of column k: numpy passes take,
    until one finds none, every entry alone in its row, and every entry
    alone in its column whose row held no entry in an earlier tier, at
    most one per row and column; each adds one to every tier's rank.
    Returns (pivots, rows, [rows, columns, residues] of what is left)."""
    m, n = mat.shape
    vals = mat.vals % p
    r, c, v = (a[vals != 0] for a in (mat.rows, mat.cols, vals))
    # the lowest tier of each row, which only rises as entries go
    low = (np.bincount(r * span + tiers[c], minlength=m * span)
           .reshape(m, span) > 0).argmax(1)
    pivots, order = [], []
    while r.size:
        in_row = np.bincount(r, minlength=m)[r] == 1
        in_col = (np.bincount(c, minlength=n)[c] == 1) > in_row
        in_col &= low[r] == tiers[c]  # a column singleton's row starts there
        pick = (in_row | in_col).nonzero()[0]
        if not pick.size:
            break
        # only row singletons share a column, and only column singletons a
        # row: the lowest (row, column) of each such group is taken
        rp, cp = r[pick], c[pick]
        group = np.where(in_row[pick], cp, n + rp)
        by = np.lexsort((cp, rp, group))
        by = by[np.concatenate(([True], group[by][1:] != group[by][:-1]))]
        order += rp[by].tolist()
        pivots += cp[by].tolist()
        keep = (np.bincount(rp[by], minlength=m)[r]
                + np.bincount(cp[by], minlength=n)[c]) == 0
        r, c, v = r[keep], c[keep], v[keep]
    return pivots, order, [r, c, v]


def _markowitz_and_core(survivors: list, tier, p: int, pivots, order):
    """The second stage: Markowitz pivoting on the survivors, taken out of
    the list into {column: residue} row dicts, with tier[k] the tier of
    column k: the active column with the fewest entries in the lowest
    tier, and in it the row with the fewest.  Once that pivot's cost
    passes the HANDOFF rule, the rest goes to echelon_mod_p as float64
    residues in one call, even for an empty core, or DimensionBudgetExceeded
    is raised before a core of more than MATRIX_CELL_BUDGET cells is
    allocated.  Appends the pivots and their rows (then the core's other
    rows) to pivots and order, and returns both."""
    rows_, cols = defaultdict(dict), defaultdict(set)
    for i, k, x in zip(*(a.tolist() for a in survivors)):
        rows_[i][k] = x
        cols[k].add(i)
    survivors.clear()  # the dicts hold the survivors now
    heap = [(tier[k], len(col), k) for k, col in cols.items()]
    heapq.heapify(heap)
    nrows, ncols = len(rows_), len(heap)
    while heap:
        _, count, c = heap[0]
        col = cols[c]
        if len(col) != count:  # stale: a fresh entry was pushed
            heapq.heappop(heap)
            continue
        i = (min(col, key=lambda j: (len(rows_[j]), j)) if count > 1
             else next(iter(col)))
        prow = rows_[i]
        if ((count - 1) * (len(prow) - 1)
                > nrows * ncols / HANDOFF_SHARE + HANDOFF_FLOOR):
            break
        heapq.heappop(heap)
        inv = pow(prow.pop(c), -1, p)
        others = [(k, v * inv % p) for k, v in prow.items()]
        col.discard(i)
        for j in col:
            row = rows_[j]
            f = row.pop(c)
            for k, v in others:
                old = row.get(k)
                if old is None:
                    row[k] = -f * v % p
                    cols[k].add(j)
                elif (new := (old - f * v) % p):
                    row[k] = new
                else:
                    del row[k]
                    cols[k].discard(j)
            nrows -= not row
        col.clear()
        for k, _ in others:
            cols[k].discard(i)
            if cols[k]:
                heapq.heappush(heap, (tier[k], len(cols[k]), k))
            ncols -= not cols[k]
        rows_[i] = {}
        nrows -= 1
        ncols -= 1
        pivots.append(c)
        order.append(i)
    # the surviving entries as arrays, and the dicts freed before the core
    core_rows = sorted(i for i, row in rows_.items() if row)
    core_cols = np.array(sorted(k for k, col in cols.items() if col), np.int64)
    refuse_over_budget(len(core_rows) * core_cols.size, "dense core of "
                       f"{len(core_rows)} x {core_cols.size} exceeds budget")
    sizes = [len(rows_[i]) for i in core_rows]
    keys = np.fromiter((c for i in core_rows for c in rows_[i]), np.int64)
    vals = np.fromiter((v for i in core_rows for v in rows_[i].values()), float)
    del rows_, cols
    core = np.zeros((len(core_rows), core_cols.size))  # resident once filled
    if core_rows:  # glibc keeps the freed heap resident until it is trimmed
        with contextlib.suppress(AttributeError, OSError, TypeError):
            ctypes.CDLL(None).malloc_trim(0)
        core[np.repeat(np.arange(len(core_rows)), sizes),
             np.searchsorted(core_cols, keys)] = vals
    _, core_piv, core_order = echelon_mod_p(core, p)
    pivots += core_cols[core_piv].tolist()
    order += [core_rows[a] for a in core_order]
    return pivots, order


def rank_mod_p(rows, p: int) -> int:
    return sparse_echelon_mod_p(rows, p)[0]


def _tiers(pivots, order, bounds):
    """Pivot counts below each bound, and pivot rows below all but the last."""
    counts = [sum(1 for c in pivots if c < b) for b in bounds]
    return counts, tuple(order[:r] for r in counts[:-1])


def ranks_with_prefix_mod_p(rows, bounds, p: int):
    """(rank of the columns below the last bound, rank, tiers) from a
    single tiered elimination: tiers holds, for each earlier bound, the
    rows on which the columns below it have a minor invertible mod p."""
    rank_, pivots, order = sparse_echelon_mod_p(rows, p, bounds)
    counts, tiers = _tiers(pivots, order, bounds)
    return counts[-1], rank_, tiers


def rref_mod_p(rows, p: int):
    """Full RREF over GF(p): the echelon of echelon_mod_p, then
    back-substitution over the pivot rows.

    A lower pivot row is zero in every earlier pivot column, so clearing
    above the pivots never changes the entries the rows above hold in a
    pivot column: they stay the echelon's residues and are the
    multipliers.  Pivot rows are finished in 64-row blocks from the
    bottom, one row at a time within a block, and the rows above a block
    take one GEMM; every row is reduced after its update, so no value
    exceeds p + 64 * (p-1)**2 < 2**53.

    Returns (rank, pivots, int64 matrix); exact for p < 2**22."""
    a = _to_mod_array(rows, p)
    r, pivots, _ = _echelon_inplace(a, p)
    for lo in range((r - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
        hi = min(lo + _BLOCK, r)
        c = pivots[lo]
        for j in range(hi - 2, lo - 1, -1):
            a[j, c:] -= a[j, pivots[j + 1:hi]] @ a[j + 1:hi, c:]
            np.mod(a[j, c:], p, out=a[j, c:])
        if lo:
            a[:lo, c:] -= a[:lo, pivots[lo:hi]] @ a[lo:hi, c:]
            np.mod(a[:lo, c:], p, out=a[:lo, c:])
    return r, pivots, a.astype(np.int64)


# ---------------------------------------------------------------------------
# Certified rational rank (Dixon lifting + exact verification)
# ---------------------------------------------------------------------------

def rational_reconstruct(residue: int, modulus: int):
    """Classic half-gcd rational reconstruction of residue mod modulus."""
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, residue % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r1 > bound or s1 == 0 or abs(s1) > bound or math.gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


def vector_rational_reconstruct(residues, modulus: int):
    """(numerators, shared denominator) of the rational vector with these
    residues, or None when an entry fails.  After each expensive
    single-entry reconstruction the running denominator is applied to the
    remaining residues, which then usually pass a cheap integerness test.
    Each numerator is scaled once, at the end, from the denominator it was
    read with to the final one."""
    bound = math.isqrt(modulus // 2)
    den, nums, dens = 1, [], []
    for r in residues:
        y = int(r) * den % modulus
        if y > bound and modulus - y > bound:
            f = rational_reconstruct(y, modulus)
            if f is None:
                return None
            den, y = den * f.denominator, f.numerator
        nums.append(y if y <= bound else y - modulus)
        dens.append(den)
    scale = {d: den // d for d in set(dens)}
    return [x * scale[d] for x, d in zip(nums, dens)], den


def _digit_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right in int64, for a float64 left holding integers and
    0 <= right < 2**22: float64 BLAS products with the 11-bit halves of
    right, exact while each |left| row sum times 2**11 stays below 2**53
    (every partial sum, in any order, is then an exact integer) and the
    result fits in int64."""
    out = (left @ (right >> 11).astype(np.float64)).astype(np.int64) << 11
    out += (left @ (right & 2047).astype(np.float64)).astype(np.int64)
    return out


def _dixon_lift(square: np.ndarray, rhs: np.ndarray, p: int):
    """square @ X = rhs solved exactly for every column of rhs at once, by
    p-adic lifting: (integer numerators of X, their shared denominator),
    or None when square is singular mod p, square @ z could wrap int64, or
    the digits of a Hadamard-type bound do not reconstruct.

    One rref_mod_p of [square | I] inverts square mod p; every digit is
    one _digit_product of that inverse with the residues of all right-hand
    sides and one of square with the digit.  The guard
    max_entry * n * p < 2**62 keeps both exact: their row sums times 2**11
    stay below n * 2**33 and 2**62 / p * 2**11 < 2**53.  Early termination
    (Chen-Storjohann 2005): one random combination of the entries is
    reconstructed at digits 25% apart; once it gives the same rational at
    two successive digits, one vector_rational_reconstruct over all
    entries ends the lift."""
    n, max_entry = len(square), int(np.abs(square).max())
    if max_entry * n * p >= 1 << 62:
        return None
    bits = n * (math.log2(max_entry + 1) + 0.5 * math.log2(max(n, 2)) + 1) + 64
    max_digits = int(bits / math.log2(p) * 2) + 32
    _, piv, inv = rref_mod_p(np.concatenate(
        [square % p, np.eye(n, dtype=np.int64)], axis=1), p)
    if piv[:n] != list(range(n)):
        return None
    inv, square_f = inv[:, n:].astype(np.float64), square.astype(np.float64)
    rng = random.Random(p)  # mix = left @ X @ right, one random scalar
    right = np.array([rng.randrange(1, 256) for _ in range(rhs.shape[1])])
    left = np.array([rng.randrange(1, 256) for _ in range(n)], dtype=object)
    residue, accum, mix = rhs, np.zeros(rhs.shape, dtype=object), 0
    modulus, mixed, check_at = 1, None, 1
    for step in range(1, max_digits + 1):
        z = _digit_product(inv, residue % p) % p
        accum += z.astype(object) * modulus
        mix += int((z @ right).astype(object) @ left) * modulus
        modulus *= p
        residue = (residue - _digit_product(square_f, z)) // p
        if step < check_at and step < max_digits:
            continue
        seen, mixed = mixed, vector_rational_reconstruct([mix], modulus)
        if (mixed is not None and mixed == seen) or step == max_digits:
            sol = vector_rational_reconstruct(accum.ravel(), modulus)
            if sol is not None:
                return np.array(sol[0], dtype=object).reshape(rhs.shape), sol[1]
        # confirm a reconstruction at the next digit; else check 25% later
        check_at = step + 1 if mixed else step + 1 + step // 4
    return None


def rank_rational_certified(rows, bounds):
    """(rank of the columns below the last bound, rank, tiers) over Q, both
    ranks certified, with one tiered mod-p elimination per prime attempt.

    The echelon of the matrix mod p gives lower bounds r (a nonzero
    r x r minor mod p is nonzero over Q), which pin a rank when they equal
    the row or column count.  Otherwise the same pass names r independent
    rows and r pivot columns; their square submatrix is invertible mod p,
    so one Dixon lift writes every remaining row as an exact rational
    combination of the r named rows, and one bigint check of those
    combinations proves rank <= r.  After CERTIFY_PRIMES failed attempts,
    Fraction elimination, which is always correct, decides.  The tiers
    come from the last prime: a minor invertible mod p is so over Q.
    """
    mat = SparseMatrix.of(rows)
    split = bounds[-1]
    left = mat.drop_columns(range(split, mat.shape[1]))
    for p in islice(primes_below(DEFAULT_PRIME + 1), CERTIFY_PRIMES):
        r, piv, order = sparse_echelon_mod_p(mat, p, bounds)
        counts, tiers = _tiers(piv, order, bounds)
        prefix = _certify_left_kernel(left, p, counts[-1], piv, order)
        if prefix is None:
            continue
        full = (prefix if split == mat.shape[1]
                else _certify_left_kernel(mat, p, r, piv, order))
        if full is not None:
            return prefix, full, tiers
    _, piv = rref_fraction([row.tolist() for row in mat])
    return sum(1 for c in piv if c < split), len(piv), tiers


def _certify_left_kernel(mat: SparseMatrix, prime: int, r: int, piv, order):
    """Certified rank of mat from an echelon mod prime that names r
    independent rows order[:r] and pivot columns piv[:r], or None."""
    nrows, ncols = mat.shape
    if r == nrows or r == ncols:
        return r  # full rank mod p pins the rank over Q
    if r == 0:
        return 0 if not mat.vals.any() else None
    # rows renumbered in echelon order: the independent ones come first
    mat = replace(mat, rows=np.argsort(order)[mat.rows])
    # a dependent row f is y @ mat[:r] for the y that solves
    # y @ mat[:r, piv] = mat[f, piv]: one column per row f
    piv = np.array(piv[:r])
    on_piv = np.array([row[piv] for row in mat])
    if (lifted := _dixon_lift(on_piv[:r].T, on_piv[r:].T, prime)) is None:
        return None
    y, den = lifted
    # exact check of Y^T mat[:r] = den mat[r:] on the nonzeros of mat[:r],
    # one row f at a time
    on = mat.rows < r
    rows, cols, vals = mat.rows[on], mat.cols[on], mat.vals[on].astype(object)
    for j, row in enumerate(islice(mat, r, None)):
        total = -den * row.astype(object)
        np.add.at(total, cols, y[rows, j] * vals)
        if np.count_nonzero(total):
            return None
    return r


# ---------------------------------------------------------------------------
# Field dispatch
# ---------------------------------------------------------------------------

def ranks_with_prefix(mat, bounds, field: str):
    """(rank of the columns below the last bound, rank of the whole matrix,
    tiers) over the field a descriptor names: the package's one rank call.

    `mat` is a SparseMatrix, or a dense matrix read once into one;
    `bounds` is an increasing tuple of column bounds; tiers holds, for
    each bound but the last, the pivot rows below it."""
    mat = SparseMatrix.of(mat)
    if 0 in mat.shape:
        return 0, 0, ([],) * (len(bounds) - 1)
    _, p = parse_field(field)
    if p:
        return ranks_with_prefix_mod_p(mat, bounds, p)
    return rank_rational_certified(mat, bounds)


def block_ranks(blocks, field: str):
    """(rank, pivot rows) over a field of each (matrix, columns to drop) in
    blocks: the rank and tiers[0] of ranks_with_prefix(reduced, (n, n),
    field) for the reduced matrix, of n columns.  No singleton crosses
    blocks, so one _singleton_passes over the direct sum of the reduced
    matrices, built with one column mask, then _markowitz_and_core on each
    block's survivors alone give each block its own call's pivots.  Over Q
    each block is certified alone from that elimination mod DEFAULT_PRIME,
    rank_rational_certified's first prime, or else ranked alone by it."""
    _, p = parse_field(field)
    prime = p or DEFAULT_PRIME
    at = np.cumsum([(0, 0)] + [d.shape for d, _ in blocks], axis=0)
    keep = np.ones(at[-1, 1], dtype=bool)
    for (_, skip), co in zip(blocks, at[:, 1]):
        keep[np.array(skip, np.int64) + co] = False
    r, c, v = (np.concatenate([getattr(d, x) for d, _ in blocks])
               for x in ("rows", "cols", "vals"))
    shift = np.repeat(at[:-1], [d.vals.size for d, _ in blocks], axis=0)
    r, c = r + shift[:, 0], c + shift[:, 1]
    on = keep[c]
    number = np.r_[0, np.cumsum(keep)]  # the kept columns before each
    at[:, 1] = number[at[:, 1]]
    pivots, order, (r, c, v) = _singleton_passes(SparseMatrix(
        tuple(at[-1].tolist()), r[on], number[c[on]], v[on]), prime,
        np.zeros(at[-1, 1], int), 1)
    block = np.searchsorted(at[1:, 0], order, side="right")
    of = np.argsort(block, kind="stable")  # the bulk pivots, block by block
    bulk = np.split(np.array((order, pivots), np.int64).T[of], np.searchsorted(
        block[of], np.arange(1, len(blocks))))
    rest = np.split(np.stack((r, c, v), 1), np.searchsorted(r, at[1:-1, 0]))
    out = []
    for (d, skip), (ro, co), (m, n), done, left in zip(
            blocks, at.tolist(), np.diff(at, axis=0).tolist(), bulk, rest):
        rows, piv = (done - (ro, co)).T.tolist()
        if len(left):
            _markowitz_and_core(list((left - (ro, co, 0)).T), [0] * n, prime,
                                piv, rows)
        rank = len(piv)
        if not p and m and n and _certify_left_kernel(
                share := d.drop_columns(skip), prime, rank, piv,
                rows + sorted(set(range(m)) - set(rows))) is None:
            _, rank, (rows,) = rank_rational_certified(share, (n, n))
        out.append((rank, rows[:rank]))
    return out
