"""Reference implementations that share no code with what they check.

`point_in_cone` tests one point against the equations and facets in
Python integers.  `slice_scan` is the bounding-box scan that lattice_points_at_degree used
before it enumerated half-open box classes: each facet functional is
broadcast over the per-axis coordinate ranges of the degree-k box of the
generators.  Its cost depends on the basis; its answer does not.
"""

import math

import numpy as np

from stringcone import intlinalg as la
from stringcone.errors import DimensionBudgetExceeded
from stringcone.lattice import _BOX_BUDGET, _check_int64


def point_in_cone(cone, x, strict: bool = False) -> bool:
    if any(la.dot(e, x) != 0 for e in cone.equations):
        return False
    if strict:
        return all(la.dot(f, x) > 0 for f in cone.facets)
    return all(la.dot(f, x) >= 0 for f in cone.facets)


def slice_scan(cone, k: int, interior: bool):
    if k < 0:
        raise ValueError("degree must be nonnegative")
    origin = (tuple([0] * cone.ambient_rank),)
    if not cone.generators:
        return origin if k == 0 else ()
    if k == 0:
        return origin if not interior or not cone.facets else ()
    lo = [k * min(column) for column in zip(*cone.generators)]
    hi = [k * max(column) for column in zip(*cone.generators)]
    shape = [h - l + 1 for l, h in zip(lo, hi)]
    size = math.prod(shape)
    if size > _BOX_BUDGET:
        raise DimensionBudgetExceeded(f"bounding box of size {size}")
    _check_int64((cone.deg,) + cone.equations + cone.facets, (lo, hi),
                 cone.ambient_rank)
    axes = np.ix_(*(np.arange(l, h + 1, dtype=np.int64)
                    for l, h in zip(lo, hi)))

    def values(f):
        total = np.zeros(shape, dtype=np.int64)  # the one full-box array
        for c, x in zip(f, axes):
            if c:
                total += c * x
        return total

    mask = values(cone.deg) == k
    for e in cone.equations:
        mask &= values(e) == 0
    for f in cone.facets:
        mask &= (values(f) > 0) if interior else (values(f) >= 0)
    return tuple(map(tuple, (np.argwhere(mask) + lo).tolist()))
