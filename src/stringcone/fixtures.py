"""Bundled fixture polytopes and fans used by the verification suite.

The quintic fixture is the Newton simplex of quintic threefolds (the
126-point reflexive simplex); its polar dual, the standard 5-vertex
simplex, ships as `quintic_mirror`.  With this orientation the quintic
table reads h^{1,1} = 1, h^{2,1} = 101 and the mirror is transposed.
"""

from __future__ import annotations

import itertools

from . import lattice as lat

POLYTOPE_VERTICES = {
    "diamond": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "square": [(1, 1), (1, -1), (-1, 1), (-1, -1)],
    "p2": [(1, 0), (0, 1), (-1, -1)],
    "p2_dual": [(2, -1), (-1, 2), (-1, -1)],
    "cube": sorted(itertools.product((-1, 1), repeat=3)),
    "cross": [(1, 0, 0), (-1, 0, 0), (0, 1, 0),
              (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "quartic": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    "quartic_dual": [(3, -1, -1), (-1, 3, -1), (-1, -1, 3), (-1, -1, -1)],
    "quintic": [(4, -1, -1, -1), (-1, 4, -1, -1), (-1, -1, 4, -1),
                (-1, -1, -1, 4), (-1, -1, -1, -1)],
    "quintic_mirror": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                       (0, 0, 0, 1), (-1, -1, -1, -1)],
    "segment": [(-1,), (1,)],
    "segment_m1_2": [(-1,), (2,)],
}

FAN_DATA = {
    "p1": {"rank": 1, "rays": [(1,), (-1,)], "cones": [[0], [1]]},
    "p2": {"rank": 2, "rays": [(1, 0), (0, 1), (-1, -1)],
           "cones": [[0, 1], [1, 2], [2, 0]]},
    "p112": {"rank": 2, "rays": [(1, 0), (0, 1), (-1, -2)],
             "cones": [[0, 1], [1, 2], [2, 0]]},
}

# every reflexive fixture, smallest first
REFLEXIVE_NAMES = ("segment", "diamond", "square", "p2", "p2_dual",
                   "cube", "cross", "quartic", "quartic_dual",
                   "quintic", "quintic_mirror")

# polar-dual pairs used by the mirror-duality checks
MIRROR_PAIRS = (("diamond", "square"), ("cube", "cross"),
                ("quartic", "quartic_dual"), ("quintic", "quintic_mirror"))

# the eight small reflexive fixtures, whose cones have dimension <= 4
SMALL_REFLEXIVE_NAMES = ("diamond", "square", "p2", "p2_dual",
                         "cube", "cross", "quartic", "quartic_dual")


def polytope(name: str) -> lat.LatticePolytope:
    return lat.lattice_polytope(POLYTOPE_VERTICES[name])


def reflexive_pair(name: str) -> lat.ReflexivePair:
    return lat.reflexive_pair(polytope(name))


def fan(name: str) -> lat.Fan:
    data = FAN_DATA[name]
    return lat.fan_from_rays(data["rank"], data["rays"], data["cones"])


def polytope_names() -> list[str]:
    return sorted(POLYTOPE_VERTICES)


def fan_names() -> list[str]:
    return sorted(FAN_DATA)
