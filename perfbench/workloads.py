"""Workload inputs, operations and output checks.

Inputs are plain vertex or generator lists built here with integer
arithmetic; no stringcone call is used to make them.  The workload seed
picks the signed permutation of the hodge batch, the symmetry-equivalent
faces of the box batch and the degree-one seeds of ring-dims and koszul.
The ops of a batch and their order are fixed, so that runs with different
seeds do the same work: with a seeded order, which op paid for a shared
cache entry and how fragmented the heap was at the largest allocation
both moved with the seed.

An op is a zero-argument callable that runs the public API of stringcone
and returns a plain value; its check compares that value with a golden
answer after the clock has stopped.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import stringcone as sc
from stringcone.errors import NotGenericAfterRetries

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# ---------------------------------------------------------------------------
# Plain-integer inputs
# ---------------------------------------------------------------------------

POLYGONS = {
    "diamond": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "square": [(1, 1), (1, -1), (-1, 1), (-1, -1)],
    "p2": [(1, 0), (0, 1), (-1, -1)],
    "p2_dual": [(2, -1), (-1, 2), (-1, -1)],
}

POLYTOPES_3D = {
    "cube": sorted(itertools.product((-1, 1), repeat=3)),
    "cross": [(1, 0, 0), (-1, 0, 0), (0, 1, 0),
              (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "quartic": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    "quartic_dual": [(3, -1, -1), (-1, 3, -1), (-1, -1, 3), (-1, -1, -1)],
}

# weights of P(w) whose degree-sum(w) Newton polytope is a 4-simplex,
# with the literature (h11, h21) of the Calabi-Yau hypersurface:
# Klemm-Theisen 1993 for the one-modulus cases, Candelas-de la Ossa-Font-
# Katz-Morrison 1994 for P(1,1,2,2,2) and P(1,1,2,2,6)
WEIGHTED_SIMPLICES = {
    "P11111": ((1, 1, 1, 1, 1), (1, 101)),
    "P11112": ((1, 1, 1, 1, 2), (1, 103)),
    "P11222": ((1, 1, 2, 2, 2), (2, 86)),
    "P11114": ((1, 1, 1, 1, 4), (1, 149)),
    "P11125": ((1, 1, 1, 2, 5), (1, 145)),
    "P11226": ((1, 1, 2, 2, 6), (2, 128)),
}

# products of reflexive polygons: the 4-cube is the Newton polytope of
# (P1)^4 and p2_dual x p2_dual that of the bicubic in P2 x P2
PRODUCTS = {
    "cube4": (("square", "square"), (4, 68)),
    "bicubic": (("p2_dual", "p2_dual"), (2, 83)),
}


def newton_simplex(weights) -> list[tuple[int, ...]]:
    """Vertices of the Newton polytope of the degree-sum(w) hypersurface
    in P(w), shifted by (1,...,1) and written in the lattice basis
    e_i - w_i e_0 (i = 1..4) of {x : w.x = 0}.  Needs w_0 = 1 and every
    w_i dividing sum(w)."""
    d = sum(weights)
    if weights[0] != 1 or any(d % w for w in weights):
        raise ValueError(f"P{weights} has no simplex Newton polytope")
    verts = []
    for i, w in enumerate(weights):
        m = [0] * len(weights)
        m[i] = d // w
        verts.append(tuple(x - 1 for x in m[1:]))
    return verts


def polygon_product(a: str, b: str) -> list[tuple[int, ...]]:
    return [u + v for u in POLYGONS[a] for v in POLYGONS[b]]


def cone_generators(vertices) -> list[tuple[int, ...]]:
    return [tuple(v) + (1,) for v in vertices]


def unimodular_transform(rng: random.Random, rank: int):
    """The elementary shear x_0 -= x_1 followed by a seeded signed
    permutation of the coordinates, as a function on vertex lists.

    The shear doubles the degree-k bounding box of every polytope of the
    hodge batch (that is what a bounding-box scan pays for a skewed
    basis).  It is the same for every seed, so every seed scans boxes of
    the same sizes (a signed permutation keeps them); the seed changes
    only how the sheared polytopes are presented."""
    perm = list(range(rank))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(rank)]

    def apply(vertices):
        out = []
        for v in vertices:
            sheared = (v[0] - v[1],) + tuple(v[1:])
            out.append(tuple(signs[i] * sheared[perm[i]] for i in range(rank)))
        return out

    return apply


def cy3_table(h11: int, h21: int) -> dict:
    """Hodge diamond of a Calabi-Yau threefold with h10 = h20 = 0."""
    return {(0, 0): 1, (3, 3): 1, (3, 0): 1, (0, 3): 1,
            (1, 1): h11, (2, 2): h11, (2, 1): h21, (1, 2): h21}


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One call into stringcone and the answer it must give."""

    label: str
    run: Callable[[], object]
    expected: object
    reseeds: int = 0


def _hodge_op(label, vertices, h11, h21) -> Op:
    def run():
        pair = sc.reflexive_pair(sc.lattice_polytope(vertices))
        e_st = sc.e_st_hypersurface(pair)
        return sc.stringy_hodge_table(e_st, 3).as_dict()
    return Op(label, run, cy3_table(h11, h21))


def _box_op(label, generators, expected) -> Op:
    def run():
        cone = sc.cone_from_generators(generators, len(generators[0]))
        table = sc.box_points(cone)
        return {l: len(pts) for l, pts in table.by_shift.items()}
    return Op(label, run, {int(l): n for l, n in expected.items()})


def _ring_dims_op(label, vertices, stellar, field_, seed, expected,
                  retries=5) -> Op:
    """Criterion 6's reseed loop: draw degree-one elements until the
    quotient is finite at the degree cutoff."""
    op = Op(label, None, expected)

    def run():
        cone = sc.gorenstein_cone_over(sc.lattice_polytope(vertices))
        sub = (sc.stellar_subdivision(cone) if stellar
               else sc.trivial_subdivision(cone))
        for attempt in range(retries):
            g = sc.random_degree_one(cone, seed + 1000 * attempt, field=field_)
            rep = sc.graded_quotient_dims(g, sub, seed=seed)
            if rep.regular_profile and rep.top_degree_dims == (0, 0):
                op.reseeds += attempt
                return [list(rep.dims_R0), list(rep.dims_R1)]
        op.reseeds += retries
        raise NotGenericAfterRetries(
            f"{label}: no regular element after {retries} draws")

    op.run = run
    return op


def _koszul_op(label, vertices, stellar, seed) -> Op:
    def run():
        pair = sc.reflexive_pair(sc.lattice_polytope(vertices))
        f = sc.random_degree_one(pair.cone, seed)
        g = sc.random_degree_one(pair.dual, seed + 17)
        sub = sc.stellar_subdivision(pair.dual) if stellar else None
        return sc.compare_with_decomposition(
            pair, f, g, dual_subdivision=sub).matches
    return Op(label, run, True)


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

def hodge_batch(rng: random.Random, goldens: dict, small: bool) -> list[Op]:
    """Six weighted-projective Newton simplices (lattice-point counting)
    and two polygon products, one with 16 vertices (facets, posets), all
    sheared and then moved by one seeded signed permutation."""
    transform = unimodular_transform(rng, 4)
    ops = []
    for name, (weights, (h11, h21)) in WEIGHTED_SIMPLICES.items():
        ops.append(_hodge_op(name, transform(newton_simplex(weights)),
                             h11, h21))
    for name, ((a, b), (h11, h21)) in PRODUCTS.items():
        ops.append(_hodge_op(name, transform(polygon_product(a, b)),
                             h11, h21))
    return ops[:1] if small else ops


def _face_ops(name, generators, faces, goldens):
    ops = []
    for face in faces:
        key = f"{name}:{','.join(map(str, face))}"
        ops.append(_box_op(key, [generators[i] for i in face],
                           goldens["box"][key]))
    return ops


def box_faces(n_vertices: int, size: int):
    return list(itertools.combinations(range(n_vertices), size))


# in run order: the quintic's Newton simplex top cone (most of the batch
# time) runs last, so that the garbage collector's passes over the points
# it leaves cached do not land in the shorter ops; the median op is one of
# the five facets of that simplex
BOX_FACES = {
    "quintic_mirror": [tuple(range(5))],
    "quartic_dual": [tuple(range(4))],
    "P11111": box_faces(5, 4) + [tuple(range(5))],
}

# one seeded 3-face; the faces of the list are equivalent up to a lattice
# automorphism, so the choice does not change the work
BOX_SEEDED_FACES = {
    "P11111": box_faces(5, 3),
}


def box_simplex_generators() -> dict:
    quintic_mirror = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                      (0, 0, 0, 1), (-1, -1, -1, -1)]
    return {
        "P11111": cone_generators(newton_simplex(WEIGHTED_SIMPLICES["P11111"][0])),
        "quartic_dual": cone_generators(POLYTOPES_3D["quartic_dual"]),
        "quintic_mirror": cone_generators(quintic_mirror),
    }


def box_batch(rng: random.Random, goldens: dict, small: bool) -> list[Op]:
    """Simplicial face cones of Gorenstein cones over 3-d and 4-d
    simplices, the top cone of the quintic's Newton simplex included."""
    gens = box_simplex_generators()
    if small:
        return _face_ops("quintic_mirror", gens["quintic_mirror"],
                         BOX_FACES["quintic_mirror"], goldens)
    ops = []
    for name, faces in BOX_SEEDED_FACES.items():
        ops += _face_ops(name, gens[name], [rng.choice(faces)], goldens)
    for name, faces in BOX_FACES.items():
        ops += _face_ops(name, gens[name], faces, goldens)
    return ops


# (cone, stellar?, field) of the 3-d fixtures; every 2-d cone runs all four
RING_DIMS_3D = [
    ("cross", False, "prime"), ("cross", True, "prime"),
    ("cross", False, "rational"), ("cross", True, "rational"),
    ("quartic", False, "prime"), ("quartic", True, "prime"),
    ("quartic", False, "rational"), ("quartic", True, "rational"),
    ("cube", False, "prime"), ("cube", True, "rational"),
    ("quartic_dual", True, "prime"),
]


def _field(kind: str) -> str:
    return sc.semigroup.DEFAULT_FIELD if kind == "prime" else "rational"


def ring_dims_batch(rng: random.Random, goldens: dict, small: bool) -> list[Op]:
    """Graded quotient dimensions of the cones over the 2-d and 3-d
    fixtures, with trivial and stellar subdivisions, on the prime and the
    certified rational backend."""
    combos = [(name, stellar, kind) for name in POLYGONS
              for stellar in (False, True) for kind in ("prime", "rational")]
    combos += RING_DIMS_3D
    if small:
        combos = combos[:1]
    vertices = {**POLYGONS, **POLYTOPES_3D}
    ops = []
    for name, stellar, kind in combos:
        seed = rng.randrange(10**6)
        sub = "stellar" if stellar else "trivial"
        g = goldens["ring_dims"][name]
        ops.append(_ring_dims_op(f"{name}/{sub}/{kind}/{seed}", vertices[name],
                                 stellar, _field(kind), seed,
                                 [g["s"], g["tilde_s"]]))
    return ops


KOSZUL_SEEDS_PER_CASE = 3


def koszul_batch(rng: random.Random, goldens: dict, small: bool) -> list[Op]:
    """The paired-monomial complex of the 2-d reflexive pairs, without and
    with a stellar subdivision of the dual cone."""
    ops = []
    for name, vertices in POLYGONS.items():
        for stellar in (False, True):
            for _ in range(KOSZUL_SEEDS_PER_CASE):
                seed = rng.randrange(10**6)
                sub = "stellar" if stellar else "none"
                ops.append(_koszul_op(f"{name}/{sub}/{seed}", vertices,
                                      stellar, seed))
    return ops[:1] if small else ops


BATCHES = {
    "hodge": hodge_batch,
    "box": box_batch,
    "ring-dims": ring_dims_batch,
    "koszul": koszul_batch,
}


def make_batch(workload: str, seed: int, small: bool = False) -> list[Op]:
    """The ops of one batch, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    return BATCHES[workload](rng, load_goldens(), small)
