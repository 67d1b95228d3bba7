"""Per-layer spans around stringcone's public functions, installed from
outside the package.

`Tracer.install()` replaces each function named in LAYERS with a wrapper
in every stringcone module namespace that binds it (and patches methods on
their classes), so internal calls through module globals are traced too.
The lru_cache objects stay in place behind the wrappers, so caching does
not change; hit ratios are read from their cache_info().

Every span records its function, layer group, start, end, parent span and
op id in memory.  A span's self time is its duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# layer group -> functions ("module:name" or "module:Class.method")
LAYERS = {
    "lattice.facets": [
        "lattice:lattice_polytope", "lattice:dual_polytope",
        "lattice:is_reflexive", "lattice:reflexive_pair",
        "lattice:gorenstein_cone_over", "lattice:cone_from_generators",
        "lattice:deg_functional"],
    "lattice.face_lattice": [
        "lattice:face_lattice", "lattice:ReflexivePair.dual_face"],
    "lattice.points": [
        "lattice:lattice_points_at_degree",
        "lattice:count_lattice_points_at_degree",
        "lattice:interior_lattice_points"],
    "lattice.subdivision": [
        "lattice:trivial_subdivision", "lattice:stellar_subdivision"],
    "intlinalg.fraction": [
        "intlinalg:rref_fraction", "intlinalg:rank_fraction",
        "intlinalg:nullspace_fraction", "intlinalg:rank_int"],
    "intlinalg.smith": [
        "intlinalg:integer_kernel", "intlinalg:solve_integer",
        "intlinalg:saturation_basis", "intlinalg:coordinates_in_basis"],
    "intlinalg.modp": [
        "intlinalg:echelon_mod_p", "intlinalg:rank_mod_p",
        "intlinalg:ranks_with_prefix_mod_p", "intlinalg:rref_mod_p"],
    "intlinalg.certify": ["intlinalg:rank_rational_certified"],
    "posets.build": [
        "posets:EulerianPoset.__init__", "posets:EulerianPoset.dual",
        "posets:poset_of_face_lattice"],
    "posets.interval": ["posets:EulerianPoset.interval"],
    "posets.gbh": [
        "posets:g_polynomial", "posets:h_polynomial",
        "posets:b_polynomial", "posets:b_via_g"],
    "polynomials.mul": [
        "polynomials:UnivariatePolynomial.__mul__",
        "polynomials:UnivariatePolynomial.__rmul__",
        "polynomials:BivariateLaurentPolynomial.__mul__",
        "polynomials:BivariateLaurentPolynomial.__rmul__"],
    "stringy.s_poly": ["stringy:s_polynomial", "stringy:s_polynomial_interior"],
    "stringy.tilde_s": ["stringy:tilde_s_polynomial",
                        "stringy:tilde_s_simplicial"],
    "stringy.e_st": ["stringy:e_st_hypersurface", "stringy:e_st_oracle",
                     "stringy:stringy_hodge_table"],
    "stringy.box": ["stringy:box_points"],
    "semigroup.assembly": [
        "semigroup:graded_quotient_dims", "semigroup:random_degree_one",
        "semigroup:logarithmic_derivatives"],
    "semigroup.regularity": ["semigroup:is_sigma_regular"],
    "koszul.build": ["koszul:build_complex"],
    "koszul.cohomology": ["koszul:cohomology_dims"],
    "koszul.compare": ["koszul:compare_with_decomposition",
                       "koszul:expected_cohomology"],
}

ROUTES = ("small", "shortcut", "dixon", "fallback")

# metric name -> unit, in report order
METRIC_UNITS = {
    "lattice.facets_self_s": "s", "lattice.nullspace_calls": "count",
    "lattice.face_lattice_self_s": "s", "lattice.faces": "count",
    "lattice.points_self_s": "s", "lattice.points_found": "count",
    "lattice.point_hit_ratio": "ratio", "lattice.cache_hit_ratio": "ratio",
    "intlinalg.fraction_self_s": "s", "intlinalg.fraction_calls": "count",
    "intlinalg.smith_self_s": "s", "intlinalg.modp_self_s": "s",
    "intlinalg.modp_calls": "count", "intlinalg.modp_cells": "count",
    "intlinalg.modp_density": "ratio", "intlinalg.certify_self_s": "s",
    **{f"intlinalg.route.{r}": "count" for r in ROUTES},
    "intlinalg.elims_per_certified_rank": "ratio",
    "posets.build_self_s": "s", "posets.interval_self_s": "s",
    "posets.intervals": "count", "posets.gbh_self_s": "s",
    "polynomials.mul_self_s": "s", "polynomials.mul_calls": "count",
    "stringy.s_poly_self_s": "s", "stringy.tilde_s_self_s": "s",
    "stringy.e_st_self_s": "s", "stringy.cache_hit_ratio": "ratio",
    "stringy.box_self_s": "s", "stringy.box_points": "count",
    "stringy.box_hit_ratio": "ratio",
    "semigroup.assembly_self_s": "s", "semigroup.regularity_self_s": "s",
    "semigroup.reseeds": "count",
    "koszul.build_self_s": "s", "koszul.cohomology_self_s": "s",
    "koszul.space_dim": "count", "koszul.blocks": "count",
    "trace.overhead_ratio": "ratio",
}

# groups whose self time is reported as <group>_self_s
SELF_TIME_GROUPS = [k[:-len("_self_s")] for k in METRIC_UNITS
                    if k.endswith("_self_s")]

# span record fields
NAME, GROUP, START, END, PARENT, OP, INFO = range(7)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _resolve(spec):
    """'module:Class.method' -> (owner object, attribute name)."""
    mod_name, path = spec.split(":")
    owner = importlib.import_module(f"stringcone.{mod_name}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def _box_cells(generators, k) -> int:
    """Cells of the bounding box scanned for the degree-k slice."""
    cells = 1
    for column in zip(*generators):
        cells *= k * (max(column) - min(column)) + 1
    return cells


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.caches: dict[str, list] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer in ("lattice", "stringy"):
            mod = importlib.import_module(f"stringcone.{layer}")
            self.caches[layer] = [v for v in vars(mod).values()
                                  if hasattr(v, "cache_info")]
        modules = [m for name, m in list(sys.modules.items())
                   if name == "stringcone" or name.startswith("stringcone.")]
        for group, specs in LAYERS.items():
            for spec in specs:
                owner, attr = _resolve(spec)
                orig = getattr(owner, attr)
                wrapper = self.wrap(attr, group, orig)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)

    def wrap(self, name, group, fn):
        """fn, recording a span of the given name and group per call."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, group, 0.0, 0.0, stack[-1] if stack else -1,
                   self.op_id, None]
            if before is not None:
                rec[INFO] = before(fn, args, kwargs, spans, rec)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                rec[INFO] = after(fn, args, kwargs, result, rec[INFO])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op_id: int, label: str, fn):
        """Run one op under a root span."""
        self.op_id = op_id
        return self.wrap(label, "op", fn)()

    # -- aggregation --------------------------------------------------------

    def metrics(self, reseeds: int) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
                children[s[PARENT]].append(i)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        m = defaultdict(float)
        for i, s in enumerate(spans):
            g = s[GROUP]
            self_time[g] += s[END] - s[START] - child_time[i]
            outer = s[PARENT] < 0 or spans[s[PARENT]][GROUP] != g
            calls[g] += outer
            info = s[INFO]
            name = s[NAME]
            if name == "nullspace_fraction":
                m["lattice.nullspace_calls"] += 1
            elif g == "lattice.points" and info:
                m["lattice.points_found"] += info["found"]
                m["cells"] += info["cells"]
            elif name == "face_lattice" and info:
                m["lattice.faces"] += info["faces"]
            elif g == "intlinalg.modp" and outer:
                m["intlinalg.modp_cells"] += info["cells"]
                m["nnz"] += info["nnz"]
            elif name == "box_points":
                m["stringy.box_points"] += info["box"]
                m["examined"] += sum(
                    spans[c][INFO]["n"] for c in children[i]
                    if spans[c][NAME] == "lattice_points_at_degree")
            elif name == "build_complex":
                m["koszul.space_dim"] += info["space"]
                m["koszul.blocks"] += info["blocks"]
            elif name == "interval":
                m["posets.intervals"] += any(
                    spans[c][GROUP] == "posets.build" for c in children[i])
            elif name == "rank_rational_certified":
                kids = [spans[c] for c in children[i]]
                elims = sum(k[GROUP] == "intlinalg.modp" for k in kids)
                m["elims"] += elims
                m[f"intlinalg.route.{_route(kids, elims)}"] += 1
        out = {f"{g}_self_s": self_time[g] for g in SELF_TIME_GROUPS}
        for g, key in (("intlinalg.fraction", "intlinalg.fraction_calls"),
                       ("intlinalg.modp", "intlinalg.modp_calls"),
                       ("polynomials.mul", "polynomials.mul_calls")):
            out[key] = calls[g]
        certified = calls["intlinalg.certify"]
        for key in ("lattice.nullspace_calls", "lattice.faces",
                    "lattice.points_found", "intlinalg.modp_cells",
                    "posets.intervals", "stringy.box_points",
                    "koszul.space_dim", "koszul.blocks",
                    *(f"intlinalg.route.{r}" for r in ROUTES)):
            out[key] = int(m[key])
        out["lattice.point_hit_ratio"] = _ratio(m["lattice.points_found"],
                                                m["cells"])
        out["intlinalg.modp_density"] = _ratio(m["nnz"],
                                               m["intlinalg.modp_cells"])
        out["intlinalg.elims_per_certified_rank"] = _ratio(m["elims"],
                                                           certified)
        out["stringy.box_hit_ratio"] = _ratio(m["stringy.box_points"],
                                              m["examined"])
        for layer in ("lattice", "stringy"):
            infos = [c.cache_info() for c in self.caches[layer]]
            out[f"{layer}.cache_hit_ratio"] = _ratio(
                sum(i.hits for i in infos),
                sum(i.hits + i.misses for i in infos))
        out["semigroup.reseeds"] = reseeds
        return out

    def dump(self, path) -> None:
        """Write the spans as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "group": s[GROUP],
                                     "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP]}))
                fh.write("\n")


def _route(kids, elims) -> str:
    """Certification route of one rank_rational_certified call, read off
    its child spans: Fraction elimination only, one mod-p elimination,
    Dixon lifting (rref_mod_p), or eliminations then Fraction."""
    ends_in_fraction = bool(kids) and kids[-1][GROUP] == "intlinalg.fraction"
    if elims == 0:
        return "small"
    if ends_in_fraction:
        return "fallback"
    if any(k[NAME] == "rref_mod_p" for k in kids):
        return "dixon"
    return "shortcut"


# -- size probes: before(fn, args, kwargs, spans, rec) and
#    after(fn, args, kwargs, result, before_info) ---------------------------

def _misses(fn, args, kwargs, spans, rec):
    return fn.cache_info().misses


def _points_after(fn, args, kwargs, result, misses_before):
    n = result if isinstance(result, int) else len(result)
    info = {"n": n, "found": 0, "cells": 0}
    cone = args[0]
    k = args[1] if len(args) > 1 else kwargs["k"]
    if fn.cache_info().misses > misses_before and k > 0 and cone.generators:
        info["found"] = n
        info["cells"] = _box_cells(cone.generators, k)
    return info


def _interior_after(fn, args, kwargs, result, _):
    n = len(result)
    return {"n": n, "found": n, "cells": _box_cells(args[0].vertices, 1)}


def _face_lattice_after(fn, args, kwargs, result, misses_before):
    if fn.cache_info().misses > misses_before:
        return {"faces": len(result.faces)}
    return None


def _modp_before(fn, args, kwargs, spans, rec):
    parent = rec[PARENT]
    if parent >= 0 and spans[parent][GROUP] == "intlinalg.modp":
        return None
    mat = args[0]
    if isinstance(mat, np.ndarray):
        return {"cells": int(mat.size), "nnz": int(np.count_nonzero(mat))}
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    return {"cells": rows * cols,
            "nnz": sum(1 for row in mat for x in row if x)}


_BEFORE = {
    "lattice_points_at_degree": _misses,
    "count_lattice_points_at_degree": _misses,
    "face_lattice": _misses,
    "echelon_mod_p": _modp_before,
    "rank_mod_p": _modp_before,
    "ranks_with_prefix_mod_p": _modp_before,
    "rref_mod_p": _modp_before,
}

_AFTER = {
    "lattice_points_at_degree": _points_after,
    "count_lattice_points_at_degree": _points_after,
    "interior_lattice_points": _interior_after,
    "face_lattice": _face_lattice_after,
    "box_points": lambda fn, a, kw, result, _: {"box": result.total()},
    "build_complex": lambda fn, a, kw, result, _: {
        "space": result.space.total_dim(), "blocks": len(result.blocks)},
}
