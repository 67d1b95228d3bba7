"""JSON file formats: polytopes, fans, heights, polynomials, tables,
reports.  Coefficients serialize as decimal strings so nothing is lost;
output is deterministic (sorted keys, fixed term order).
"""

from __future__ import annotations

import json

from .errors import ParseError
from .lattice import Fan, FanSubdivision, LatticePolytope, RationalPolytope
from .polynomials import BivariateLaurentPolynomial, UnivariatePolynomial


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _require(data, field, kind, path):
    """data[field], of exactly the JSON kind int or list: true, 1.0 and
    "1" are not ints here."""
    if field not in data:
        raise ParseError(f"{path}: missing field {field!r}")
    if type(data[field]) is not kind:
        raise ParseError(f"{path}: field {field!r} has the wrong type")
    return data[field]


def _integers(values, field, path) -> tuple:
    """A list of JSON integers as a tuple; a bool, float or string in it
    is a ParseError, never truncated."""
    if type(values) is not list or any(type(x) is not int for x in values):
        raise ParseError(f"{path}: field {field!r} holds {values!r}, "
                         f"not a list of integers")
    return tuple(values)


def load_polytope(path: str) -> LatticePolytope:
    from . import lattice as lat
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected an object")
    rank = _require(data, "rank", int, path)
    verts = [_integers(v, "vertices", path)
             for v in _require(data, "vertices", list, path)]
    if any(len(v) != rank for v in verts):
        raise ParseError(f"{path}: vertex length does not match rank {rank}")
    try:
        return lat.lattice_polytope(verts)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def dump_polytope(p: LatticePolytope) -> str:
    return json.dumps({"rank": p.rank, "vertices": [list(v) for v in p.vertices]},
                      sort_keys=True)


def dump_rational_polytope(p: RationalPolytope) -> str:
    verts = []
    for v in p.vertices:
        verts.append([str(x) if x.denominator != 1 else str(int(x)) for x in v])
    return json.dumps({"rank": p.rank, "vertices": verts}, sort_keys=True)


def load_fan(path: str) -> Fan:
    from . import lattice as lat
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected an object")
    rank = _require(data, "rank", int, path)
    ray_vecs = [_integers(r, "rays", path)
                for r in _require(data, "rays", list, path)]
    cone_idx = [_integers(c, "cones", path)
                for c in _require(data, "cones", list, path)]
    if any(len(r) != rank for r in ray_vecs):
        raise ParseError(f"{path}: ray length does not match rank {rank}")
    if any(i < 0 or i >= len(ray_vecs) for c in cone_idx for i in c):
        raise ParseError(f"{path}: cone ray index out of range")
    try:
        return lat.fan_from_rays(rank, ray_vecs, cone_idx)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def dump_fan(fan: Fan) -> str:
    rays = sorted({g for c in fan.max_cones for g in c.generators})
    idx = {r: i for i, r in enumerate(rays)}
    cones = [sorted(idx[g] for g in c.generators) for c in fan.max_cones]
    return json.dumps({"rank": fan.rank, "rays": [list(r) for r in rays],
                       "cones": cones}, sort_keys=True)


def load_heights(path: str) -> tuple[int, ...]:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected an object")
    return _integers(_require(data, "heights", list, path), "heights", path)


def dump_subdivision(sub: FanSubdivision) -> str:
    rays = sorted({g for c in sub.max_cones for g in c.generators})
    idx = {r: i for i, r in enumerate(rays)}
    cones = [sorted(idx[g] for g in c.generators) for c in sub.max_cones]
    prov = [str(x) for x in sub.provenance[:1]] + [
        list(x) if isinstance(x, tuple) else x for x in sub.provenance[1:]]
    return json.dumps({
        "rank": sub.parent.ambient_rank,
        "rays": [list(r) for r in rays],
        "cones": cones,
        "provenance": prov,
    }, sort_keys=True)


def dump_bivariate(p: BivariateLaurentPolynomial) -> str:
    terms = [{"u": a, "v": b, "c": str(c)} for (a, b), c in p.terms.items()]
    return json.dumps({"vars": ["u", "v"], "terms": terms}, sort_keys=True)


def dump_univariate(p: UnivariatePolynomial) -> str:
    terms = [{"t": k, "c": str(c)} for k, c in enumerate(p.coeffs) if c]
    return json.dumps({"vars": ["t"], "terms": terms}, sort_keys=True)


def dump_hodge_table(table) -> str:
    entries = [{"p": p, "q": q, "h": h} for (p, q), h in table.entries]
    return json.dumps({"dimension": table.dimension, "entries": entries},
                      sort_keys=True)


def dump_quotient_report(report) -> str:
    return json.dumps({
        "dims_R0": list(report.dims_R0),
        "dims_R1": list(report.dims_R1),
        "seed": report.seed,
        "field": report.field,
        "subdivision": [list(x) if isinstance(x, tuple) else x
                        for x in report.subdivision],
        "top_degree_dims": list(report.top_degree_dims),
        "regular_profile": report.regular_profile,
    }, sort_keys=True)


def dump_koszul_report(report) -> str:
    return json.dumps({
        "matches": report.matches,
        "computed": {f"{s},{t}": d for (s, t), d in sorted(report.computed.items())},
        "expected": {f"{s},{t}": d for (s, t), d in sorted(report.expected.items())},
    }, sort_keys=True)
