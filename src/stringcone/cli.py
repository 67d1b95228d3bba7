"""Command-line interface.

Subcommands operate on the JSON file formats from `serialize` and print
deterministic JSON (or plain text with --format text, where offered;
each option is offered only where it is read).  Exit codes:
0 success, 1 failed verification, 2 input or domain error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import fixtures as fx
from . import intlinalg as la
from . import koszul as kz
from . import lattice as lat
from . import posets as po
from . import semigroup as sg
from . import serialize as ser
from . import stringy as st
from . import verify as vf
from .errors import ParseError, StringConeError


def _load_pair(path: str) -> lat.ReflexivePair:
    return lat.reflexive_pair(ser.load_polytope(path))


def _cmd_dual(args):
    p = ser.load_polytope(args.polytope)
    dual = lat.dual_polytope(p)
    if args.fmt == "text":
        return "\n".join(" ".join(str(x) for x in v) for v in dual.vertices)
    return ser.dump_rational_polytope(dual)


def _cmd_check_reflexive(args):
    p = ser.load_polytope(args.polytope)
    verdict = lat.is_reflexive(p)
    if args.fmt == "text":
        return "true" if verdict else "false"
    return json.dumps({"reflexive": verdict})


def _cmd_faces(args):
    cone = lat.gorenstein_cone_over(ser.load_polytope(args.polytope))
    fl = lat.face_lattice(cone)
    faces = [{"dim": f.dim,
              "generators": [list(g) for g in f.generator_vectors()]}
             for f in fl.faces]
    if args.fmt == "text":
        lines = [f"{len(fl.faces)} faces of a dim-{cone.dim} cone"]
        lines += [f"  dim {f['dim']}: {f['generators']}" for f in faces]
        return "\n".join(lines)
    return json.dumps({"cone_dim": cone.dim, "faces": faces}, sort_keys=True)


def _cmd_s_poly(args):
    cone = lat.gorenstein_cone_over(ser.load_polytope(args.polytope))
    return ser.dump_univariate(st.s_polynomial(cone))


def _cmd_tilde_s(args):
    cone = lat.gorenstein_cone_over(ser.load_polytope(args.polytope))
    return ser.dump_univariate(st.tilde_s_polynomial(cone))


def _cmd_g_poly(args):
    cone = lat.gorenstein_cone_over(ser.load_polytope(args.polytope))
    return ser.dump_univariate(po.g_polynomial(lat.face_lattice(cone).poset))


def _cmd_b_poly(args):
    cone = lat.gorenstein_cone_over(ser.load_polytope(args.polytope))
    return ser.dump_bivariate(po.b_polynomial(lat.face_lattice(cone).poset))


def _e_st_from_args(args):
    if args.toric:
        fan = ser.load_fan(args.toric)
        return st.e_st_toric(fan), fan.rank
    pair = _load_pair(args.hypersurface)
    return st.e_st_hypersurface(pair), pair.cone.dim - 2


def _cmd_e_st(args):
    e_poly, _ = _e_st_from_args(args)
    return ser.dump_bivariate(e_poly)


def _cmd_hodge(args):
    e_poly, dim = _e_st_from_args(args)
    table = st.stringy_hodge_table(e_poly, dim)
    return ser.dump_hodge_table(table)


def _cmd_box(args):
    cone = lat.gorenstein_cone_over(ser.load_polytope(args.polytope))
    table = st.box_points(cone)
    return json.dumps(
        {"shifts": {str(l): [list(p) for p in pts]
                    for l, pts in sorted(table.by_shift.items())}},
        sort_keys=True)


def _cmd_ring_dims(args):
    cone = lat.gorenstein_cone_over(ser.load_polytope(args.polytope))
    sub = None
    if args.subdivide:
        sub = lat.regular_subdivision(cone, ser.load_heights(args.subdivide))
    g = sg.random_degree_one(cone, args.seed, field=args.field)
    report = sg.graded_quotient_dims(g, sub, seed=args.seed)
    return ser.dump_quotient_report(report)


def _cmd_koszul(args):
    pair = _load_pair(args.polytope)
    sub = None
    if args.subdivide:
        sub = lat.regular_subdivision(pair.dual,
                                      ser.load_heights(args.subdivide))
    f = sg.random_degree_one(pair.cone, args.seed, field=args.field)
    g = sg.random_degree_one(pair.dual, args.seed + 17, field=args.field)
    report = kz.compare_with_decomposition(pair, f, g, cap=args.cap,
                                           dual_subdivision=sub)
    return ser.dump_koszul_report(report)


def _cmd_subdivide(args):
    cone = lat.gorenstein_cone_over(ser.load_polytope(args.polytope))
    sub = lat.regular_subdivision(cone, ser.load_heights(args.heights),
                                  force_generic=args.generic)
    return ser.dump_subdivision(sub)


def run(args):
    """Execute a parsed command line; returns (exit_code, output_text)."""
    handlers = {
        "dual": _cmd_dual,
        "check-reflexive": _cmd_check_reflexive,
        "faces": _cmd_faces,
        "s-poly": _cmd_s_poly,
        "tilde-s": _cmd_tilde_s,
        "g-poly": _cmd_g_poly,
        "b-poly": _cmd_b_poly,
        "e-st": _cmd_e_st,
        "hodge": _cmd_hodge,
        "box": _cmd_box,
        "ring-dims": _cmd_ring_dims,
        "koszul": _cmd_koszul,
        "subdivide": _cmd_subdivide,
        "fixtures": _cmd_fixtures,
    }
    if args.command == "verify":
        lines, ok = vf.run_criteria(args.criteria)
        return (0 if ok else 1), "\n".join(lines)
    return 0, handlers[args.command](args)


def _cmd_fixtures(args):
    """Write the bundled fixture files into a directory."""
    target = pathlib.Path(args.dump or "fixtures")
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name in fx.polytope_names():
        path = target / f"{name}.json"
        path.write_text(ser.dump_polytope(fx.polytope(name)) + "\n")
        written.append(str(path))
    for name in fx.fan_names():
        path = target / f"fan_{name}.json"
        path.write_text(ser.dump_fan(fx.fan(name)) + "\n")
        written.append(str(path))
    return "\n".join(written)


def _criteria(text: str):
    """None for "all", else the list of verify.CRITERIA keys named."""
    if text == "all":
        return None
    keys = text.split(",")
    unknown = [k for k in keys if k not in vf.CRITERIA]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown criteria {', '.join(unknown)}; valid keys: all, "
            + ", ".join(vf.CRITERIA))
    return keys


def build_parser() -> argparse.ArgumentParser:
    # ring-dims and koszul: a polytope, its heights, a random element
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("polytope")
    seeded.add_argument("--subdivide", metavar="HEIGHTS", default=None)
    seeded.add_argument("--seed", type=int, default=0)
    seeded.add_argument("--field", default=sg.DEFAULT_FIELD,
                        help='"rational" or "prime:<p>" with '
                             f'{la.MIN_FIELD_CHAR} <= p < 2**22 prime')
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", dest="fmt", choices=("json", "text"),
                           default="json")
    parser = argparse.ArgumentParser(
        prog="stringcone",
        description="Exact stringy invariants of reflexive polytopes")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("dual", "check-reflexive", "faces"):
        sub.add_parser(name, parents=[formatted]).add_argument("polytope")
    for name in ("s-poly", "tilde-s", "g-poly", "b-poly", "box"):
        sub.add_parser(name).add_argument("polytope")

    for name in ("e-st", "hodge"):
        p = sub.add_parser(name)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--hypersurface", metavar="POLYTOPE")
        group.add_argument("--toric", metavar="FAN")

    sub.add_parser("ring-dims", parents=[seeded])
    sub.add_parser("koszul", parents=[seeded]).add_argument(
        "--cap", type=int, default=None)

    p = sub.add_parser("subdivide")
    p.add_argument("polytope")
    p.add_argument("--heights", required=True)
    p.add_argument("--generic", action="store_true")

    p = sub.add_parser("verify")
    p.add_argument("--criteria", type=_criteria, default=None,
                   help='"all" (default) or comma-separated criterion keys')

    p = sub.add_parser("fixtures")
    p.add_argument("--dump", default="fixtures", metavar="DIR")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, output = run(args)
    except ParseError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2
    except StringConeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"OSError: {exc}", file=sys.stderr)
        return 2
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
