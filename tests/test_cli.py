"""File formats and the command-line interface."""

import json
import pathlib
import random
import re
import time
import tracemalloc

import pytest

from stringcone import cli
from stringcone import fixtures as fx
from stringcone import koszul as kz
from stringcone import lattice as lat
from stringcone import semigroup as sg
from stringcone import serialize as ser
from stringcone import stringy as st
from stringcone.errors import ParseError
from stringcone.polynomials import BivariateLaurentPolynomial as B


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("fx")
    code = cli.main(["fixtures", "--dump", str(target)])
    assert code == 0
    return target


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


# -- round-trips -----------------------------------------------------------------

def test_polytope_roundtrip(tmp_path):
    p = fx.polytope("quartic")
    path = tmp_path / "q.json"
    path.write_text(ser.dump_polytope(p))
    assert ser.load_polytope(str(path)) == p


def test_fan_roundtrip(tmp_path):
    fan = fx.fan("p112")
    path = tmp_path / "f.json"
    path.write_text(ser.dump_fan(fan))
    loaded = ser.load_fan(str(path))
    assert loaded.max_cones == fan.max_cones


def test_polynomial_roundtrip():
    e = st.e_st_hypersurface(fx.reflexive_pair("diamond"))
    data = json.loads(ser.dump_bivariate(e))
    assert data["vars"] == ["u", "v"]
    assert B({(t["u"], t["v"]): int(t["c"]) for t in data["terms"]}) == e
    s = st.s_polynomial(lat.gorenstein_cone_over(fx.polytope("cube")))
    data = json.loads(ser.dump_univariate(s))
    assert data["vars"] == ["t"]
    assert {t["t"]: int(t["c"]) for t in data["terms"]} == \
        {k: c for k, c in enumerate(s.coeffs) if c}


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        ser.load_polytope(str(bad))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"rank": 2}))
    with pytest.raises(ParseError):
        ser.load_polytope(str(missing))
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"rank": 3, "vertices": [[1, 0]]}))
    with pytest.raises(ParseError):
        ser.load_polytope(str(short))


# -- subcommands -----------------------------------------------------------------

def test_e_st_hypersurface_diamond(fixture_dir, capsys):
    code, out = run_cli(
        ["e-st", "--hypersurface", str(fixture_dir / "diamond.json")], capsys)
    assert code == 0
    expected = B({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    assert out == ser.dump_bivariate(expected) + "\n"


def test_check_reflexive_false_exits_zero(fixture_dir, capsys):
    code, out = run_cli(
        ["check-reflexive", str(fixture_dir / "segment_m1_2.json"),
         "--format", "text"], capsys)
    assert code == 0
    assert out.strip() == "false"


def test_dual_subcommand(fixture_dir, capsys):
    code, out = run_cli(["dual", str(fixture_dir / "p2.json")], capsys)
    assert code == 0
    data = json.loads(out)
    assert sorted(tuple(int(x) for x in v) for v in data["vertices"]) == \
        sorted(fx.polytope("p2_dual").vertices)


def test_hodge_toric(fixture_dir, capsys):
    code, out = run_cli(
        ["hodge", "--toric", str(fixture_dir / "fan_p112.json")], capsys)
    assert code == 0
    data = json.loads(out)
    assert {(e["p"], e["q"]): e["h"] for e in data["entries"]} == \
        {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_ring_dims_subcommand(fixture_dir, capsys):
    code, out = run_cli(
        ["ring-dims", str(fixture_dir / "diamond.json"), "--seed", "3"],
        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dims_R0"] == [1, 2, 1, 0]
    assert data["dims_R1"] == [0, 1, 1, 0]
    assert data["regular_profile"] is True


def test_koszul_subcommand(fixture_dir, capsys):
    code, out = run_cli(
        ["koszul", str(fixture_dir / "segment.json")], capsys)
    assert code == 0
    assert json.loads(out)["matches"] is True


def test_koszul_subcommand_on_the_cube_k3(fixture_dir, capsys):
    # the K3's 24 classes, h^{1,1} = 20 at (s, t) = (2, 2)
    code, out = run_cli(["koszul", str(fixture_dir / "cube.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["matches"] is True
    assert report["computed"] == {"1,1": 1, "1,3": 1, "2,2": 20, "3,1": 1,
                                  "3,3": 1}
    pair = fx.reflexive_pair("cube")
    assert kz.build_complex(pair, sg.random_degree_one(pair.cone, 0),
                            sg.random_degree_one(pair.dual, 17)
                            ).verify_d_squared()


def test_koszul_large_cap_is_refused_before_enumeration(fixture_dir, capsys):
    start = time.process_time()
    code = cli.main(["koszul", str(fixture_dir / "diamond.json"),
                     "--cap", "100"])
    elapsed = time.process_time() - start
    assert code == 2
    assert capsys.readouterr().err.startswith("DimensionBudgetExceeded: ")
    assert elapsed < 1


@pytest.mark.parametrize("cap", [833, 10**9])
def test_koszul_point_pair_table_is_refused_before_allocation(
        fixture_dir, capsys, cap):
    # the budget counts the segment's elements and triplets on the triangle
    # deg m + deg n <= cap before any point is built: caps up to 832 pass it
    tracemalloc.start()
    start = time.process_time()
    try:
        code = cli.main(["koszul", str(fixture_dir / "segment.json"),
                         "--cap", str(cap)])
        elapsed = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "DimensionBudgetExceeded: Koszul complex of ")
    assert elapsed < 1
    assert peak < 20 * 2**20


def test_subdivide_subcommand(fixture_dir, tmp_path, capsys):
    cone = lat.gorenstein_cone_over(fx.polytope("square"))
    pts = lat.lattice_points_at_degree(cone, 1)
    heights = [0] * len(pts)
    heights[pts.index((0, 0, 1))] = -1
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps({"heights": heights}))
    code, out = run_cli(
        ["subdivide", str(fixture_dir / "square.json"),
         "--heights", str(hpath)], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["cones"]) == 4  # stellar split of the square cone


@pytest.mark.parametrize("command,option,count,points", [
    ("subdivide", "--heights", 4, 5),
    ("ring-dims", "--subdivide", 4, 5),
    # five heights fit the diamond's cone, but koszul subdivides the dual
    # cone (the square's, with 9 degree-1 points)
    ("koszul", "--subdivide", 5, 9),
])
def test_wrong_number_of_heights_exits_2(command, option, count, points,
                                         fixture_dir, tmp_path, capsys):
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps({"heights": [0] * count}))
    code = cli.main([command, str(fixture_dir / "diamond.json"),
                     option, str(hpath)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"InvalidSubdivision: got {count} heights for {points} "
                   "degree-1 points\n")


def test_box_subcommand(fixture_dir, capsys):
    code, out = run_cli(["box", str(fixture_dir / "quartic.json")], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["shifts"] == {"1": [[0, 0, 0, 1]], "2": [[0, 0, 0, 2]],
                              "3": [[0, 0, 0, 3]]}


def test_domain_error_exit_code(fixture_dir, capsys):
    # box points need a simplicial cone; the diamond cone is not
    code = cli.main(["box", str(fixture_dir / "diamond.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "NotSimplicial" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code = cli.main(["dual", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "ParseError" in err


@pytest.mark.parametrize("command", ["hodge", "e-st"])
def test_fan_with_a_cone_that_is_not_pointed_exits_2(command, tmp_path,
                                                      capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [-1, 0], [0, 1]],
                                "cones": [[0, 1], [1, 2]]}))
    code = cli.main([command, "--toric", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ParseError: ") and "not pointed" in err


def test_fixtures_dump_onto_a_file_exits_2(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    code = cli.main(["fixtures", "--dump", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("OSError: ") and str(path) in err


DIAMOND ={"rank": 2, "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]}
FAN_P2 = {"rank": 2, "rays": [[-1, -1], [0, 1], [1, 0]],
          "cones": [[0, 1], [0, 2], [1, 2]]}


@pytest.mark.parametrize("command, data, field", [
    ("hodge --hypersurface", {**DIAMOND, "vertices": [[1.7, 0], [0, 1],
                                                      [-1, 0], [0, -1]]},
     "vertices"),
    ("dual", {**DIAMOND, "vertices": [["1", 0], [0, 1], [-1, 0], [0, -1]]},
     "vertices"),
    ("dual", {**DIAMOND, "vertices": [[True, 0], [0, 1], [-1, 0], [0, -1]]},
     "vertices"),
    ("dual", {**DIAMOND, "rank": True}, "rank"),
    ("hodge --toric", {**FAN_P2, "rays": [[-1, -1], [0, 1.0], [1, 0]]},
     "rays"),
    ("hodge --toric", {**FAN_P2, "cones": [[0, 1], [0, 2.0], [1, 2]]},
     "cones"),
    ("subdivide --heights", {"heights": [0, 0.9, 0, 0, -1.5]}, "heights"),
    ("ring-dims --subdivide", {"heights": [0, 0.9, 0, 0, -1.5]}, "heights"),
], ids=["float-vertex", "string-vertex", "bool-vertex", "bool-rank",
        "float-ray", "float-cone-index", "float-height",
        "ring-dims-float-height"])
def test_non_integer_input_is_a_parse_error(command, data, field, fixture_dir,
                                            tmp_path, capsys):
    # a number is read only if it is a JSON integer; 1.7, "1" and true are
    # refused, not truncated to 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    if "heights" in data:
        name, flag = command.split()
        args = [name, str(fixture_dir / "diamond.json"), flag, str(path)]
    else:
        args = [*command.split(), str(path)]
    code = cli.main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ParseError: ")
    assert str(path) in err and repr(field) in err


# the Newton polytope of P(2,3,3,8,14)[30] in the kernel basis of its
# weights, and in an LLL-reduced basis
P233814_KERNEL = [(-2, -1, 1, 0), (-2, 1, 2, -1), (-2, 9, -1, -1),
                  (-1, -1, -1, 1), (0, -1, 2, -1), (1, -1, 2, -1),
                  (8, -1, -1, -1), (13, -1, -1, -1)]
P233814_LLL = [(0, 1, 0, 0), (-1, 1, 0, 1), (-1, -2, -1, 5), (1, 0, 0, 0),
               (-1, 1, 0, -1), (-1, 1, 1, 0), (-1, -2, -1, -5), (-1, -2, 4, 0)]


@pytest.mark.parametrize("vertices", [P233814_KERNEL, P233814_LLL],
                         ids=["kernel", "lll"])
def test_hodge_of_p233814_in_both_bases(vertices, tmp_path, capsys):
    # in the kernel basis a 3-face cone of the dual polytope has facet
    # functionals of about 3*10^52; no S-polynomial needs that face cone
    path = tmp_path / "p233814.json"
    path.write_text(json.dumps({"rank": 4, "vertices": vertices}))
    code, out = run_cli(["hodge", "--hypersurface", str(path)], capsys)
    assert code == 0
    table = {(e["p"], e["q"]): e["h"] for e in json.loads(out)["entries"]}
    assert table == {(0, 0): 1, (3, 3): 1, (3, 0): 1, (0, 3): 1,
                     (1, 1): 21, (2, 2): 21, (2, 1): 57, (1, 2): 57}
    pair = lat.reflexive_pair(ser.load_polytope(str(path)))
    assert st.e_st_oracle(pair) == st.e_st_hypersurface(pair)


# the quintic_mirror fixture in a basis whose degree-6 bounding box has
# about 2*10^7 cells
QUINTIC_MIRROR_SHEARED = [(-15, -11, -1, 5), (-6, -5, 0, 1), (2, 0, 1, -3),
                          (18, 16, 0, -3), (1, 0, 0, 0)]


def test_ring_dims_of_sheared_quintic_mirror(fixture_dir, tmp_path, capsys):
    path = tmp_path / "sheared.json"
    path.write_text(json.dumps({"rank": 4, "vertices": QUINTIC_MIRROR_SHEARED}))
    raw = run_cli(["ring-dims", str(fixture_dir / "quintic_mirror.json")], capsys)
    assert run_cli(["ring-dims", str(path)], capsys) == raw
    assert raw[0] == 0


def unimodular_matrix(rng: random.Random, n: int, bound: int = 50):
    """A seeded element of GL_n(Z): elementary row operations from the
    identity until some entry reaches bound / 2, no entry above bound."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 1:
        return [[-1]]
    while max(abs(x) for row in m for x in row) < bound // 2:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        row = [a + c * b for a, b in zip(m[i], m[j])]
        if max(map(abs, row)) <= bound:
            m[i] = row
    return m


@pytest.mark.parametrize("name", fx.REFLEXIVE_NAMES)
def test_invariants_do_not_depend_on_the_basis(name, fixture_dir, tmp_path,
                                               capsys):
    # every invariant subcommand gives the raw file's output on a sheared
    # copy, or exits 2 with a named error; an uncaught exception fails here
    vertices = fx.POLYTOPE_VERTICES[name]
    m = unimodular_matrix(random.Random(f"gl:{name}"), len(vertices[0]))
    sheared = tmp_path / "sheared.json"
    sheared.write_text(json.dumps({"rank": len(m), "vertices": [
        [sum(a * b for a, b in zip(v, col)) for col in zip(*m)]
        for v in vertices]}))
    commands = [["hodge", "--hypersurface"], ["s-poly"], ["tilde-s"]]
    if len(m) in (2, 3):
        commands.append(["ring-dims"])
    for command in commands:
        expect = run_cli(command + [str(fixture_dir / f"{name}.json")], capsys)
        code = cli.main(command + [str(sheared)])
        captured = capsys.readouterr()
        if code == 2:
            assert re.fullmatch(r"[A-Z]\w+: .+\n", captured.err), command
        else:
            assert (code, captured.out) == expect, command


def test_byte_identical_reruns(fixture_dir, capsys):
    args = ["e-st", "--hypersurface", str(fixture_dir / "quartic.json")]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2
    args = ["ring-dims", str(fixture_dir / "p2.json"), "--seed", "7"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_verify_subset(capsys):
    code, out = run_cli(["verify", "--criteria", "8-toric-e"], capsys)
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    assert len(lines) == 4


def test_verify_unknown_criterion_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--criteria", "8-toric-e,no-such-criterion"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "no-such-criterion" in err and "1-two-formula" in err


@pytest.mark.parametrize("args", [
    ["hodge", "--hypersurface", "diamond.json", "--format", "text"],
    ["verify", "--seed", "1"],
    ["box", "diamond.json", "--field", "rational"],
])
def test_options_a_command_does_not_read_exit_2(args, fixture_dir, capsys):
    # hodge prints JSON whatever --format says, so it must not accept one
    args = [str(fixture_dir / a) if a.endswith(".json") else a for a in args]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_faces_format_text(fixture_dir, capsys):
    code, out = run_cli(["faces", str(fixture_dir / "diamond.json"),
                         "--format", "text"], capsys)
    assert code == 0
    assert out.startswith("10 faces of a dim-3 cone\n")


@pytest.mark.parametrize("field", [
    "float",            # not a descriptor
    "prime:2000001",    # composite modulus
    "prime:4194319",    # prime above 2**22
])
def test_invalid_field_exits_2(field, fixture_dir, capsys):
    code = cli.main(["ring-dims", str(fixture_dir / "diamond.json"),
                     "--field", field])
    err = capsys.readouterr().err
    assert code == 2
    assert "InvalidField" in err


def test_ring_dims_over_matrix_budget_exits_2(fixture_dir, capsys):
    # the up-front check covers degrees 1 .. dim, whose largest matrix is
    # degree 5's: 23,751 rows of the quintic cone by 5 * 10,626 products
    # and 10,626 unit columns; degree 6 would get its own check only if it
    # were built
    code = cli.main(["ring-dims", str(fixture_dir / "quintic.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "DimensionBudgetExceeded: degree-5 " in err
    assert "23751 x 63756" in err


def test_rank_8_polytope_exits_2(tmp_path, capsys):
    simplex = [[int(i == j) for j in range(8)] for i in range(8)]
    path = tmp_path / "simplex8.json"
    path.write_text(json.dumps({"rank": 8, "vertices": simplex + [[-1] * 8]}))
    code = cli.main(["check-reflexive", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "DimensionBudgetExceeded" in err


@pytest.mark.parametrize("command,expect", [
    (["faces"], '"cone_dim": 3'),
    (["s-poly"], '"t": 0'),
    (["tilde-s"], '"t": 1'),
    (["g-poly"], '"vars": ["t"]'),
    (["b-poly"], '"vars": ["u", "v"]'),
])
def test_polytope_subcommand_smoke(command, expect, fixture_dir, capsys):
    code, out = run_cli(command + [str(fixture_dir / "diamond.json")], capsys)
    assert code == 0
    assert expect in out


SWEEP = json.loads((pathlib.Path(__file__).parent / "cli_sweep.json").read_text())


@pytest.mark.parametrize("record", SWEEP, ids=[
    "-".join(r["args"] + ["stellar"] * ("heights" in r)) for r in SWEEP])
def test_output_matches_recorded_sweep(record, fixture_dir, tmp_path, capsys):
    # stdout of s-poly, tilde-s, g-poly, b-poly, e-st and hodge on every
    # reflexive fixture and e-st --toric on the fans, byte for byte as
    # recorded before the dense univariate polynomials; then faces, dual
    # and check-reflexive on every reflexive fixture and box on every
    # fixture with a simplicial cone, as recorded before facet incidences
    # were stored on the cone; then ring-dims on the 2-d fixtures over both
    # fields and on the 3-d ones over the prime field, and koszul on the
    # 2-d pairs, each plain and with the stellar heights of the subdivided
    # cone, as recorded before the graded ring stopped at degree dim; then
    # koszul over Q on the 2-d pairs, plain and stellar, and koszul --cap 4
    # on the diamond, as recorded before the Koszul complex was assembled
    # by numpy and ranked on reduced differentials
    *flags, name = record["args"]
    if "heights" in record:
        heights = tmp_path / "heights.json"
        heights.write_text(json.dumps({"heights": record["heights"]}))
        flags += ["--subdivide", str(heights)]
    code = cli.main(flags + [str(fixture_dir / name)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, record["stdout"], "")
