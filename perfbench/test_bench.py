"""Self-test of the benchmark: every workload at its smallest size prints
every metric named in BENCHMARK.json with its unit and fails no op, and
the output checks do catch wrong answers.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_small(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_prints_every_metric(workload, trace):
    lines, result = run_small(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    printed = {line.split()[0]: line.split()[1:3] for line in lines[1:-1]}
    for m in spec:
        value, unit = printed[m["name"]]
        assert unit == m["unit"]
        float(value)
    assert printed["fail_frac"] == ["0", "ratio"]


def test_wrong_golden_counts_as_failed():
    op = wl.make_batch("hodge", 7, small=True)[0]
    h11, h21 = op.expected[(1, 1)], op.expected[(2, 1)]
    assert worker.run_batch([op])["errors"] == {}
    op.expected = wl.cy3_table(h11, h21 + 1)
    assert worker.run_batch([op])["errors"] == {"WrongAnswer": 1}


def test_exception_counts_under_its_class_and_run_goes_on():
    square_cone = wl.cone_generators(wl.POLYGONS["square"])
    bad = wl._box_op("square", square_cone, {})
    good = wl.make_batch("box", 7, small=True)[0]
    result = worker.run_batch([bad, good])
    assert result["errors"] == {"NotSimplicial": 1}
    assert len(result["op_s"]) == 2


def test_newton_simplices_match_fixture_quintic():
    assert sorted(wl.newton_simplex((1, 1, 1, 1, 1))) == sorted(
        [(4, -1, -1, -1), (-1, 4, -1, -1), (-1, -1, 4, -1),
         (-1, -1, -1, 4), (-1, -1, -1, -1)])
