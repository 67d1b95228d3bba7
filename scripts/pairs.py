"""Compare two checkouts on one perfbench workload in alternating pairs.

    python scripts/pairs.py PARENT_DIR CHANGE_DIR --workload hodge \
        --seed 11 --pairs 10 --seconds 20

Each pair runs `perfbench/run.py` once in each checkout, with the same
workload, seed and duration; the side that runs first alternates from
pair to pair, so that a drift of the machine's speed falls on both sides
alike.  For every end-to-end metric of CHANGE_DIR's BENCHMARK.json the
report gives each side's median and quartiles over the pairs, the number
of pairs the change wins (strictly better in the metric's direction),
and whether the medians differ by more than the parent's interquartile
range; then each side's fail_frac.  The exit status is 1 when a run
exits nonzero or reports a failed op, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout: Path, args) -> dict:
    """The JSON summary on the last line of one perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        print(f"error: run in {checkout} exited with {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        sys.exit(1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side], args))
        print(f"pair {i + 1}/{args.pairs}: " + "  ".join(
            f"{side} run_ref {runs[side][-1]['metrics']['run_ref']['value']:.4g}"
            for side in sides), flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs: median [q1, q3]")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in sides}
        (p1, pm, p3), (c1, cm, c3) = (quartiles(values[s]) for s in sides)
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(values["parent"], values["change"]))
        print(f"  {name:12s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
              f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
              f"({cm / pm - 1:+.1%}; change wins {wins} of {args.pairs}; "
              f"|median diff| {'>' if abs(cm - pm) > p3 - p1 else '<='} "
              f"parent IQR)")
    failed = 0
    for side in sides:
        bad = sum(r["failed"] for r in runs[side])
        total = sum(r["attempted"] for r in runs[side])
        failed += bad
        print(f"  {'fail_frac':12s} {side} {bad / total:.4g} "
              f"({bad} of {total} ops)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
