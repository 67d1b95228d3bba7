"""Write BENCH_<n>.json: the perfbench workloads and the tier-1 suite,
measured on this checkout.

    python scripts/bench.py 20

Each workload of perfbench/run.py runs twice, with --trace 0 (end-to-end
metrics) and --trace 1 (per-layer metrics), at seed SEED for SECONDS
seconds, so that every BENCH file measures the same runs; the record
keeps the JSON summary that each run prints on its last line.  The
tier-1 suite runs once, timed by the wall clock, with the peak RSS of
its process.  The provenance names the commit and lists what
`git status --porcelain` reports, so a record taken on a changed tree
says so.  BENCH files compare only when they come from the same machine
and session.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hodge", "box", "ring-dims", "koszul")
SEED, SECONDS = 3, 20


def run(cmd: list[str], env: dict | None = None):
    """(completed process, wall seconds) of one command in ROOT."""
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    return proc, time.monotonic() - start


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc, wall = run([sys.executable, "-m", "pytest", "-q",
                      "--continue-on-collection-errors"], env)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    counts = {kind: int(n) for n, kind in re.findall(
        r"(\d+) (passed|failed|errors?|skipped)", last)}
    # the largest child waited for so far: git's processes are far smaller
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"exit": proc.returncode, "wall_s": wall, "peak_rss_mb": rss,
            **counts}


def perfbench(workload: str, trace: int) -> dict:
    proc, wall = run([sys.executable, "perfbench/run.py", "--workload",
                      workload, "--seed", str(SEED), "--seconds",
                      str(SECONDS), "--trace", str(trace)])
    if proc.returncode:
        return {"exit": proc.returncode, "wall_s": wall,
                "stderr": proc.stderr[-2000:]}
    return {"exit": 0, "wall_s": wall,
            **json.loads(proc.stdout.strip().splitlines()[-1])}


def provenance() -> dict:
    commit = run(["git", "rev-parse", "HEAD"])[0]
    status = run(["git", "status", "--porcelain"])[0]
    return {"git_commit": commit.stdout.strip() or None,
            "git_status": status.stdout.splitlines(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("number", type=int, help="n of BENCH_<n>.json")
    args = ap.parse_args(argv)
    record = {"provenance": provenance(), "seed": SEED, "seconds": SECONDS,
              "tier1": tier1()}
    record["workloads"] = {w: {f"trace{t}": perfbench(w, t) for t in (0, 1)}
                           for w in WORKLOADS}
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
