"""Benchmark of stringcone: four workloads, each a closed loop with one
caller that runs the public API one op at a time and waits for every
result.

    python3 perfbench/run.py --workload hodge --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): hodge, box, ring-dims, koszul.  Every batch
runs in a fresh worker process, so every lru_cache starts cold; batches
repeat while another one fits in --seconds (at least one runs).  Set-up
is measured in fresh processes of its own, before and after the batches.
Outputs are checked after the clock stops.

--trace 0 reports the end-to-end metrics:
  setup_s      median time from process start until the first op can start
               (interpreter, `import stringcone`, input generation)
  run_ref      median over batches of the batch's time in reference units
  op_p50_ref   median over the ops of all batches of one op's time in
               reference units
  peak_rss_mb  largest ru_maxrss of a batch process
An op's time in reference units is its CPU time divided by the mean CPU
time of a fixed reference computation (worker.reference_work) run around
it and, for long ops, during it.  On a shared machine whose speed drifts
by tens of percent from minute to minute, and which now and then takes
the core away for a few hundred milliseconds, the ratio stays steady
where the wall time does not.  The wall-clock run_s and op_p50_s are
printed and recorded beside it, ungated.
--trace 1 runs one untraced and one traced batch and reports the
per-layer metrics of tracing.py, with trace.overhead_ratio = traced batch
time / untraced batch time (both in reference units).

Failed ops (an exception, a budget error or a wrong answer) are counted
by class name; fail_frac = failed / attempted is printed with the other
metrics and carried by the "attempted" and "failed" fields of the JSON
object on the last line of output.  Each run also writes a result file
with its provenance to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("hodge", "box", "ring-dims", "koszul")
SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170  # every worker is stopped by then
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "run_ref": "ref", "op_p50_ref": "ref",
                    "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def call_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker, wait for it to end; return (start time, result).
    A worker still running at the run's deadline is killed."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - start))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    return start, result


def measure_setup(workload: str, seed: int, samples: int, extra: list[str],
                  deadline: float) -> list[float]:
    out = []
    for _ in range(samples):
        start, res = call_worker(["setup", workload, str(seed), *extra],
                                 deadline)
        out.append(res["ready"] - start)
    return out


def run_batch(workload: str, seed: int, traced: bool, extra: list[str],
              spans_path: Path, deadline: float) -> dict:
    return call_worker(["batch", workload, str(seed), "1" if traced else "0",
                        str(spans_path), *extra], deadline)[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smallest batch of the workload (self-test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stringcone" / "__init__.py").is_file():
        print(f"error: no stringcone sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = RESULTS / f"{stem}-spans.jsonl.gz"
    extra = ["--small"] if args.small else []

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        # set-up samples are taken before and after the batches, so that
        # their median spans the machine's speed over the whole run
        n_setup = 2 if args.small else SETUP_SAMPLES
        setup = measure_setup(args.workload, args.seed, n_setup // 2, extra,
                              deadline)
        batches = []
        start = time.monotonic()
        while True:
            batches.append(run_batch(args.workload, args.seed, False, extra,
                                     spans_path, deadline))
            if args.trace:
                break
            typical = statistics.median(b["wall_s"] for b in batches)
            if time.monotonic() - start + typical > args.seconds:
                break
        traced = (run_batch(args.workload, args.seed, True, extra, spans_path,
                            deadline)
                  if args.trace else None)
        setup += measure_setup(args.workload, args.seed,
                               n_setup - n_setup // 2, extra, deadline)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run_ref = statistics.median(sum(b["op_ref"]) for b in batches)
    errors: dict[str, int] = {}
    for b in batches + ([traced] if traced else []):
        for name, n in b["errors"].items():
            errors[name] = errors.get(name, 0) + n
    attempted = sum(len(b["op_s"]) for b in batches)
    if traced:
        attempted += len(traced["op_s"])
    failed = sum(errors.values())

    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = sum(traced["op_ref"]) / run_ref
        sys.path.insert(0, str(HERE))
        from tracing import METRIC_UNITS
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in METRIC_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_ref": run_ref,
            "op_p50_ref": statistics.median(
                t for b in batches for t in b["op_ref"]),
            "peak_rss_mb": max(b["rss_mb"] for b in batches),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    wall = {
        "run_s": statistics.median(b["batch_s"] for b in batches),
        "op_p50_s": statistics.median(t for b in batches for t in b["op_s"]),
        "reference_cpu_s": statistics.median(
            t for b in batches for t in b["ref_s"]),
    }

    ops_per_batch = len(batches[0]["op_s"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": {
            "git_commit": git_commit(),
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": batches[0]["python"],
            "numpy": batches[0]["numpy"],
            "thread_env": THREAD_ENV,
            "ops_per_batch": {args.workload: ops_per_batch},
        },
        "batches": len(batches),
        "batch_s": [b["batch_s"] for b in batches],
        "setup_samples_s": setup,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "errors_by_class": errors,
        "ops": batches[0]["labels"],
        "op_s": [b["op_s"] for b in batches],
        "op_cpu_s": [b["op_cpu_s"] for b in batches],
        "op_ref": [b["op_ref"] for b in batches],
        "wall_clock": wall,
        "metrics": metrics,
    }
    if traced:
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["spans"] = traced["spans"]
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"batches {len(batches)} x {ops_per_batch} ops")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    for name, value in wall.items():
        print(f"  {name:38s} {value:.6g} s  (wall clock, not gated)")
    print(f"  {'fail_frac':38s} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} ops; {errors or 'no errors'})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
