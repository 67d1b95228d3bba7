"""One fresh process of the benchmark: imports stringcone, builds the
inputs of a workload batch and either reports when it is ready (setup
mode) or runs the batch in a closed loop with one caller (batch mode).

    python3 perfbench/worker.py setup <workload> <seed> [--small]
    python3 perfbench/worker.py batch <workload> <seed> <trace 0|1> <spans-file>
        [--small]

The last line of standard output is a JSON object.  Times are
time.monotonic() readings, which share one clock across processes.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

PROBE_EVERY_S = 0.5
REF_WINDOW_S = 1.0
_REF_ARRAY = np.arange(4096, dtype=np.int64)
_REF_TABLE = {i: i * i for i in range(1024)}


def reference_work() -> None:
    """A fixed piece of interpreter, bigint, dict and numpy work that
    shares no code with stringcone.  Its time, taken next to every op,
    tracks how fast the machine is at that moment.  It allocates no
    container objects and runs with the garbage collector off, so the
    heap the ops leave behind does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    x = 1
    for i in range(30_000):
        x = (x * 1_103_515_245 + _REF_TABLE[i & 1023]) % 2_305_843_009_213_693_951
    a = _REF_ARRAY.copy()
    for _ in range(100):
        np.multiply(a, 3, out=a)
        np.add(a, x & 0xFFFF, out=a)
        np.remainder(a, 1_000_003, out=a)
    if enabled:
        gc.enable()


def run_batch(ops, tracer=None) -> dict:
    """Run every op, one at a time, then check the outputs.  An op that
    raises or gives a wrong answer counts as failed under its exception
    class name (WrongAnswer for a failed check), and the batch goes on.

    Each op is timed on the wall clock and on the process CPU clock.  Its
    time in reference units is its CPU time divided by the mean CPU time
    of reference_work() within REF_WINDOW_S of it: the CPU clock leaves
    out the time the process waited for a core, and the reference takes
    out how fast the core ran.  The reference runs after every op and,
    from a SIGALRM handler, every PROBE_EVERY_S seconds while an op runs;
    the probes' own time is taken out of the op's."""
    outputs = []
    times = []
    cpu_times = []
    intervals = []
    ref_log: list[tuple[float, float, float]] = []  # (midpoint, wall, cpu)

    # in a traced batch the probes are spans of their own, so that their
    # time is not counted in the self time of the span they interrupt
    reference = (reference_work if tracer is None
                 else tracer.wrap("reference_work", "probe", reference_work))

    def probe(*_):
        w0, c0 = time.perf_counter(), time.process_time()
        reference()
        w, c = time.perf_counter() - w0, time.process_time() - c0
        ref_log.append((w0 + w / 2, w, c))

    previous = signal.signal(signal.SIGALRM, probe)
    reference_work()
    probe()
    try:
        for i, op in enumerate(ops):
            n_refs = len(ref_log)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    out = tracer.run_op(i, op.label, op.run)
                outputs.append((True, out))
            except Exception as exc:  # every failure is counted, then go on
                outputs.append((False, type(exc).__name__))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            t1, c1 = time.perf_counter(), time.process_time()
            inside = [r for r in ref_log[n_refs:] if t0 <= r[0] <= t1]
            times.append(t1 - t0 - sum(r[1] for r in inside))
            cpu_times.append(c1 - c0 - sum(r[2] for r in inside))
            intervals.append((t0 - REF_WINDOW_S, t1 + REF_WINDOW_S))
            probe()
    finally:
        signal.signal(signal.SIGALRM, previous)
    refs = [statistics.mean(r[2] for r in ref_log if lo <= r[0] <= hi)
            for lo, hi in intervals]
    # the clock has stopped: check outputs
    errors: dict[str, int] = {}
    for op, (ok, out) in zip(ops, outputs):
        if ok and out != op.expected:
            ok, out = False, "WrongAnswer"
        if not ok:
            errors[out] = errors.get(out, 0) + 1
    return {
        "batch_s": sum(times),
        "op_s": times,
        "op_cpu_s": cpu_times,
        "op_ref": [t / r for t, r in zip(cpu_times, refs)],
        "ref_s": refs,
        "labels": [op.label for op in ops],
        "errors": errors,
        "reseeds": sum(op.reseeds for op in ops),
    }


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    small = "--small" in argv
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    tracer = None
    if mode == "batch" and argv[3] == "1":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.make_batch(workload, seed, small)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    result = run_batch(ops, tracer)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["python"] = sys.version.split()[0]
    result["numpy"] = np.__version__
    if tracer is not None:
        result["layers"] = tracer.metrics(result["reseeds"])
        result["spans"] = len(tracer.spans)
        tracer.dump(argv[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
