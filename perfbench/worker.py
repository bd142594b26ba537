"""One benchmark process: import costsense, set up a workload, run its ops.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH.
It prints ``ready`` as soon as the first op can start, then, in measure
mode, runs ops back to back (a closed loop with one client) for at least
``--seconds`` and MIN_OPS ops, and prints one JSON line with the
results. A probe (``--probe``) stops after ``ready``.
"""

from __future__ import annotations

import time

# Timed before any other import, so that a module costsense shares with
# the benchmark's own imports still counts in import_s.
started = time.perf_counter()
import costsense  # noqa: E402

import_s = time.perf_counter() - started

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer, layer_totals, reconcile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# At least this many ops per run, so that ten ops lie beyond p90.
MIN_OPS = 100
# A loop stops here even short of MIN_OPS, so the run ends in time.
MAX_LOOP_SECONDS = 70.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "costsense": costsense.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def measure(workload, seconds: float, tracer: Tracer | None) -> dict:
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    times, failures = [], []
    start = time.perf_counter()
    deadline, cutoff = start + seconds, start + MAX_LOOP_SECONDS
    i = 0
    while (i < MIN_OPS or time.perf_counter() < deadline) and time.perf_counter() < cutoff:
        t0 = time.perf_counter()
        try:
            with span("op"):
                output = workload.op(i)
            reason = None
        except Exception:  # a raising op is a failed op, not a dead run
            reason = f"op {i} raised " + traceback.format_exc(limit=-3)
        times.append(time.perf_counter() - t0)
        if reason is None:
            reason = workload.check(i, output)
        if reason is not None:
            failures.append(reason)
        i += 1

    t0 = time.perf_counter()
    with span("finish"):
        workload.finish()
    finish_s = time.perf_counter() - t0

    checks = workload.run_checks()
    ms = [t * 1e3 for t in times]
    result = {
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:5],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "correct": not failures and all(ok for _, ok, _ in checks),
        "ops_per_s": len(times) / (sum(times) + finish_s),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": workload.digest(),
    }
    if tracer:
        result["layers"] = layer_totals(tracer.spans)
        result["reconciliation"] = reconcile(tracer.spans, workload.expected_spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true", help="stop once set up")
    parser.add_argument("--trace", metavar="SPANS_JSON",
                        help="trace the ops and write the spans here")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    print("ready", flush=True)
    if args.probe:
        print(json.dumps({"import_s": import_s}))
        return 0

    result = measure(workload, args.seconds, tracer)
    if tracer:
        tracer.uninstall()
        Path(args.trace).write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "counts"],
            "spans": tracer.spans,
        }), encoding="utf-8")
    result["import_s"] = import_s
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
