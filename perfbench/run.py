"""Benchmark for costsense: one workload, one seed, one run.

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src``. ``--trace 0`` reports the end-to-end metrics: set-up and import
time are medians over several fresh interpreters, and the op metrics come
from a closed loop of at least ``--seconds`` and 100 ops in one more. ``--trace 1`` runs the loop twice, untraced and traced, and reports
the per-layer metrics and the tracing overhead. ``--workload all`` runs
every workload both ways. Human-readable lines come first; the last line
of stdout is one JSON object. Run records and spans go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# The names in workloads.WORKLOADS; this process never imports costsense.
WORKLOADS = ("cohort", "mc_paper", "mc_large")
SETUP_PROBES = 6  # extra interpreters that only set up, for the set-up median
WORKER_TIMEOUT_S = 85.0
DEFAULT_SEED = 20260817

END_TO_END = {
    "setup_s": "s",
    "import_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
# Per-layer metrics: "<module>.<function>.<field>" per op, from the traced run.
LAYERS = {
    "data.load_dataset": ("calls",),
    "censoring.km_censoring_survival": ("calls", "jumps"),
    "censoring.ipw_weights": ("calls",),
    "censoring.fit_censored_cost": (),
    "glm.irls_fit": ("calls", "iterations", "nonconverged"),
    "glm.sandwich_covariance": (),
    "glm.model_covariance": (),
    "simulation.generate_ci_dataset": (),
    "simulation.run_replication": (),
    "simulation.aggregate": (),
    "diagnostics.loo_correlation_report": ("calls",),
    "sensitivity.sweep": ("rows",),
    "config.load_sweep_config": (),
    "cli.main": (),
}
TRACE_METRICS = {
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "trace.mismatched_ops": "count",
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, extra: list[str]) -> tuple[float, dict]:
    """Run one worker; return its set-up time (start to ``ready``) and result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(OUT / workload), *extra]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "ready" or not rest.strip():
        raise BenchError(f"worker for {workload} failed with exit status {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    setups, imports = [], []

    def probe() -> None:
        setup_s, payload = spawn(workload, seed, seconds, ["--probe"])
        setups.append(setup_s)
        imports.append(payload["import_s"])

    # Probes run on both sides of the loop, so the set-up median spans the
    # whole run rather than one moment of the machine's load.
    for _ in range(SETUP_PROBES // 2):
        probe()
    setup_s, result = spawn(workload, seed, seconds, [])
    setups.append(setup_s)
    imports.append(result["import_s"])
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        probe()
    result["setup_s"] = statistics.median(setups)
    result["import_s"] = statistics.median(imports)
    result["metrics"] = {name: result[name] for name in END_TO_END}
    return result


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    _, plain = spawn(workload, seed, seconds, [])
    spans = OUT / workload / "spans.json"
    _, traced = spawn(workload, seed, seconds, ["--trace", str(spans)])
    ops = traced["attempted"]
    layers = traced["layers"]
    metrics = {}
    for layer, fields in LAYERS.items():
        totals = layers.get(layer, {})
        for field in ("self_ms",) + fields:
            metrics[f"{layer}.{field}"] = totals.get(field, 0) / ops
    recon = traced["reconciliation"]
    metrics["trace.overhead_frac"] = 1.0 - traced["ops_per_s"] / plain["ops_per_s"]
    metrics["trace.unattributed_frac"] = recon["unattributed_frac"]
    metrics["trace.mismatched_ops"] = recon["mismatched_ops"]
    traced["plain"] = plain
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["failures"] = plain["failures"] + traced["failures"]
    same = plain["digest"] == traced["digest"]
    traced["checks"] = plain["checks"] + traced["checks"] + [
        {"name": "tracing changes no result", "ok": same, "detail": "digests match" if same
         else f"untraced {plain['digest']}, traced {traced['digest']}"}]
    traced["correct"] = plain["correct"] and traced["correct"] and same
    traced["metrics"] = metrics
    traced["spans_file"] = str(spans.relative_to(ROOT))
    return traced


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in TRACE_METRICS:
        return TRACE_METRICS[name]
    return "ms" if name.endswith(".self_ms") else "count"


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=30,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def report(workload: str, seed: int, trace: int, result: dict) -> dict:
    """Print the human-readable lines, save the run record, return the verdict."""
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in result["metrics"].items()}
    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench workload={workload} seed={seed} trace={trace} ops={attempted}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':44s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for reason in result["failures"]:
        print(f"  failed: {reason}")
    for check in result["checks"]:
        print(f"  check {'ok' if check['ok'] else 'FAILED'}: {check['name']} ({check['detail']})")
    if trace and (result["reconciliation"]["mismatched_ops"]
                  or result["reconciliation"]["badly_nested"]):
        print(f"  trace does not reconcile: {result['reconciliation']}", file=sys.stderr)
    print(f"  digest {result['digest']}")
    meta = {"seed": seed, **result["environment"], **git_state()}
    print(f"  meta {json.dumps(meta, sort_keys=True)}")

    record = {"workload": workload, "seed": seed, "trace": trace, "meta": meta,
              **{key: value for key, value in result.items() if key != "environment"}}
    (OUT / workload).mkdir(parents=True, exist_ok=True)
    (OUT / workload / f"seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return {"correct": bool(result["correct"]), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        result = run_traced(workload, seed, seconds)
    else:
        result = run_untraced(workload, seed, seconds)
    return report(workload, seed, trace, result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "costsense" / "__init__.py").is_file():
        print(f"error: no costsense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            verdict = run_one(args.workload, args.seed, args.seconds, args.trace)
        else:
            verdict = {f"{workload}/trace{trace}": run_one(workload, args.seed, args.seconds,
                                                           trace)
                       for workload in WORKLOADS for trace in (0, 1)}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
