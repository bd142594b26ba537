"""Fast smoke test of the benchmark itself (short runs, about 100 seconds).

    python3 perfbench/smoke.py

For every workload it runs ``run.py`` untraced and traced and checks that
the result line has exactly the four result keys, that every metric named
in BENCHMARK.json is emitted with its unit, that outputs are correct, that
the trace reconciles with today's call graph, and that both runs of one
seed give the same output digest. It also checks that the benchmark fails
cleanly where there are no sources. It is not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
# Every run makes at least 100 ops, which is all cohort and mc_large run
# here; mc_paper's run-level bands need several hundred replications.
SECONDS = {"cohort": "0.01", "mc_paper": "1", "mc_large": "0.01"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def expect(ok: bool, message: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            done = run(ROOT, "--workload", workload, "--seed", str(SEED),
                       "--trace", str(trace), "--seconds", SECONDS[workload])
            expect(done.returncode == 0, f"{label}: exit status {done.returncode}", failures)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}", failures)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['failed']} of {result['attempted']} ops failed",
                   failures)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == wanted[trace], f"{label}: metric names and units match BENCHMARK.json",
                   failures)
            record = json.loads((ROOT / ".perfbench" / workload
                                 / f"seed{SEED}-trace{trace}.json").read_text(encoding="utf-8"))
            digests.append(record["digest"])
            if trace:
                recon = record["reconciliation"]
                expect(recon["mismatched_ops"] == 0 and recon["badly_nested"] == 0
                       and recon["unattributed_frac"] < 0.05,
                       f"{label}: trace reconciles {recon}", failures)
                digests.append(record["plain"]["digest"])
        expect(len(set(digests)) == 1, f"{workload}: one digest per seed {digests}", failures)

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, "--workload", "mc_paper", "--seed", "1", "--seconds", "1", "--trace", "0")
    expect(done.returncode != 0 and '"metrics"' not in done.stdout,
           f"without sources: exit status {done.returncode} and no result", failures)
    shutil.rmtree(bare)

    print(f"smoke: {'FAILED ' + str(len(failures)) if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
