"""Spans around calls into costsense's public functions.

The tracer patches functions from outside the package: each target is
replaced by a timing wrapper at every module binding that holds it, so a
call through ``from .glm import irls_fit`` in another module is caught too.
``src/`` is never edited. Spans are ``[name, start, end, parent, counts]``
rows kept in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# Traced functions, by "<module>.<function>" under the costsense package,
# with the counts each span takes from the function's return value.
TARGETS = {
    "cli.main": None,
    "config.load_sweep_config": None,
    "data.load_dataset": None,
    "censoring.km_censoring_survival": lambda survival: {"jumps": len(survival.jump_times)},
    "censoring.ipw_weights": None,
    "censoring.fit_censored_cost": None,
    "glm.irls_fit": lambda fit: {"iterations": fit.iterations,
                                 "nonconverged": int(not fit.converged)},
    "glm.sandwich_covariance": None,
    "glm.model_covariance": None,
    "simulation.generate_ci_dataset": None,
    "simulation.run_replication": None,
    "simulation.aggregate": None,
    "diagnostics.loo_correlation_report": None,
    "sensitivity.sweep": lambda rows: {"rows": len(rows)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, original, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index][4] = counter(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target at every ``costsense`` module binding."""
        for name in TARGETS:
            importlib.import_module("costsense." + name.split(".")[0])
        modules = [module for key, module in list(sys.modules.items())
                   if key == "costsense" or key.startswith("costsense.")]
        for name, counter in TARGETS.items():
            module_name, function_name = name.split(".")
            original = getattr(sys.modules["costsense." + module_name], function_name)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: summed self time (ms), call count and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _, counts) in enumerate(spans):
        entry = totals.setdefault(name, {"self_ms": 0.0, "calls": 0})
        entry["self_ms"] += (end - start - child_time[index]) * 1e3
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


def reconcile(spans, expected_counts: dict[str, int]) -> dict:
    """Check the trace against the call graph the workload should have.

    Returns the number of ops whose span counts differ from
    ``expected_counts``, the number of spans not nested inside their
    parent, and the share of op time that no traced function covers.
    That share is the benchmark's glue around the calls; untraced program
    work is self time of a coarse wrapper such as ``cli.main``.
    """
    root = [0] * len(spans)
    per_op: dict[int, dict[str, int]] = {}
    covered: dict[int, float] = {}
    badly_nested = 0
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            root[index] = index
            if name == "op":
                per_op[index] = {}
                covered[index] = 0.0
            continue
        root[index] = root[parent]
        if start < spans[parent][1] or end > spans[parent][2]:
            badly_nested += 1
        if parent in covered:
            covered[parent] += end - start
        if root[index] in per_op:
            counts = per_op[root[index]]
            counts[name] = counts.get(name, 0) + 1

    mismatched = sum(
        any(counts.get(name, 0) != want for name, want in expected_counts.items())
        for counts in per_op.values()
    )
    op_time = sum(spans[index][2] - spans[index][1] for index in per_op)
    unattributed = (op_time - sum(covered.values())) / op_time if op_time > 0 else float("nan")
    return {
        "mismatched_ops": mismatched,
        "badly_nested": badly_nested,
        "unattributed_frac": unattributed,
    }
