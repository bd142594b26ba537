"""The benchmark's workloads: set-up, one op, output checks and digest.

Each workload is built from the run seed alone. ``op(i)`` is one unit of
user work; ``check(i, output)`` returns why an op's output is wrong, or
None; ``finish()`` runs once after the op loop and counts toward the run's
time; ``run_checks()`` judges the run as a whole. Calls into costsense go
through module attributes, so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from pathlib import Path

import numpy as np

import costsense.cli as cli
import costsense.simulation as simulation
from costsense.data import save_dataset
from costsense.sensitivity import BernoulliParams, ConfounderFamily, NormalParams

# Digests round every number to this many significant digits.
DIGEST_DIGITS = 10
# Monte Carlo digests cover the first this many replications, which every
# full run reaches.
DIGEST_OPS = 100

SWEEP_INI = """\
[apparent]
cost_ratio = 0.873
ci_low = 0.793
ci_high = 0.960

[sweep]
family = bernoulli

[grid]
prevalence = 0.7/0.5, 0.8/0.4, 0.8/0.3
effect = 1.1, 1.25, 1.5
"""

# The published Bernoulli sensitivity table for a cost ratio of 0.873
# (95% CI 0.793 to 0.960), in the grid order above (prevalence fastest):
# adjusted ratio, CI low, CI high, significance changed.
PUBLISHED_BERNOULLI = [
    (0.89, 0.81, 0.98, False),
    (0.91, 0.82, 1.00, True),
    (0.92, 0.83, 1.01, True),
    (0.91, 0.83, 1.00, True),
    (0.95, 0.87, 1.05, True),
    (0.97, 0.89, 1.07, True),
    (0.94, 0.86, 1.04, True),
    (1.02, 0.93, 1.12, True),
    (1.06, 0.97, 1.17, True),
]


def _rounded(value) -> str:
    return format(float(value), f".{DIGEST_DIGITS}g")


def _rounded_csv(text: str) -> str:
    """CSV text with every numeric cell rounded to DIGEST_DIGITS digits."""
    lines = []
    for row in csv.reader(io.StringIO(text)):
        cells = []
        for cell in row:
            try:
                cells.append(_rounded(cell))
            except ValueError:
                cells.append(cell)
        lines.append(",".join(cells))
    return "\n".join(lines)


class _Workload:
    def finish(self) -> None:
        pass

    def run_checks(self) -> list[tuple[str, bool, str]]:
        return []


class Cohort(_Workload):
    """``fit``, ``sweep`` and ``diagnose`` on the synthetic cohort, in-process."""

    name = "cohort"
    # Per-op calls in today's call graph: one fit plus 16 leave-one-out
    # propensity fits; fit and diagnose each load the CSV.
    expected_spans = {"glm.irls_fit": 17, "data.load_dataset": 2,
                      "censoring.km_censoring_survival": 1}

    def __init__(self, seed: int, workdir: Path):
        data = workdir / "cohort.csv"
        config = workdir / "sweep.ini"
        save_dataset(data, simulation.synthetic_cohort(seed))
        config.write_text(SWEEP_INI, encoding="utf-8")
        self.commands = [
            ["fit", "--input", str(data), "--format", "csv"],
            ["sweep", "--input", str(config), "--format", "csv"],
            ["diagnose", "--input", str(data), "--format", "csv"],
        ]
        self.first = None

    def op(self, i: int):
        outputs = []
        for argv in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            outputs.append((status, out.getvalue(), err.getvalue()))
        return outputs

    def check(self, i: int, outputs) -> str | None:
        for argv, (status, _, err) in zip(self.commands, outputs):
            if status != 0:
                return f"{argv[0]} exited {status}: {err.strip()}"
        if self.first is None:
            reason = self._check_values(outputs)
            if reason is not None:
                return reason
            self.first = outputs
        elif outputs != self.first:
            return "output differs from the first op's"
        return None

    @staticmethod
    def _check_values(outputs) -> str | None:
        fit, sweep, diagnose = (list(csv.DictReader(io.StringIO(out))) for _, out, _ in outputs)
        # fit exits 1 on a non-converged fit, so exit 0 already means converged.
        ses = [float(row["se"]) for row in fit]
        if not ses or not all(math.isfinite(se) and se > 0 for se in ses):
            return "fit: standard errors are not all finite and positive"
        if len(sweep) != len(PUBLISHED_BERNOULLI):
            return f"sweep: {len(sweep)} rows, expected {len(PUBLISHED_BERNOULLI)}"
        for index, (row, (ratio, low, high, changed)) in enumerate(zip(sweep, PUBLISHED_BERNOULLI)):
            got = (round(float(row["cost_ratio"]), 2), round(float(row["ci_low"]), 2),
                   round(float(row["ci_high"]), 2), row["significance_changed"] == "true")
            if (got[0] != ratio or abs(got[1] - low) > 0.01 + 1e-12
                    or abs(got[2] - high) > 0.01 + 1e-12 or got[3] != changed):
                return f"sweep row {index}: got {got}, published {(ratio, low, high, changed)}"
        if len(diagnose) != 16:
            return f"diagnose: {len(diagnose)} rows, expected 16"
        return None

    def digest(self) -> str:
        text = "\n".join(_rounded_csv(out) for _, out, _ in self.first or [])
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


class _MonteCarlo(_Workload):
    """One ``run_replication`` per op on a fixed CI scenario."""

    fit_true_model = False

    def __init__(self, seed: int, workdir: Path):
        self.scenario = self.make_scenario(seed)
        self.records = []

    def op(self, i: int):
        return simulation.run_replication(self.scenario, i, fit_true_model=self.fit_true_model)

    def check(self, i: int, record) -> str | None:
        self.records.append(record)
        if not record.converged:
            return f"replication {i}: converged=False"
        if not math.isfinite(record.beta_adjusted):
            return f"replication {i}: beta_adjusted is not finite"
        return None

    def digest(self) -> str:
        fields = ("replication", "converged", "beta_unadjusted", "beta_adjusted", "se",
                  "covered_unadjusted", "covered_adjusted", "beta_true_model")
        lines = []
        for record in self.records[:DIGEST_OPS]:
            values = [getattr(record, field) for field in fields]
            lines.append(",".join(_rounded(v) if isinstance(v, float) else str(v) for v in values))
        text = "\n".join(lines)
        return f"sha256:{hashlib.sha256(text.encode()).hexdigest()} (first {len(lines)} replications)"


class McPaper(_MonteCarlo):
    """The paper's heavily censored anchor cell, aggregated after the loop."""

    name = "mc_paper"
    expected_spans = {"glm.irls_fit": 1, "censoring.ipw_weights": 1,
                      "censoring.km_censoring_survival": 1}

    @staticmethod
    def make_scenario(seed: int):
        return simulation.CIScenario(
            family=ConfounderFamily.BERNOULLI,
            params_control=BernoulliParams(0.3),
            params_treated=BernoulliParams(0.866),
            gamma=0.5, n_per_arm=100, censor_prob=0.75, seed=seed,
        )

    def finish(self) -> None:
        self.result = simulation.aggregate(self.scenario, self.records)

    def run_checks(self) -> list[tuple[str, bool, str]]:
        mean = self.result.mean_beta_adjusted
        coverage = self.result.coverage_adjusted
        return [
            ("mean_beta_adjusted within 0.05 of 1", abs(mean - 1.0) <= 0.05, f"{mean:.4f}"),
            # Heavy censoring leaves the adjusted interval under-covering,
            # as the paper reports for this cell.
            ("coverage_adjusted < 0.88", coverage < 0.88, f"{coverage:.4f}"),
        ]


class McLarge(_MonteCarlo):
    """The n = 10,000 cell with a true-model refit, 25% censored."""

    name = "mc_large"
    fit_true_model = True
    expected_spans = {"glm.irls_fit": 2, "censoring.ipw_weights": 2,
                      "censoring.km_censoring_survival": 2}

    @staticmethod
    def make_scenario(seed: int):
        return simulation.CIScenario(
            family=ConfounderFamily.NORMAL,
            params_control=NormalParams(mean=0.0, sd=1.0),
            params_treated=NormalParams(mean=1.0, sd=1.0),
            gamma=0.5, n_per_arm=5000, censor_prob=0.25, seed=seed,
        )

    def check(self, i: int, record) -> str | None:
        reason = super().check(i, record)
        if reason is None and not math.isfinite(record.beta_true_model):
            reason = f"replication {i}: true-model refit did not converge"
        return reason

    def run_checks(self) -> list[tuple[str, bool, str]]:
        diff = np.array([r.beta_adjusted - r.beta_true_model for r in self.records
                         if r.converged and math.isfinite(r.beta_true_model)])
        if diff.size < 2:
            return [("adjusted agrees with the true-model fit", False,
                     f"only {diff.size} usable replications")]
        mean = float(diff.mean())
        mc_se = float(diff.std(ddof=1) / math.sqrt(diff.size))
        return [("|mean(beta_adjusted - beta_true_model)| < 3 MC SE",
                 abs(mean) < 3.0 * mc_se, f"{mean:.5f} vs 3 x {mc_se:.5f}")]


WORKLOADS = {workload.name: workload for workload in (Cohort, McPaper, McLarge)}
