"""End-to-end runs of the command line entry points.

Everything here calls ``main(argv)`` in process and reads the streams back
through capsys; only the ``python -m costsense`` wiring itself goes through
a subprocess.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costsense import CostDataset, cost_design, fit_cost, load_dataset, save_dataset
from costsense import cli
from costsense.cli import main
from helpers import random_cost_dataset


def _run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _dataset_csv(tmp_path, seed=4, censored=False, name="costs.csv"):
    path = tmp_path / name
    save_dataset(path, random_cost_dataset(seed, n=160, censored=censored))
    return path


def _two_covariate_csv(tmp_path):
    rng = np.random.default_rng(7)
    n = 150
    z1 = rng.normal(size=n)
    z2 = rng.normal(size=n)
    treatment = (rng.random(n) < 1.0 / (1.0 + np.exp(-z1))).astype(np.int64)
    cost = rng.gamma(2.0, np.exp(1.5 + 0.3 * treatment) / 2.0)
    dataset = CostDataset(
        cost=cost,
        time=np.full(n, 5.0),
        uncensored=np.ones(n, dtype=bool),
        treatment=treatment,
        covariates=np.column_stack([z1, z2]),
        covariate_names=("z1", "z2"),
    )
    path = tmp_path / "two.csv"
    save_dataset(path, dataset)
    return path


def test_fit_csv_lists_every_design_term(tmp_path, capsys):
    path = _dataset_csv(tmp_path)
    status, out, err = _run(capsys, "fit", "--input", str(path), "--format", "csv")
    assert status == 0
    assert err == ""
    rows = _rows(out)
    assert [row["term"] for row in rows] == ["intercept", "treat", "z1"]
    # CSV floats are written with repr, so they round-trip exactly.
    ds = load_dataset(path)
    fit = fit_cost(ds, cost_design(ds)[0], np.ones(len(ds)))
    for row, coefficient in zip(rows, fit.coefficients):
        assert float(row["estimate"]) == coefficient
        assert float(row["cost_ratio"]) == pytest.approx(np.exp(coefficient), rel=1e-15)
    for row in rows:
        assert float(row["ci_low"]) < float(row["estimate"]) < float(row["ci_high"])


def test_fit_table_reports_ratio_and_counts(tmp_path, capsys):
    path = _dataset_csv(tmp_path, censored=True)
    status, out, err = _run(capsys, "fit", "--input", str(path))
    assert status == 0
    assert "treatment cost ratio:" in out
    assert "95% CI" in out
    assert "records: 160" in out
    assert "variance: sandwich" in out


def test_fit_ipw_flag_is_noop_without_censoring(tmp_path, capsys):
    path = _dataset_csv(tmp_path, censored=False)
    _, with_ipw, _ = _run(capsys, "fit", "--input", str(path), "--format", "csv")
    _, without, _ = _run(capsys, "fit", "--input", str(path), "--format", "csv", "--no-ipw")
    assert with_ipw == without


def test_fit_weights_matter_under_censoring(tmp_path, capsys):
    path = _dataset_csv(tmp_path, censored=True)
    _, with_ipw, _ = _run(capsys, "fit", "--input", str(path), "--format", "csv")
    _, without, _ = _run(capsys, "fit", "--input", str(path), "--format", "csv", "--no-ipw")
    assert with_ipw != without


def test_fit_writes_output_file_and_keeps_table_on_stdout(tmp_path, capsys):
    path = _dataset_csv(tmp_path)
    out_path = tmp_path / "fit.csv"
    status, out, _ = _run(capsys, "fit", "--input", str(path), "--output", str(out_path))
    assert status == 0
    assert "treatment cost ratio:" in out
    rows = _rows(out_path.read_text())
    assert [row["term"] for row in rows] == ["intercept", "treat", "z1"]
    assert set(rows[0]) == {
        "term", "estimate", "se", "ci_low", "ci_high",
        "cost_ratio", "ratio_ci_low", "ratio_ci_high",
    }


def test_fit_variance_choice_changes_se_only(tmp_path, capsys):
    path = _dataset_csv(tmp_path, censored=True)
    _, sandwich, _ = _run(capsys, "fit", "--input", str(path), "--format", "csv",
                          "--variance", "sandwich")
    _, model, _ = _run(capsys, "fit", "--input", str(path), "--format", "csv",
                       "--variance", "model")
    sandwich_rows, model_rows = _rows(sandwich), _rows(model)
    for left, right in zip(sandwich_rows, model_rows):
        assert left["estimate"] == right["estimate"]
    assert [r["se"] for r in sandwich_rows] != [r["se"] for r in model_rows]


def test_fit_missing_input_fails_with_usage_status(tmp_path, capsys):
    status, out, err = _run(capsys, "fit", "--input", str(tmp_path / "absent.csv"))
    assert status == 2
    assert out == ""
    assert err.startswith("error: input-not-found:")


def test_fit_rejects_out_of_range_level(tmp_path, capsys):
    path = _dataset_csv(tmp_path)
    status, _, err = _run(capsys, "fit", "--input", str(path), "--level", "1.5")
    assert status == 2
    assert err.startswith("error: config-error:")
    assert "level" in err


ADJUST_INI = """\
[apparent]
cost_ratio = 0.873
ci_low = 0.793
ci_high = 0.960

[confounder]
family = bernoulli
prevalence = 0.7/0.5
effect = 1.1
"""


def test_adjust_reproduces_published_style_row(tmp_path, capsys):
    path = tmp_path / "adjust.ini"
    path.write_text(ADJUST_INI)
    status, out, _ = _run(capsys, "adjust", "--input", str(path), "--format", "csv")
    assert status == 0
    (row,) = _rows(out)
    assert row["prevalence_control"] == "0.7"
    assert row["prevalence_treated"] == "0.5"
    assert round(float(row["cost_ratio"]), 2) == 0.89
    assert round(float(row["ci_low"]), 2) == 0.81
    assert round(float(row["ci_high"]), 2) == 0.98
    assert row["significance_changed"] == "false"
    assert row["error"] == ""


def test_adjust_table_legend_names_the_unadjusted_interval(tmp_path, capsys):
    path = tmp_path / "adjust.ini"
    path.write_text(ADJUST_INI)
    _, out, _ = _run(capsys, "adjust", "--input", str(path))
    assert "unadjusted: 0.87" in out
    assert "*" in out.splitlines()[-1]


def test_adjust_fits_apparent_effect_from_data(tmp_path, capsys):
    config = tmp_path / "adjust.ini"
    config.write_text("[confounder]\nfamily = normal\nmean = 0/1\nsd = 1\neffect = 1.2\n")
    data = _dataset_csv(tmp_path)
    status, out, _ = _run(capsys, "adjust", "--input", str(config),
                          "--data", str(data), "--format", "csv")
    assert status == 0
    (row,) = _rows(out)
    # A unit shift in the confounder mean subtracts exactly gamma from the fit.
    ds = load_dataset(data)
    fit = fit_cost(ds, cost_design(ds)[0], np.ones(len(ds)))
    expected = fit.coefficients[1] - np.log(1.2)
    assert float(row["beta"]) == pytest.approx(expected, abs=1e-12)


def test_adjust_rejects_two_apparent_sources(tmp_path, capsys):
    config = tmp_path / "adjust.ini"
    config.write_text(ADJUST_INI)
    data = _dataset_csv(tmp_path)
    status, _, err = _run(capsys, "adjust", "--input", str(config), "--data", str(data))
    assert status == 2
    assert "given twice" in err


def test_adjust_requires_an_apparent_source(tmp_path, capsys):
    config = tmp_path / "adjust.ini"
    config.write_text("[confounder]\nfamily = bernoulli\nprevalence = 0.5\neffect = 1.1\n")
    status, _, err = _run(capsys, "adjust", "--input", str(config))
    assert status == 2
    assert "no apparent effect" in err


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


def test_sweep_grid_order_and_significance_flags(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP_INI)
    status, out, _ = _run(capsys, "sweep", "--input", str(path), "--format", "csv")
    assert status == 0
    rows = _rows(out)
    assert len(rows) == 9
    # The first-listed grid key varies fastest.
    assert [row["effect_control"] for row in rows[:4]] == ["1.1", "1.1", "1.1", "1.25"]
    ratios = [round(float(row["cost_ratio"]), 2) for row in rows]
    assert ratios == [0.89, 0.91, 0.92, 0.91, 0.95, 0.97, 0.94, 1.02, 1.06]
    flags = [row["significance_changed"] for row in rows]
    assert flags == ["false"] + ["true"] * 8


def test_sweep_isolates_domain_failures_per_row(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(
        "[apparent]\nbeta_star = -0.136\nse = 0.0488\n"
        "[sweep]\nfamily = gamma\n"
        "[grid]\nshape = 2\nscale = 0.5\nlog_effect = 0.5, 2.5\n"
    )
    status, out, _ = _run(capsys, "sweep", "--input", str(path), "--format", "csv")
    assert status == 0
    rows = _rows(out)
    assert len(rows) == 2
    assert rows[0]["error"] == ""
    assert float(rows[0]["cost_ratio"]) > 0.0
    assert rows[1]["beta"] == ""
    assert rows[1]["cost_ratio"] == ""
    assert "scale * effect" in rows[1]["error"]


SCENARIO_INI = """\
[scenario bern]
kind = ci
family = bernoulli
prevalence = 0.3/0.866
gamma = 0.25
n_per_arm = 40
censor_prob = 0.25
"""


def test_simulate_summary_is_deterministic(tmp_path, capsys):
    path = tmp_path / "scenarios.ini"
    path.write_text(SCENARIO_INI)
    argv = ("simulate", "--input", str(path), "--seed", "9", "--reps", "6",
            "--format", "csv")
    status, first, err = _run(capsys, *argv)
    assert status == 0
    assert err == ""
    _, second, _ = _run(capsys, *argv)
    assert first == second
    (row,) = _rows(first)
    assert row["scenario"] == "bern"
    assert row["kind"] == "ci"
    assert row["n"] == "80"
    assert int(row["converged"]) <= 6
    assert float(row["coverage_adjusted"]) <= 1.0


PROPENSITY_INI = """\
[scenario prop]
kind = propensity
model = model2
n = 200
"""


def test_simulate_workers_leave_results_unchanged(tmp_path, capsys):
    for kind, scenarios in (("ci", SCENARIO_INI), ("propensity", PROPENSITY_INI)):
        path = tmp_path / f"{kind}.ini"
        path.write_text(scenarios)
        rep_one, rep_three = tmp_path / f"{kind}-one.csv", tmp_path / f"{kind}-three.csv"
        base = ("simulate", "--input", str(path), "--seed", "9", "--reps", "6",
                "--format", "csv")
        _, serial, _ = _run(capsys, *base, "--workers", "1", "--rep-output", str(rep_one))
        _, pooled, _ = _run(capsys, *base, "--workers", "3", "--rep-output", str(rep_three))
        assert serial == pooled, kind
        assert rep_one.read_text() == rep_three.read_text(), kind
        assert len(_rows(rep_one.read_text())) == 6, kind


@pytest.mark.parametrize("flag", ["--output", "--rep-output"])
@pytest.mark.parametrize("where", ["nodir", "dir"])
def test_simulate_fails_on_an_unwritable_output_before_any_replication(
        tmp_path, capsys, monkeypatch, flag, where):
    calls = []
    original = cli.run_replication

    def counting_replication(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run_replication", counting_replication)
    path = tmp_path / "scenarios.ini"
    path.write_text(SCENARIO_INI)
    target = tmp_path / "missing" / "out.csv" if where == "nodir" else tmp_path
    reason = "No such file or directory" if where == "nodir" else "Is a directory"
    base = ("simulate", "--input", str(path), "--seed", "1", "--reps", "2")
    status, _, err = _run(capsys, *base, flag, str(target))
    assert (status, err) == (2, f"error: usage-error: cannot write {target}: {reason}\n")
    assert calls == []
    # The same study with a writable path runs every replication.
    assert _run(capsys, *base, flag, str(tmp_path / "out.csv"))[0] == 0
    assert len(calls) == 2


def test_simulate_rejects_small_propensity_n_before_running(tmp_path, capsys):
    path = tmp_path / "scenarios.ini"
    path.write_text(SCENARIO_INI + PROPENSITY_INI.replace("n = 200", "n = 50"))
    status, out, err = _run(capsys, "simulate", "--input", str(path), "--seed", "9",
                            "--reps", "2")
    assert status == 2
    assert out == ""
    assert err.startswith("error: config-error:")
    assert "at least 100" in err
    assert "Traceback" not in err


def test_simulate_rejects_seed_in_scenario_file(tmp_path, capsys):
    path = tmp_path / "scenarios.ini"
    path.write_text(SCENARIO_INI + "seed = 5\n")
    status, _, err = _run(capsys, "simulate", "--input", str(path), "--seed", "9")
    assert status == 2
    assert "--seed" in err


def test_simulate_validates_flag_ranges(tmp_path, capsys):
    path = tmp_path / "scenarios.ini"
    path.write_text(SCENARIO_INI)
    for extra in (("--seed", "-1"), ("--seed", "9", "--reps", "0"),
                  ("--seed", "9", "--workers", "0")):
        status, _, err = _run(capsys, "simulate", "--input", str(path), *extra)
        assert status == 2
        assert err.startswith("error: config-error:")


HOPELESS_CD_INI = """\
[scenario hopeless]
kind = cd
family = normal
phi1 = -60
phi2 = 0
phi3 = 0
n = 20
gamma = 0.25
"""


def test_simulate_counts_a_hopeless_cd_draw_as_failed_replications(tmp_path, capsys):
    alone, both = tmp_path / "alone.ini", tmp_path / "both.ini"
    alone.write_text(SCENARIO_INI)
    both.write_text(SCENARIO_INI + HOPELESS_CD_INI)
    base = ("--seed", "9", "--reps", "2", "--format", "csv")
    status, out, err = _run(capsys, "simulate", "--input", str(both), *base)
    assert status == 0
    assert "Traceback" not in err
    bern, hopeless = _rows(out)
    _, alone_out, _ = _run(capsys, "simulate", "--input", str(alone), *base)
    assert [bern] == _rows(alone_out)
    assert hopeless["converged"] == "0"
    assert hopeless["convergence_failures"] == "2"
    assert hopeless["regenerated"] == "2000"


OVERFLOW_CI_INI = """
[scenario overflow]
kind = ci
family = normal
mean = 0/800
gamma = 1
n_per_arm = 20
"""


def test_simulate_counts_an_overflowing_cost_as_failed_replications(tmp_path, capsys):
    alone, both = tmp_path / "alone.ini", tmp_path / "both.ini"
    alone.write_text(SCENARIO_INI)
    both.write_text(SCENARIO_INI + OVERFLOW_CI_INI)
    base = ("--seed", "9", "--reps", "2", "--format", "csv")
    status, out, err = _run(capsys, "simulate", "--input", str(both), *base)
    assert status == 0
    assert err == ""
    bern, overflow = _rows(out)
    _, alone_out, _ = _run(capsys, "simulate", "--input", str(alone), *base)
    assert [bern] == _rows(alone_out)
    assert overflow["converged"] == "0"
    assert overflow["convergence_failures"] == "2"
    assert overflow["regenerated"] == "0"


def test_simulate_huge_finite_costs_fail_quietly_with_nan_estimates(tmp_path):
    # Costs near exp(700) are finite, but their weighted mean overflows.
    config = tmp_path / "huge.ini"
    config.write_text(OVERFLOW_CI_INI.replace("0/800", "0/700").replace("n_per_arm = 20",
                                                                        "n_per_arm = 50"))
    reps = tmp_path / "reps.csv"
    result = subprocess.run(
        [sys.executable, "-m", "costsense", "simulate", "--input", str(config), "--seed", "3",
         "--reps", "3", "--format", "csv", "--rep-output", str(reps)],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    rows = _rows(reps.read_text())
    assert len(rows) == 3
    for row in rows:
        assert row["converged"] == "false"
        for column in ("beta_unadjusted", "beta_adjusted", "se", "beta_true_model"):
            assert row[column] == "nan"


def test_simulate_rejects_out_of_domain_correction_before_running(tmp_path, capsys):
    path = tmp_path / "scenarios.ini"
    path.write_text(SCENARIO_INI + (
        "[scenario wide]\nkind = ci\nfamily = gamma\nshape = 0.5\nscale = 2\n"
        "gamma = 0.75\nn_per_arm = 20\n"
    ))
    status, out, err = _run(capsys, "simulate", "--input", str(path), "--seed", "9",
                            "--reps", "2")
    assert status == 2
    assert out == ""
    assert err.startswith("error: mgf-domain: [scenario wide]:")
    assert "Traceback" not in err


def test_diagnose_one_covariate_is_a_schema_error(tmp_path, capsys):
    path = _dataset_csv(tmp_path)
    status, out, err = _run(capsys, "diagnose", "--input", str(path))
    assert status == 2
    assert out == ""
    assert err.startswith("error: schema-error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, repeated", [("fit", "z"), ("diagnose", "z"), ("fit", "cost")])
def test_repeated_header_column_is_a_schema_error(tmp_path, capsys, command, repeated):
    path = tmp_path / "repeated.csv"
    path.write_text(f"cost,time,event,treat,z,{repeated}\n"
                    "10.0,1.0,1,0,0.1,20.0\n"
                    "12.0,2.0,1,1,0.3,22.0\n"
                    "11.0,3.0,0,0,0.5,21.0\n")
    status, out, err = _run(capsys, command, "--input", str(path))
    assert status == 2
    assert out == ""
    assert err.startswith("error: schema-error:")
    assert f"'{repeated}'" in err
    assert "Traceback" not in err


def test_diagnose_covariate_equal_to_treatment_is_separation(tmp_path, capsys):
    dataset = load_dataset(_two_covariate_csv(tmp_path))
    path = tmp_path / "leaky.csv"
    save_dataset(path, CostDataset(
        cost=dataset.cost,
        time=dataset.time,
        uncensored=dataset.uncensored,
        treatment=dataset.treatment,
        covariates=np.column_stack([dataset.covariates, dataset.treatment]),
        covariate_names=dataset.covariate_names + ("leak",),
    ))
    status, out, err = _run(capsys, "diagnose", "--input", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: separation:")
    assert "'leak'" in err
    assert "Traceback" not in err
    # fit keeps its rank check: the covariate is collinear with treatment.
    status, _, err = _run(capsys, "fit", "--input", str(path))
    assert status == 1
    assert err.startswith("error: singular-design:")


def test_diagnose_one_treatment_arm_is_an_empty_fit(tmp_path, capsys):
    treated_only = load_dataset(_two_covariate_csv(tmp_path))
    treated_only = CostDataset(
        cost=treated_only.cost,
        time=treated_only.time,
        uncensored=treated_only.uncensored,
        treatment=np.ones(len(treated_only), dtype=np.int64),
        covariates=treated_only.covariates,
        covariate_names=treated_only.covariate_names,
    )
    path = tmp_path / "one_arm.csv"
    save_dataset(path, treated_only)
    status, out, err = _run(capsys, "diagnose", "--input", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: empty-fit:")
    assert "Traceback" not in err


def test_diagnose_reports_each_covariate(tmp_path, capsys):
    path = _two_covariate_csv(tmp_path)
    status, out, _ = _run(capsys, "diagnose", "--input", str(path), "--format", "csv")
    assert status == 0
    rows = _rows(out)
    assert [row["covariate"] for row in rows] == ["z1", "z2"]
    for row in rows:
        assert -1.0 <= float(row["corr_unconditional"]) <= 1.0
        assert row["flagged"] in ("true", "false")
    # Spearman reruns on ranks; same shape, different numbers allowed.
    _, spearman, _ = _run(capsys, "diagnose", "--input", str(path), "--spearman")
    assert "correlation method: spearman" in spearman
    assert "unconverged" not in spearman


def test_synth_writes_reloadable_cohort(tmp_path, capsys):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    status, out, _ = _run(capsys, "synth", "--output", str(first), "--seed", "3")
    assert status == 0
    assert "wrote 1860 records" in out
    assert "censored" in out
    dataset = load_dataset(first)
    assert len(dataset) == 1860
    _run(capsys, "synth", "--output", str(second), "--seed", "3")
    assert first.read_text() == second.read_text()


def test_module_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "costsense", "--help"],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0
    assert "usage:" in result.stdout
    for command in ("fit", "adjust", "sweep", "simulate", "diagnose", "synth"):
        assert command in result.stdout


def test_runtime_never_imports_scipy(tmp_path):
    config = tmp_path / "cd.ini"
    config.write_text(
        "[scenario cd_gamma]\nkind = cd\nfamily = gamma\n"
        "phi1 = -1\nphi2 = 1\nphi3 = 0.5\nn = 100\ngamma = 0.5\n\n"
        "[scenario cd_poisson]\nkind = cd\nfamily = poisson\n"
        "phi1 = -1\nphi2 = 1\nphi3 = 0.5\nn = 100\ngamma = 0.5\n"
    )
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "import costsense\n"
        "print(scipy_modules())\n"
        "from costsense.cli import main\n"
        f"status = main(['simulate', '--input', {str(config)!r}, '--seed', '3', '--reps', '2',\n"
        f"               '--output', {str(tmp_path / 'out.csv')!r}])\n"
        "print(status, scipy_modules())\n"
    )
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "[]"
    assert result.stdout.splitlines()[-1] == "0 []"
    rows = _rows((tmp_path / "out.csv").read_text())
    assert [row["scenario"] for row in rows] == ["cd_gamma", "cd_poisson"]


def test_missing_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unknown_format_choice_rejected(tmp_path, capsys):
    path = _dataset_csv(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["fit", "--input", str(path), "--format", "xml"])
    assert excinfo.value.code == 2


# A converged fit whose treatment coefficient (about 2159) is far beyond the
# log of the largest float, so its cost ratio overflows.
HUGE_RATIO_CSV = """\
z1,treat,time,z0,event,cost
-1,1,685735.7950773141,-167.32582271451315,1,843128.7856599432
-123.67400829485109,0,685735.7950773141,156.172605225594,1,1.0
0,0,0.5,-1,1,1.0
0,0,145322.58269130607,0,1,362043.4955229815
"""


def test_fit_prints_an_overflowing_cost_ratio_as_inf(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text(HUGE_RATIO_CSV)
    status, out, err = _run(capsys, "fit", "--input", str(path), "--format", "csv")
    assert (status, err) == (0, "")
    treat = _rows(out)[1]
    assert float(treat["estimate"]) > 709.8
    assert [treat[c] for c in ("cost_ratio", "ratio_ci_low", "ratio_ci_high")] == ["inf"] * 3
    status, out, err = _run(capsys, "fit", "--input", str(path))
    assert (status, err) == (0, "")
    assert "treatment cost ratio: inf (95% CI inf, inf)" in out


@pytest.mark.parametrize("command, config", [
    ("adjust", "[confounder]\nfamily = bernoulli\nprevalence = 0.7/0.5\neffect = 1.1\n"),
    ("sweep", "[sweep]\nfamily = bernoulli\n\n[grid]\nprevalence = 0.7/0.5\neffect = 1.1, 1.5\n"),
])
def test_correction_of_an_overflowing_cost_ratio_prints_inf(tmp_path, capsys, command, config):
    data, ini = tmp_path / "huge.csv", tmp_path / "grid.ini"
    data.write_text(HUGE_RATIO_CSV)
    ini.write_text(config)
    status, out, err = _run(capsys, command, "--input", str(ini), "--data", str(data),
                            "--format", "csv")
    assert (status, err) == (0, "")
    for row in _rows(out):
        assert float(row["beta"]) > 709.8
        assert [row[c] for c in ("cost_ratio", "ci_low", "ci_high")] == ["inf"] * 3
    status, out, err = _run(capsys, command, "--input", str(ini), "--data", str(data))
    assert (status, err) == (0, "")
    assert "unadjusted: inf (95% CI inf, inf)" in out


def test_diverging_fit_fails_with_one_error_line_and_no_numpy_warning(tmp_path):
    path = tmp_path / "extreme.csv"
    path.write_text("event,treat,cost,time\n"
                    "1,0,2.225073858507203e-309,598078.9090062738\n"
                    "1,1,0,1e-300\n"
                    "0,1,1e-300,1\n"
                    "0,0,0,1e300\n"
                    "0,0,785571.0858611118,980096.2879232453\n")
    # A fresh interpreter, so that stderr shows numpy's warnings as a user sees them.
    result = subprocess.run([sys.executable, "-m", "costsense", "fit", "--input", str(path)],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: did-not-converge:")
    assert result.stderr.count("\n") == 1


def test_diagnose_near_the_float_range_fails_with_one_error_line(tmp_path):
    # z0 alternates +-1e300: its moments overflow, and a fit on it is singular.
    path = tmp_path / "huge_covariate.csv"
    path.write_text("treat,time,event,cost,z0,z1\n" + "".join(
        f"{i % 2},{i + 1},1,{10 + i},{'-' if i % 2 else ''}1e300,{z1}\n"
        for i, z1 in enumerate([0.3, -1.2, 0.5, 2.0, -0.7, 1.1, -0.4, 0.9])))
    result = subprocess.run([sys.executable, "-m", "costsense", "diagnose", "--input", str(path)],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 1
    assert result.stderr.startswith("error: singular-design:")
    assert result.stderr.count("\n") == 1


_DATA_CONFIGS = {
    "adjust": "[confounder]\nfamily = bernoulli\nprevalence = 0.7/0.5\neffect = 1.25\n",
    "sweep": "[sweep]\nfamily = bernoulli\n[grid]\nprevalence = 0.7/0.5\neffect = 1.25\n",
}


def _data_argv(tmp_path, command, data):
    """``fit`` on ``data``, or ``adjust``/``sweep`` fitting their apparent effect from it."""
    if command == "fit":
        return ["fit", "--input", str(data)]
    config = tmp_path / f"{command}.ini"
    config.write_text(_DATA_CONFIGS[command])
    return [command, "--input", str(config), "--data", str(data)]


@pytest.mark.parametrize("command", ["fit", "adjust"])
def test_shifting_costs_past_the_float_range_is_a_usage_error(tmp_path, capsys, command):
    # Half the smallest positive cost, added to the largest, overflows; numpy's
    # overflow warning would fail this test, as RuntimeWarnings are errors here.
    data = tmp_path / "huge_costs.csv"
    data.write_text("cost,time,event,treat\n1.5e308,1,1,0\n1.7e308,2,1,1\n1.3e308,3,1,0\n")
    status, out, err = _run(capsys, *_data_argv(tmp_path, command, data), "--shift-zero-costs")
    assert (status, out) == (2, "")
    assert err == "error: invalid-data: shifting every cost by 6.5e+307 overflows a float\n"


@pytest.mark.parametrize("command", ["adjust", "sweep"])
@pytest.mark.parametrize("variance, rows, shown", [
    # Equal costs fit exactly: every residual, and so the sandwich, is 0.
    ("sandwich", "1,1,1,0\n1,2,1,1\n1,3,1,0\n1,4,1,1\n", "0"),
    # As many records as coefficients leave no degrees of freedom for the dispersion.
    ("model", "1,1,1,0\n2,1,1,1\n", "nan"),
])
def test_an_apparent_effect_without_a_positive_variance_is_an_estimation_error(
        tmp_path, capsys, command, variance, rows, shown):
    data = tmp_path / "degenerate.csv"
    data.write_text("cost,time,event,treat\n" + rows)
    status, out, err = _run(capsys, *_data_argv(tmp_path, command, data), "--variance", variance)
    assert (status, out) == (1, "")
    assert err == (f"error: estimation-failure: the fit gives the treatment coefficient a "
                   f"variance of {shown}; the apparent effect needs a positive one\n")


@pytest.mark.parametrize("command, config, status", [
    ("sweep", "[apparent]\nbeta_star = 0.5\nse = 0.5\n[sweep]\nfamily = poisson\n"
              "[grid]\nrate = 0.5\nlog_effect = 710, 0.5\n", 0),
    ("adjust", "[apparent]\nbeta_star = 0.5\nse = 0.5\n[confounder]\nfamily = normal\n"
               "mean = 0\nsd = 1e308\nlog_effect = 0.5\n", 0),
    ("simulate", "[scenario big]\nkind = ci\nfamily = poisson\nrate = 1\ngamma = 710\n"
                 "n_per_arm = 10\n", 2),
])
def test_log_mgf_beyond_the_float_range_is_an_mgf_domain_error(tmp_path, capsys, command,
                                                              config, status):
    path = tmp_path / "config.ini"
    path.write_text(config)
    extra = ["--seed", "1", "--reps", "2"] if command == "simulate" else []
    got, out, err = _run(capsys, command, "--input", str(path), "--format", "csv", *extra)
    assert got == status
    if status == 2:
        assert err.startswith("error: mgf-domain: [scenario big]:") and "overflows a float" in err
    else:
        assert err == "" and "overflows a float" in _rows(out)[0]["error"]


_FIT_VARIANTS = ([], ["--no-ipw"], ["--stratify-censoring"], ["--shift-zero-costs"],
                 ["--variance", "model"])


@st.composite
def _role_csvs(draw):
    """A header CSV: the role columns and 0-3 covariates in random order, 1-14 rows."""
    names = draw(st.permutations(["cost", "time", "event", "treat"]
                                 + [f"z{j}" for j in range(draw(st.integers(0, 3)))]))
    cells = {
        "cost": st.floats(0.0, sys.float_info.max),
        "time": st.floats(0.0, 1e6, exclude_min=True),
        "event": st.sampled_from(["0", "1"]),
        "treat": st.sampled_from(["0", "1"]),
    }
    rows = draw(st.lists(
        st.tuples(*[cells.get(name, st.floats(-1e3, 1e3)) for name in names]),
        min_size=1, max_size=14,
    ))
    lines = [",".join(names)] + [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=_role_csvs())
def test_fit_and_diagnose_never_escape_with_an_exception(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_text(text)
        argvs = ([["fit", "--input", str(path), *flags] for flags in _FIT_VARIANTS]
                 + [["diagnose", "--input", str(path)],
                    ["diagnose", "--input", str(path), "--spearman"]])
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2), argv


# Four numbers in five lie in [0.05, 0.95], where every parameter is valid;
# the fifth may be negative, huge, not finite or not a number.
_INI_NUMBERS = st.sampled_from(4 * [st.floats(0.05, 0.95)] + [st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1e308", "-1e308", "5e-324", "710", "x", ""]),
)]).flatmap(lambda numbers: numbers).map(
    lambda value: value if isinstance(value, str) else f"{value:.3g}")
_INI_ITEMS = st.one_of(_INI_NUMBERS, st.tuples(_INI_NUMBERS, _INI_NUMBERS).map("/".join))
_FAMILY_KEYS = {"bernoulli": [["prevalence"]], "normal": [["mean"], ["mean", "sd"]],
                "poisson": [["rate"]], "gamma": [["shape", "scale"], ["mean_ratio", "var_over_mean"]]}
_ANY_KEY = st.sampled_from(["prevalence", "mean", "sd", "rate", "shape", "scale", "mean_ratio",
                            "var_over_mean", "effect", "log_effect", "family", "seed"])


@st.composite
def _adjust_and_sweep_inis(draw):
    """An ``adjust`` file and a ``sweep`` file for one family: the family's keys,
    now and then one key more, values from ``_INI_ITEMS``, and an ``[apparent]``
    section in either form, in neither, or in a mix of both."""
    family = draw(st.sampled_from(3 * sorted(_FAMILY_KEYS) + ["binomial"]))
    keys = list(draw(st.sampled_from(_FAMILY_KEYS.get(family, [["prevalence"]]))))
    keys += [draw(st.sampled_from(["effect", "log_effect"]))]
    keys += [key for key in draw(st.lists(_ANY_KEY, max_size=1)) if key not in keys]
    apparent = draw(st.sampled_from(2 * [["beta_star", "se"], ["ci_low", "cost_ratio", "ci_high"]]
                                    + [["beta_star", "se", "level"], [], ["cost_ratio", "se"]]))
    values = [draw(_INI_NUMBERS) for _ in apparent]
    if apparent[:1] == ["ci_low"]:
        # Ascending when all three parse, so that most intervals are valid.
        with contextlib.suppress(ValueError):
            values = [repr(value) for value in sorted(map(float, values))]
    head = (["[apparent]"] + [f"{key} = {value}" for key, value in zip(apparent, values)]
            if apparent else [])
    adjust = head + ["[confounder]", f"family = {family}"]
    adjust += [f"{key} = {draw(_INI_ITEMS)}" for key in keys]
    grid = [f"{key} = {', '.join(draw(st.lists(_INI_ITEMS, min_size=1, max_size=2)))}"
            for key in keys]
    sweep = head + ["[sweep]", f"family = {family}", "[grid]"] + grid
    return "\n".join(adjust) + "\n", "\n".join(sweep) + "\n"


@settings(max_examples=300, deadline=None)
@given(files=_adjust_and_sweep_inis())
def test_adjust_and_sweep_never_escape_with_an_exception(files):
    with tempfile.TemporaryDirectory() as tmp:
        for command, text in zip(("adjust", "sweep"), files):
            path = Path(tmp) / f"{command}.ini"
            path.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main([command, "--input", str(path)]) in (0, 1, 2), text


@pytest.mark.parametrize("shape_and_scale", ["", "shape = zz\nscale = zz\n"])
def test_scenario_errors_do_not_depend_on_the_hash_seed(tmp_path, shape_and_scale):
    # Both of the gamma parameters are missing, or both are garbage: the
    # error names the first in field order, whatever the string hashes are.
    path = tmp_path / "gamma.ini"
    path.write_text("[scenario g]\nkind = ci\nfamily = gamma\n" + shape_and_scale
                    + "gamma = 0.5\nn_per_arm = 20\n")
    errors = []
    for hash_seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, "-m", "costsense", "simulate", "--input", str(path), "--seed", "1"],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert result.returncode == 2
        errors.append(result.stderr)
    assert errors[0] == errors[1]
    error = errors[0]
    assert error.startswith("error: config-error: [scenario g]: ") and "shape" in error
    assert "scale" not in error


@pytest.mark.parametrize("section, status, error", [
    # A treatment index beyond the float range leaves the control arm with no
    # probability: the quadrature of U's law in that arm divides by zero.
    ("kind = cd\nfamily = bernoulli\nphi1 = 710\nphi2 = 1\nphi3 = -0.5\nn = 20\n", 2,
     "leave a treatment arm with no probability"),
    ("kind = cd\nfamily = poisson\nphi1 = 1e308\nphi2 = 1\nphi3 = 2\nn = 60\n", 2,
     "leave a treatment arm with no probability"),
    # The index overflows in some draws only; each arm keeps its probability.
    ("kind = cd\nfamily = normal\nphi1 = 0.5\nphi2 = 1\nphi3 = 1e308\nn = 20\n", 0, ""),
    # The treated arm is the one quadrature node with the smallest U: U has
    # no spread there, so its Gamma moment match divides by zero.
    ("kind = cd\nfamily = gamma\nphi1 = 6.6e9\nphi2 = 0\nphi3 = -1e12\nn = 40\n", 2,
     "leave U without spread in a treatment arm"),
    # numpy's Poisson sampler refuses the rate.
    ("kind = ci\nfamily = poisson\nrate = 1e308\nn_per_arm = 20\n", 2, "beyond numpy's sampler"),
    # The log-mean cost overflows before exp does: failed replications.
    ("kind = ci\nfamily = normal\nmean = 0.5\nn_per_arm = 20\ntheta_z = 1e308\n", 0, ""),
])
def test_simulate_degenerate_scenarios_fail_cleanly(tmp_path, capsys, section, status, error):
    path = tmp_path / "extreme.ini"
    gamma = "-0.25" if "poisson" in section else "0.5"
    path.write_text(f"[scenario x]\n{section}gamma = {gamma}\n")
    got, _, err = _run(capsys, "simulate", "--input", str(path), "--seed", "1", "--reps", "2")
    assert got == status
    if status:
        assert err.startswith("error: config-error: [scenario x]: ") and error in err
    else:
        assert err == ""


# Valid values per scenario key, small enough that two replications take
# milliseconds. A CI section's parameter keys follow its family, and a
# propensity section gives either a model name or its correlations.
_SCENARIO_VALUES = {
    "ci": {"n_per_arm": ["4", "20"], "gamma": ["0.5", "-0.25"], "censor_prob": ["0", "0.5"],
           "alpha": ["5", "1"], "beta_true": ["1", "0"], "theta_z": ["1", "-1"]},
    "cd": {"phi1": ["-1", "0.5"], "phi2": ["1", "0"], "phi3": ["2", "-0.5"], "n": ["20", "60"],
           "gamma": ["0.5", "-0.25"], "censor_prob": ["0", "0.25"], "alpha": ["5"],
           "beta_true": ["1"], "theta_z": ["1"]},
    "propensity": {"n": ["100", "150"], "gamma": ["0.5", "0"]},
}
_SCENARIO_LAYOUTS = {
    "bernoulli": {"prevalence": ["0.3/0.866", "0.5"]},
    "normal": {"mean": ["0/1", "0.5"], "sd": ["1/2", "1"]},
    "poisson": {"rate": ["1/2", "0.5"]},
    "gamma": {"shape": ["0.5/0.9", "1"], "scale": ["0.75", "0.5/1"]},
    "model": {"model": ["model1", "model2"]},
    "correlations": {"correlations": ["0.3, 0.1, -0.2", "0, 0, 0"]},
}
_SCENARIO_GARBAGE = ["zz", "", "-1", "0", "nan", "inf", "1e308", "710", "0.5/0.5/0.5", "1/2", "3"]
_SCENARIO_UNKNOWN = ["seed", "extra", "family", "model", "n", "n_per_arm", "phi1", "sd", "shape"]


@st.composite
def _scenario_sections(draw):
    """A valid ``[scenario]`` section of any kind with up to two faults: a key
    dropped, a key set to garbage, or a key the kind does not take."""
    kind = draw(st.sampled_from(sorted(_SCENARIO_VALUES)))
    items = {"kind": kind}
    if kind == "propensity":
        layout = draw(st.sampled_from(["model", "correlations"]))
    else:
        layout = items["family"] = draw(st.sampled_from(["bernoulli", "normal", "poisson", "gamma"]))
    candidates = {**_SCENARIO_VALUES[kind]}
    if kind != "cd":
        candidates.update(_SCENARIO_LAYOUTS[layout])
    items.update((key, draw(st.sampled_from(valid))) for key, valid in candidates.items())
    for key in draw(st.lists(st.sampled_from(sorted(items) + _SCENARIO_UNKNOWN), max_size=2)):
        value = draw(st.sampled_from([None] + _SCENARIO_GARBAGE))
        if value is None:
            items.pop(key, None)
        else:
            items[key] = value
    return "[scenario fuzz]\n" + "".join(f"{key} = {value}\n" for key, value in items.items())


@settings(max_examples=200, deadline=None)
@given(text=_scenario_sections())
def test_simulate_never_escapes_with_an_exception(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenarios.ini"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(["simulate", "--input", str(path), "--seed", "1", "--reps", "2"])
    assert status in (0, 1, 2), text
    if status == 0:
        assert err.getvalue() == "", text
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, text


# Every file flag, given a directory, a path under a missing directory, or a file
# that is not UTF-8 (byte 0xff). {csv}, {adjust}, {sweep} and {scenarios} are
# readable inputs; {dir} is a directory and {nodir} a path under a missing one.
_DATA_ADJUST_INI = "[confounder]\nfamily = normal\nmean = 0/1\nsd = 1\neffect = 1.2\n"
_DATA_SWEEP_INI = "[sweep]\nfamily = bernoulli\n\n[grid]\nprevalence = 0.7/0.5\neffect = 1.1\n"
_FILE_FLAG_CASES = {
    "fit-input-dir": ("fit --input {dir}", "input-not-found"),
    "fit-input-0xff": ("fit --input {bad_csv}", "parse-error"),
    "fit-output-dir": ("fit --input {csv} --output {dir}", "usage-error"),
    "fit-output-nodir": ("fit --input {csv} --output {nodir}", "usage-error"),
    "adjust-input-dir": ("adjust --input {dir}", "input-not-found"),
    "adjust-input-0xff": ("adjust --input {bad_ini}", "config-error"),
    "adjust-data-dir": ("adjust --input {data_adjust} --data {dir}", "input-not-found"),
    "adjust-data-0xff": ("adjust --input {data_adjust} --data {bad_csv}", "parse-error"),
    "adjust-output-dir": ("adjust --input {adjust} --output {dir}", "usage-error"),
    "sweep-input-dir": ("sweep --input {dir}", "input-not-found"),
    "sweep-input-0xff": ("sweep --input {bad_ini}", "config-error"),
    "sweep-data-dir": ("sweep --input {data_sweep} --data {dir}", "input-not-found"),
    "sweep-data-0xff": ("sweep --input {data_sweep} --data {bad_csv}", "parse-error"),
    "sweep-output-nodir": ("sweep --input {sweep} --output {nodir}", "usage-error"),
    "simulate-input-dir": ("simulate --input {dir} --seed 1", "input-not-found"),
    "simulate-input-0xff": ("simulate --input {bad_ini} --seed 1", "config-error"),
    "simulate-output-dir": ("simulate --input {scenarios} --seed 1 --reps 1 --output {dir}",
                            "usage-error"),
    "simulate-rep-output-nodir": (
        "simulate --input {scenarios} --seed 1 --reps 1 --rep-output {nodir}", "usage-error"),
    "diagnose-input-dir": ("diagnose --input {dir}", "input-not-found"),
    "diagnose-input-0xff": ("diagnose --input {bad_csv}", "parse-error"),
    "diagnose-output-nodir": ("diagnose --input {csv} --output {nodir}", "usage-error"),
    "synth-output-dir": ("synth --output {dir} --seed 1", "usage-error"),
    "synth-output-nodir": ("synth --output {nodir} --seed 1", "usage-error"),
}


def _file_flag_paths(tmp_path):
    paths = {"csv": _two_covariate_csv(tmp_path), "dir": tmp_path / "a_directory.csv",
             "nodir": tmp_path / "missing" / "out.csv",
             "bad_csv": tmp_path / "bad.csv", "bad_ini": tmp_path / "bad.ini"}
    paths["dir"].mkdir()
    paths["bad_csv"].write_bytes(b"cost,time,event,treat\n1,1,1,\xff0\n")
    paths["bad_ini"].write_bytes(b"[sweep]\n# \xff\nfamily = bernoulli\n")
    for name, text in (("adjust", ADJUST_INI), ("sweep", SWEEP_INI),
                       ("scenarios", SCENARIO_INI), ("data_adjust", _DATA_ADJUST_INI),
                       ("data_sweep", _DATA_SWEEP_INI)):
        paths[name] = tmp_path / f"{name}.ini"
        paths[name].write_text(text, encoding="utf-8")
    return paths


@pytest.mark.parametrize("argv, code", _FILE_FLAG_CASES.values(), ids=_FILE_FLAG_CASES.keys())
def test_each_file_flag_that_cannot_be_read_or_written_fails_with_one_error_line(
        tmp_path, capsys, argv, code):
    paths = _file_flag_paths(tmp_path)
    status, _, err = _run(capsys, *argv.format(**paths).split())
    assert status == 2
    assert err.startswith(f"error: {code}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, suffix", [
    ("fit", ".csv"), ("diagnose", ".csv"), ("adjust", ".ini"), ("sweep", ".ini"),
])
def test_inputs_with_a_utf8_byte_order_mark_read_as_without_one(tmp_path, capsys, command,
                                                                 suffix):
    plain = _two_covariate_csv(tmp_path) if suffix == ".csv" else tmp_path / "plain.ini"
    if suffix == ".ini":
        plain.write_text(ADJUST_INI if command == "adjust" else SWEEP_INI, encoding="utf-8")
    marked = tmp_path / f"marked{suffix}"
    marked.write_text("\ufeff" + plain.read_text(encoding="utf-8"), encoding="utf-8")
    first, second = (_run(capsys, command, "--input", str(path), "--format", "csv")
                     for path in (plain, marked))
    assert first[0] == 0 and first[2] == ""
    assert second == first


def test_an_ini_comment_in_utf8_reads_under_an_ascii_locale(tmp_path):
    config = tmp_path / "adjust.ini"
    config.write_bytes(("# prévalence per arm\n" + ADJUST_INI).encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-m", "costsense", "adjust", "--input", str(config),
                             "--format", "csv"], capture_output=True, text=True, env=env,
                            check=False)
    assert (result.returncode, result.stderr) == (0, "")
    assert _rows(result.stdout)[0]["prevalence_control"] == "0.7"
