"""Command-line surface: fit, adjust, sweep, simulate, diagnose, synth.

Every subcommand produces machine-readable CSV (written to --output and,
with --format csv, to stdout) alongside a human-readable rendering.
Floats in CSV keep full precision; tables round cost ratios to 2 decimals
and coefficients, correlations, and coverages to 3. Exit status is 0 on
success, 1 for estimation failures, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import astuple, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .censoring import cost_design, fit_censored_cost, fit_cost
from .config import load_adjust_config, load_scenarios, load_sweep_config
from .data import load_dataset, save_dataset, zero_cost_shift
from .diagnostics import WITHIN_STRATUM_THRESHOLD, correlation_report
from .errors import ConfigError, CostSenseError, DidNotConvergeError, EstimationError, UsageError
from .sensitivity import CONFIDENCE_LEVEL, ApparentEffect, exp_ratio, sweep, z_quantile
from .simulation import (
    ReplicationRecord,
    SimulationResult,
    aggregate,
    run_replication,
    synthetic_cohort,
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(value) for value in row])
    return buffer.getvalue()


def _render_table(header, rows) -> str:
    table = [[str(cell) for cell in header]] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for index, row in enumerate(table):
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(row))]
        lines.append("  ".join(cells).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _f2(value: float) -> str:
    return "nan" if math.isnan(value) else f"{value:.2f}"


def _f3(value: float) -> str:
    return "nan" if math.isnan(value) else f"{value:.3f}"


@contextmanager
def _writing(path):
    try:
        yield
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror}") from None


def _emit(args, header, rows, human: str) -> None:
    text = _csv_text(header, rows)
    if args.output:
        with _writing(args.output):
            Path(args.output).write_text(text, encoding="utf-8")
    if args.format == "csv":
        sys.stdout.write(text)
    else:
        print(human)


def _effective_level(args) -> float:
    level = CONFIDENCE_LEVEL if args.level is None else args.level
    if not 0.0 < level < 1.0:
        raise ConfigError(f"--level must lie strictly between 0 and 1, got {level}")
    return level


def _load_and_fit(args, path):
    dataset = load_dataset(path)
    if args.shift_zero_costs:
        dataset = zero_cost_shift(dataset)
    if args.ipw:
        fit = fit_censored_cost(dataset, stratify_censoring=args.stratify_censoring)
    else:
        fit = fit_cost(dataset, cost_design(dataset)[0], np.ones(len(dataset)))
    if not fit.converged:
        raise DidNotConvergeError(
            f"fit did not converge within {fit.iterations} iterations"
        )
    return dataset, fit


def _chosen_covariance(args, fit):
    return fit.covariance if args.variance == "sandwich" else fit.model_covariance


def cmd_fit(args) -> int:
    dataset, fit = _load_and_fit(args, args.input)
    level = _effective_level(args)
    z = z_quantile(level)
    covariance = _chosen_covariance(args, fit)
    names = ("intercept", "treat") + tuple(dataset.covariate_names)
    se = np.sqrt(np.maximum(np.diag(covariance), 0.0))

    header = ["term", "estimate", "se", "ci_low", "ci_high",
              "cost_ratio", "ratio_ci_low", "ratio_ci_high"]
    rows = []
    for name, estimate, err in zip(names, fit.coefficients, se):
        low, high = estimate - z * err, estimate + z * err
        rows.append([name, float(estimate), float(err), float(low), float(high),
                     exp_ratio(estimate), exp_ratio(low), exp_ratio(high)])

    treat = rows[1]
    human_rows = [[r[0], _f3(r[1]), _f3(r[2]), _f3(r[3]), _f3(r[4])] for r in rows]
    human = "\n".join([
        _render_table(["term", "estimate", "se", "ci_low", "ci_high"], human_rows),
        "",
        f"treatment cost ratio: {_f2(treat[5])} "
        f"({level:.0%} CI {_f2(treat[6])}, {_f2(treat[7])})",
        f"records: {len(dataset)}; censoring rate: {dataset.censoring_rate:.3f}; "
        f"effective records: {fit.n_effective}",
        f"variance: {args.variance}; converged in {fit.iterations} iterations",
    ])
    _emit(args, header, rows, human)
    return 0


def _resolve_apparent(args, from_file: ApparentEffect | None) -> ApparentEffect:
    if args.data and from_file is not None:
        raise ConfigError(
            "apparent effect given twice: drop the [apparent] section or the --data flag"
        )
    if args.data:
        _, fit = _load_and_fit(args, args.data)
        variance = float(_chosen_covariance(args, fit)[1, 1])
        if not variance > 0:
            raise EstimationError(
                f"the fit gives the treatment coefficient a variance of {variance:g}; "
                "the apparent effect needs a positive one"
            )
        return ApparentEffect(
            beta_star=float(fit.coefficients[1]),
            se=math.sqrt(variance),
            confidence_level=_effective_level(args),
        )
    if from_file is None:
        raise ConfigError(
            "no apparent effect: add an [apparent] section or pass --data DATASET"
        )
    if args.level is not None:
        return replace(from_file, confidence_level=_effective_level(args))
    return from_file


_RESULT_COLUMNS = ["beta", "se", "cost_ratio", "ci_low", "ci_high",
                   "significance_changed", "error"]


def _sweep_output(args, apparent: ApparentEffect, labels, rows, notes) -> None:
    label_keys = list(labels[0].keys()) if labels else []
    header = label_keys + _RESULT_COLUMNS
    csv_rows = []
    human_rows = []
    for label, row in zip(labels, rows):
        values = [label[key] for key in label_keys]
        if row.error is not None:
            csv_rows.append(values + [None, None, None, None, None, None, row.error])
            human_rows.append([_cell(v) for v in values] + ["-", "-", "", row.error])
            continue
        adjusted = row.adjusted
        csv_rows.append(values + [
            adjusted.beta, adjusted.se, adjusted.cost_ratio,
            adjusted.ratio_ci_low, adjusted.ratio_ci_high,
            row.significance_changed, None,
        ])
        human_rows.append(
            [_cell(v) for v in values]
            + [_f2(adjusted.cost_ratio),
               f"({_f2(adjusted.ratio_ci_low)}, {_f2(adjusted.ratio_ci_high)})",
               "*" if row.significance_changed else "",
               ""]
        )

    ratio_low, ratio_high = apparent.ratio_ci
    legend = [
        "",
        f"unadjusted: {_f2(apparent.cost_ratio)} "
        f"({apparent.confidence_level:.0%} CI {_f2(ratio_low)}, {_f2(ratio_high)})",
        "*: interval's significance differs from the unadjusted one at 2-decimal rounding",
    ]
    legend += [f"note: {note}" for note in notes]
    human = _render_table(
        label_keys + ["cost ratio", "CI", "changed", "error"], human_rows
    ) + "\n" + "\n".join(legend)
    _emit(args, header, csv_rows, human)


def cmd_adjust(args) -> int:
    from_file, model, labels = load_adjust_config(args.input)
    apparent = _resolve_apparent(args, from_file)
    rows = sweep(apparent, [model])
    _sweep_output(args, apparent, [labels], rows, notes=[])
    return 0


def cmd_sweep(args) -> int:
    config = load_sweep_config(args.input)
    apparent = _resolve_apparent(args, config.apparent)
    rows = sweep(apparent, config.models)
    _sweep_output(args, apparent, config.labels, rows, config.notes)
    return 0


def _scenario_records(scenario, replications: int, workers: int, variance: str,
                      level: float):
    worker = partial(run_replication, scenario, variance=variance, level=level)
    if workers <= 1:
        return list(map(worker, range(replications)))
    chunk = max(1, replications // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(replications), chunksize=chunk))


# CSV columns follow the result dataclasses' fields, in declaration order.
_SUMMARY_COLUMNS = ["scenario", "kind", "n"] + [f.name for f in fields(SimulationResult)]
_REPLICATION_COLUMNS = ["scenario"] + [f.name for f in fields(ReplicationRecord)]


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    if args.reps < 1:
        raise ConfigError(f"--reps must be at least 1, got {args.reps}")
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    level = _effective_level(args)
    scenarios = load_scenarios(args.input, seed=args.seed)

    summary_rows = []
    human_rows = []
    replication_rows = []
    for named in scenarios:
        scenario = named.scenario
        records = _scenario_records(scenario, args.reps, args.workers, args.variance,
                                    level)
        result = aggregate(scenario, records)
        summary_rows.append([named.name, scenario.kind, scenario.n, *astuple(result)])
        human_rows.append([
            named.name, scenario.kind,
            _f3(result.mean_beta_unadjusted), _f3(result.mean_beta_adjusted),
            _f3(result.bias_unadjusted), _f3(result.bias_adjusted),
            _f3(result.coverage_unadjusted), _f3(result.coverage_adjusted),
            str(result.convergence_failures),
        ])
        replication_rows.extend([named.name, *astuple(record)] for record in records)

    if args.rep_output:
        with _writing(args.rep_output):
            Path(args.rep_output).write_text(
                _csv_text(_REPLICATION_COLUMNS, replication_rows), encoding="utf-8"
            )
    human = _render_table(
        ["scenario", "kind", "mean unadj", "mean adj", "bias unadj",
         "bias adj", "cover unadj", "cover adj", "failures"],
        human_rows,
    )
    _emit(args, _SUMMARY_COLUMNS, summary_rows, human)
    return 0


def cmd_diagnose(args) -> int:
    dataset = load_dataset(args.input)
    method = "spearman" if args.spearman else "pearson"
    reports = correlation_report(dataset, method=method)
    header = ["covariate", "corr_unconditional", "corr_treated", "corr_control",
              "largest_individual_corr_treated", "largest_individual_corr_control",
              "flagged"]
    rows = [
        [r.covariate, r.corr_unconditional, r.corr_treated, r.corr_control,
         r.largest_individual_corr_treated, r.largest_individual_corr_control,
         r.flagged()]
        for r in reports
    ]
    human_rows = [
        [r.covariate, _f3(r.corr_unconditional), _f3(r.corr_treated),
         _f3(r.corr_control), _f3(r.largest_individual_corr_treated),
         _f3(r.largest_individual_corr_control), "*" if r.flagged() else ""]
        for r in reports
    ]
    human = "\n".join([
        _render_table(
            ["covariate", "uncond", "treated", "control",
             "max pair treated", "max pair control", "flag"],
            human_rows,
        ),
        "",
        f"correlation method: {method}; score correlations use the propensity "
        "fitted without the row's covariate",
        "max pair columns report the signed value of the largest-magnitude "
        "pairwise correlation",
        f"*: within-stratum score correlation exceeds {WITHIN_STRATUM_THRESHOLD}",
    ])
    _emit(args, header, rows, human)
    return 0


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    dataset = synthetic_cohort(args.seed)
    with _writing(args.output):
        save_dataset(args.output, dataset)
    treated = float(np.mean(dataset.treatment == 1.0))
    print(
        f"wrote {len(dataset)} records to {args.output} "
        f"({treated:.1%} treated, {dataset.censoring_rate:.1%} censored)"
    )
    return 0


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", help="write machine-readable CSV here")
    parser.add_argument("--format", choices=("csv", "table"), default="table",
                        help="what to print on stdout (default: table)")


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ipw", action=argparse.BooleanOptionalAction, default=True,
                        help="weight by inverse probability of censoring (default: on)")
    parser.add_argument("--variance", choices=("sandwich", "model"), default="sandwich",
                        help="covariance estimator (default: sandwich)")
    parser.add_argument("--level", type=float, default=None,
                        help=f"confidence level (default: {CONFIDENCE_LEVEL})")
    parser.add_argument("--stratify-censoring", action="store_true",
                        help="estimate the censoring distribution per treatment arm")
    parser.add_argument("--shift-zero-costs", action="store_true",
                        help="add half the smallest positive cost to every cost")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costsense",
        description="Sensitivity analysis of censored-cost treatment effects "
                    "to unmeasured confounding",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit the censored-cost model to a dataset")
    fit.add_argument("--input", required=True, help="dataset CSV")
    _add_fit_flags(fit)
    _add_output_flags(fit)
    fit.set_defaults(handler=cmd_fit)

    adjust = commands.add_parser("adjust", help="correct an apparent effect for one confounder")
    adjust.add_argument("--input", required=True,
                        help="INI file with [confounder] and optionally [apparent]")
    adjust.add_argument("--data", help="dataset CSV to fit the apparent effect from")
    _add_fit_flags(adjust)
    _add_output_flags(adjust)
    adjust.set_defaults(handler=cmd_adjust)

    sweep_cmd = commands.add_parser("sweep", help="correct across a grid of confounders")
    sweep_cmd.add_argument("--input", required=True,
                           help="INI file with [sweep], [grid*], and optionally [apparent]")
    sweep_cmd.add_argument("--data", help="dataset CSV to fit the apparent effect from")
    _add_fit_flags(sweep_cmd)
    _add_output_flags(sweep_cmd)
    sweep_cmd.set_defaults(handler=cmd_sweep)

    simulate = commands.add_parser(
        "simulate", help="run Monte Carlo scenario studies",
        description="Run the ci, cd and propensity scenarios of an INI file. Every kind runs "
                    "through one replication pipeline, so --workers, --variance, --level and "
                    "--rep-output apply to all of them.",
    )
    simulate.add_argument("--input", required=True, help="INI file with [scenario NAME] sections")
    simulate.add_argument("--seed", type=int, required=True, help="master seed")
    simulate.add_argument("--reps", type=int, default=1000,
                          help="replications per scenario (default: 1000)")
    simulate.add_argument("--workers", type=int, default=1,
                          help="parallel worker processes (default: 1)")
    simulate.add_argument("--variance", choices=("sandwich", "model"), default="sandwich",
                          help="covariance estimator for coverage (default: sandwich)")
    simulate.add_argument("--level", type=float, default=None,
                          help="nominal level of the covered intervals "
                               f"(default: {CONFIDENCE_LEVEL})")
    simulate.add_argument("--rep-output", help="write per-replication CSV here")
    _add_output_flags(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    diagnose = commands.add_parser("diagnose",
                                   help="leave-one-out correlation report for a dataset")
    diagnose.add_argument("--input", required=True, help="dataset CSV")
    diagnose.add_argument("--spearman", action="store_true",
                          help="rank correlations instead of Pearson")
    _add_output_flags(diagnose)
    diagnose.set_defaults(handler=cmd_diagnose)

    synth = commands.add_parser("synth", help="emit a synthetic claims-like cohort")
    synth.add_argument("--output", required=True, help="dataset CSV to write")
    synth.add_argument("--seed", type=int, required=True, help="master seed")
    synth.set_defaults(handler=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CostSenseError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
        return err.exit_status


if __name__ == "__main__":
    raise SystemExit(main())
