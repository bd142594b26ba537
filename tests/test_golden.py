"""Fixed-seed CLI output compared with the CSV fixtures in ``tests/golden``.

The fixtures hold ``fit``, ``sweep`` and ``diagnose`` on ``synth --seed
20261018`` and ``simulate`` on ``golden/scenarios.ini`` (one censored CI
scenario, one CD scenario, three propensity scenarios), as written before
propensity studies ran through the shared replication pipeline, and
``diagnose --spearman`` on the same cohort, as written before the pairwise
correlations were read from one matrix per arm. Numeric cells are compared
at 10 significant digits; text cells exactly.

Two differences are expected and exempt. Propensity summary rows now fill
the columns the separate propensity study left empty, and the
per-replication CSV now holds propensity rows, which it did not before.

The summary fixture was later extended, not regenerated, by one column,
``mc_standard_error_unadjusted``, and that column was later removed again,
with every other cell kept: the unadjusted estimates differ from the
adjusted ones by a constant per scenario, so the column only repeated
``mc_standard_error``.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import pytest

from costsense.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEED = "20261018"
DIGITS = 10

NEWLY_FILLED_PROPENSITY_COLUMNS = {
    "regenerated", "coverage_unadjusted", "coverage_adjusted", "max_within_stratum_corr",
}


def _rounded(cell: str) -> str:
    try:
        return format(float(cell), f".{DIGITS}g")
    except ValueError:
        return cell


def _table(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _assert_matches(actual: list[list[str]], fixture: str, exempt=lambda row, column: False):
    expected = _table((GOLDEN / fixture).read_text(encoding="utf-8"))
    header = expected[0]
    assert actual[0] == header, fixture
    assert len(actual) == len(expected), fixture
    for want, got in zip(expected[1:], actual[1:]):
        for column, want_cell, got_cell in zip(header, want, got):
            if exempt(want, column):
                continue
            assert _rounded(got_cell) == _rounded(want_cell), (fixture, want[0], column)


def _run(capsys, *argv) -> None:
    assert main(list(argv)) == 0
    capsys.readouterr()


@pytest.fixture
def cohort(tmp_path, capsys):
    path = tmp_path / "cohort.csv"
    _run(capsys, "synth", "--output", str(path), "--seed", SEED)
    return path


def test_fit_sweep_diagnose_match_fixtures(cohort, tmp_path, capsys):
    commands = {
        "fit.csv": ["fit", "--input", str(cohort), "--shift-zero-costs"],
        "sweep.csv": ["sweep", "--input", str(GOLDEN / "sweep.ini"), "--data", str(cohort),
                      "--shift-zero-costs"],
        "diagnose.csv": ["diagnose", "--input", str(cohort)],
    }
    for fixture, argv in commands.items():
        out = tmp_path / fixture
        _run(capsys, *argv, "--output", str(out))
        _assert_matches(_table(out.read_text(encoding="utf-8")), fixture)


def test_diagnose_spearman_matches_fixture(cohort, tmp_path, capsys):
    """``diagnose --spearman`` against output captured before the pairwise
    correlations were read from one rank correlation matrix per arm.

    The fixture guards that rewritten rank path: the within-arm ranks and
    the largest-magnitude pairwise pick.
    """
    out = tmp_path / "diagnose_spearman.csv"
    _run(capsys, "diagnose", "--input", str(cohort), "--spearman", "--output", str(out))
    _assert_matches(_table(out.read_text(encoding="utf-8")), "diagnose_spearman.csv")


def test_simulate_matches_fixtures(tmp_path, capsys):
    summary, reps = tmp_path / "summary.csv", tmp_path / "reps.csv"
    _run(capsys, "simulate", "--input", str(GOLDEN / "scenarios.ini"), "--seed", SEED,
         "--reps", "8", "--output", str(summary), "--rep-output", str(reps))

    summary_rows = _table(summary.read_text(encoding="utf-8"))
    kind = summary_rows[0].index("kind")
    _assert_matches(
        summary_rows, "simulate_summary.csv",
        exempt=lambda row, column: (row[kind] == "propensity"
                                    and column in NEWLY_FILLED_PROPENSITY_COLUMNS),
    )
    propensity = {row[0] for row in summary_rows[1:] if row[kind] == "propensity"}
    for row in summary_rows[1:]:
        if row[0] in propensity:
            assert all(cell != "" for cell in row), row[0]

    rep_rows = _table(reps.read_text(encoding="utf-8"))
    _assert_matches([row for row in rep_rows if row[0] not in propensity],
                    "simulate_reps.csv")
    assert sum(row[0] in propensity for row in rep_rows) == 8 * len(propensity)
