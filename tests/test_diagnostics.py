from __future__ import annotations

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import rankdata

from costsense import (
    CostDataset,
    EmptyFitError,
    SchemaError,
    SeparationError,
    SingularDesignError,
    WITHIN_STRATUM_THRESHOLD,
    correlation_report,
    loo_correlation_report,
    save_dataset,
)
from costsense.diagnostics import (
    CorrelationReport,
    _average_ranks,
    _corr,
    _correlations,
    _largest,
    _raise_on_separation,
    _report_cells,
)
from costsense import diagnostics, glm
from costsense.cli import main
from costsense.glm import Family, irls_fit, logit_leave_one_out, logit_scores


def _dataset(treatment, covariates, names=None):
    covariates = np.asarray(covariates, dtype=np.float64)
    n = covariates.shape[0]
    if names is None:
        names = tuple(f"z{j + 1}" for j in range(covariates.shape[1]))
    return CostDataset(
        cost=np.full(n, 10.0),
        time=np.ones(n),
        uncensored=np.ones(n, dtype=bool),
        treatment=np.asarray(treatment, dtype=np.int64),
        covariates=covariates,
        covariate_names=names,
    )


def _logistic_design(seed, n, slopes, intercept=0.0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, len(slopes)))
    p = expit(intercept + z @ np.asarray(slopes))
    x = (rng.uniform(size=n) < p).astype(np.int64)
    return _dataset(x, z), z, x


def _logit_scores(ds):
    design = np.column_stack([np.ones(len(ds)), ds.covariates])
    fit = irls_fit(ds.treatment.astype(np.float64), design, np.ones(len(ds)),
                   Family.LOGIT_BINOMIAL)
    return expit(design @ fit.coefficients)


def test_scores_average_to_the_treated_share():
    ds, _, x = _logistic_design(1, 4000, [0.0, 0.0])
    scores = _logit_scores(ds)
    # The logistic score equation forces fitted probabilities to average
    # to the observed share.
    assert scores.mean() == pytest.approx(x.mean(), abs=1e-8)
    assert np.all(scores > 0.0) and np.all(scores < 1.0)
    assert scores.std() < 0.05


def test_scores_are_monotone_in_a_single_strong_covariate():
    ds, z, _ = _logistic_design(2, 1500, [1.5])
    scores = _logit_scores(ds)
    order = np.argsort(z[:, 0])
    assert np.all(np.diff(scores[order]) >= 0.0)


def test_perfect_separation_names_the_covariate_and_direction():
    rng = np.random.default_rng(3)
    n = 200
    noise = rng.normal(size=n)
    z1 = np.concatenate([rng.uniform(-2.0, -0.1, n // 2), rng.uniform(0.1, 2.0, n // 2)])
    x = (z1 > 0.0).astype(np.int64)
    left_out = rng.normal(size=n)
    ds = _dataset(x, np.column_stack([z1, noise, left_out]))
    # Leaving out the last column fits the score on z1 and the noise.
    with pytest.raises(SeparationError, match="increasing 'z1'"):
        loo_correlation_report(ds, "z3")


def test_separation_names_the_first_covariate_whose_arm_ranges_do_not_overlap():
    response = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    scores = np.where(response == 1.0, 1.0, 0.0)
    overlapping = [0.5, -1.0, 2.0, 0.0, 1.0, -2.0]
    lower_when_treated = [-3.0, -2.0, -2.5, 1.0, 0.0, 2.0]
    higher_when_treated = [5.0, 6.0, 7.0, 1.0, 2.0, 3.0]
    covariates = np.column_stack([overlapping, higher_when_treated, lower_when_treated])
    message = "treatment arms are perfectly separated"
    with pytest.raises(SeparationError) as raised:
        _raise_on_separation(response, scores, covariates[:, [0, 2, 1]], ["a", "b", "c"])
    assert str(raised.value) == f"{message}; first separating covariate is decreasing 'b'"
    with pytest.raises(SeparationError) as raised:
        _raise_on_separation(response, scores, covariates, ["a", "b", "c"])
    assert str(raised.value) == f"{message}; first separating covariate is increasing 'b'"
    # Ranges that only touch overlap; the arms split on the sum alone.
    touching = np.column_stack([[1.0, 0.0, 2.0, 1.0, -1.0, 0.0], [0.0, 2.0, 0.0, -1.0, 1.0, -2.0]])
    with pytest.raises(SeparationError) as raised:
        _raise_on_separation(response, scores, touching, ["a", "b"])
    assert str(raised.value) == message
    _raise_on_separation(response, np.full(6, 0.5), covariates, ["a", "b", "c"])


def test_one_armed_dataset_raises_empty_fit():
    ds = _dataset([1, 1, 1, 1], np.random.default_rng(0).normal(size=(4, 1)))
    with pytest.raises(EmptyFitError):
        loo_correlation_report(ds, "z1")


def test_loo_report_unrelated_covariate_stays_small():
    rng = np.random.default_rng(4)
    n = 5000
    z = rng.normal(size=(n, 3))
    p = expit(0.4 * z[:, 1] + 0.4 * z[:, 2])
    x = (rng.uniform(size=n) < p).astype(np.int64)
    report = loo_correlation_report(_dataset(x, z), "z1")
    assert abs(report.corr_unconditional) < 0.05
    assert abs(report.corr_treated) < 0.05
    assert abs(report.corr_control) < 0.05
    assert not report.flagged()


def test_loo_report_recovers_a_planted_correlation():
    # z1 loads on the index (z2 + z3) that also drives treatment; compare
    # the report against a brute-force oracle computed from the true
    # propensity on a much larger draw from the same law.
    rho, slope = 0.45, 0.3

    def draw(seed, n):
        rng = np.random.default_rng(seed)
        z2, z3 = rng.normal(size=(2, n))
        index = (z2 + z3) / math.sqrt(2.0)
        z1 = rho * index + math.sqrt(1.0 - rho * rho) * rng.normal(size=n)
        p = expit(slope * (z2 + z3))
        x = (rng.uniform(size=n) < p).astype(np.int64)
        return z1, z2, z3, p, x

    z1, z2, z3, p, x = draw(900, 400000)
    oracle_treated = float(np.corrcoef(z1[x == 1], p[x == 1])[0, 1])
    oracle_control = float(np.corrcoef(z1[x == 0], p[x == 0])[0, 1])

    z1s, z2s, z3s, _, xs = draw(901, 5000)
    ds = _dataset(xs, np.column_stack([z1s, z2s, z3s]))
    report = loo_correlation_report(ds, "z1")
    for got, want, count in (
        (report.corr_treated, oracle_treated, (xs == 1).sum()),
        (report.corr_control, oracle_control, (xs == 0).sum()),
    ):
        mc_se = (1.0 - want * want) / math.sqrt(count)
        assert abs(got - want) < 3.0 * mc_se
    assert report.flagged()


def test_report_is_invariant_to_affine_rescaling_of_other_covariates():
    ds, z, x = _logistic_design(5, 1200, [0.5, -0.5, 0.2])
    base = loo_correlation_report(ds, "z1")
    rescaled = _dataset(x, np.column_stack([z[:, 0], 100.0 * z[:, 1] - 7.0, z[:, 2]]))
    moved = loo_correlation_report(rescaled, "z1")
    assert moved.corr_treated == pytest.approx(base.corr_treated, abs=1e-6)
    assert moved.corr_control == pytest.approx(base.corr_control, abs=1e-6)
    # Positive affine rescaling of the covariate itself is also neutral
    # for Pearson correlations.
    scaled_self = _dataset(x, np.column_stack([3.0 * z[:, 0] + 2.0, z[:, 1], z[:, 2]]))
    moved_self = loo_correlation_report(scaled_self, "z1")
    assert moved_self.corr_treated == pytest.approx(base.corr_treated, abs=1e-9)


def test_spearman_method_is_rank_based():
    ds, z, x = _logistic_design(6, 800, [0.8, 0.3])
    pearson = loo_correlation_report(ds, "z1", method="pearson")
    spearman = loo_correlation_report(ds, "z1", method="spearman")
    assert pearson.corr_unconditional != spearman.corr_unconditional
    # A monotone transform of the covariate changes Pearson but not
    # Spearman.
    warped = _dataset(x, np.column_stack([np.exp(z[:, 0]), z[:, 1]]))
    warped_spearman = loo_correlation_report(warped, "z1", method="spearman")
    assert warped_spearman.corr_unconditional == pytest.approx(
        spearman.corr_unconditional, abs=1e-12
    )


def test_report_validation_errors():
    ds, _, _ = _logistic_design(7, 100, [0.2, 0.2])
    with pytest.raises(SchemaError, match="z9"):
        loo_correlation_report(ds, "z9")
    with pytest.raises(ValueError, match="method"):
        loo_correlation_report(ds, "z1", method="kendall")
    single, _, _ = _logistic_design(8, 100, [0.2])
    with pytest.raises(SchemaError, match="at least 2"):
        loo_correlation_report(single, "z1")


def test_constant_covariate_within_a_stratum_yields_nan_cell():
    rng = np.random.default_rng(9)
    n = 400
    z2 = rng.normal(size=n)
    x = (rng.uniform(size=n) < expit(0.5 * z2)).astype(np.int64)
    # z1 varies only among controls.
    z1 = np.where(x == 1, 5.0, rng.normal(size=n))
    report = loo_correlation_report(_dataset(x, np.column_stack([z1, z2])), "z1")
    assert math.isnan(report.corr_treated)
    assert not math.isnan(report.corr_control)


def test_full_report_covers_every_covariate_in_order():
    ds, _, _ = _logistic_design(10, 600, [0.3, -0.2, 0.1])
    reports = correlation_report(ds)
    assert [r.covariate for r in reports] == ["z1", "z2", "z3"]
    spearman_reports = correlation_report(ds, method="spearman")
    assert len(spearman_reports) == 3


def test_leave_one_out_fits_compute_no_covariance(monkeypatch):
    def refuse(*args):
        raise AssertionError("a leave-one-out fit computed a covariance")

    monkeypatch.setattr(glm, "sandwich_covariance", refuse)
    monkeypatch.setattr(glm, "model_covariance", refuse)
    ds, _, _ = _logistic_design(10, 600, [0.3, -0.2, 0.1])
    assert [r.covariate for r in correlation_report(ds)] == ["z1", "z2", "z3"]


def _canonical(ds):
    """Treatment and covariates of ``ds`` in the order ``correlation_report`` visits them."""
    order = np.lexsort((*ds.covariates.T[::-1], ds.treatment))
    return ds.treatment[order].astype(np.float64), ds.covariates[order]


def _stacked(ds):
    """``correlation_report``'s stacked leave-one-out fits of ``ds``."""
    response, covariates = _canonical(ds)
    design = np.column_stack([np.ones(len(response)), covariates])
    return logit_leave_one_out(response, design, range(1, covariates.shape[1] + 1))


def _stand_alone(response, covariates):
    """The fit :func:`logit_scores` makes, with its iteration count."""
    n = len(response)
    rows = glm._canonical_rows(np.asarray(response, dtype=np.float64),
                               np.column_stack([np.ones(n), covariates]), np.ones(n))
    coefficients, converged, iterations = glm._newton(Family.LOGIT_BINOMIAL, *rows)[:3]
    np.testing.assert_array_equal(coefficients, logit_scores(response, covariates)[1])
    return coefficients, converged, iterations


@st.composite
def _propensity_problems(draw):
    """Small two-armed datasets: normal or tied integer covariates, one of
    which may be replaced by a dependent column, by the treatment itself, or
    by a binary column that is 1 only among some of the treated."""
    n = draw(st.integers(6, 30))
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    treated = draw(st.integers(1, n - 1))
    x = rng.permutation(np.arange(n) < treated).astype(np.int64)
    if draw(st.booleans()):
        distinct = rng.integers(-2, 3, size=(draw(st.integers(2, n)), k)).astype(np.float64)
        z = distinct[rng.integers(0, len(distinct), size=n)]
    else:
        z = rng.normal(size=(n, k))
    column = draw(st.integers(0, k - 1))
    special = draw(st.sampled_from(["none", "dependent", "treatment", "quasi"]))
    if special == "dependent":
        # With three or more columns, leaving out any of the three involved
        # restores full rank.
        z[:, column] = 2.0 * z[:, (column + 1) % k] - 1.0
        if k > 2:
            z[:, column] += z[:, (column + 2) % k]
    elif special == "treatment":
        z[:, column] = x
    elif special == "quasi":
        z[:, column] = (x == 1) & (rng.uniform(size=n) < 0.5)
    return _dataset(x, z)


@settings(max_examples=100, deadline=None)
@given(ds=_propensity_problems())
def test_stacked_fits_equal_stand_alone_fits(ds):
    coefficients, converged, iterations, singular = _stacked(ds)
    response = ds.treatment.astype(np.float64)
    names = list(ds.covariate_names)
    # The first error in covariate order, and the problem that raised it.
    first_error, first = None, None
    for j in range(len(names)):
        keep = [i for i in range(len(names)) if i != j]
        try:
            coef, conv, its = _stand_alone(ds.treatment, ds.covariates[:, keep])
        except SingularDesignError as error:
            assert singular[j]
            if first_error is None:
                first_error, first = error, j
            continue
        assert not singular[j]
        design = np.column_stack([np.ones(len(ds)), ds.covariates[:, keep]])
        # Without a finite maximum likelihood estimate (separation) the
        # iteration diverges, and rounding decides where it stops and whether
        # a step first falls under the tolerance: over 200 row orders, _newton alone
        # stopped one six-record separated problem anywhere from 40 to 68
        # iterations, and called a quasi-separated one converged in 18 of them.
        # A fit that converges with every linear predictor within 20 of 0 has
        # an estimate, and there the two must agree.
        if conv and np.abs(design @ coef).max() <= 20.0:
            assert converged[j] and its == iterations[j]
            stacked = np.delete(coefficients[j], j + 1)
            assert np.all(np.abs(stacked - coef) <= 1e-10 * np.maximum(1.0, np.abs(coef)))
        if first_error is None:
            try:
                _raise_on_separation(response, expit(design @ coef),
                                     ds.covariates[:, keep], [names[i] for i in keep])
            except SeparationError as error:
                first_error, first = error, j
    if first_error is None:
        assert [r.covariate for r in correlation_report(ds)] == names
        return
    with pytest.raises(type(first_error)) as raised:
        correlation_report(ds)
    if isinstance(first_error, SeparationError):
        # The same problem separates first.
        sorted_response, covariates = _canonical(ds)
        design = np.column_stack([np.ones(len(ds)), covariates])
        scores = expit(coefficients @ design.T)
        treated = sorted_response == 1.0
        split = (scores[:, treated].min(axis=1) > 1.0 - 1e-6) & (scores[:, ~treated].max(axis=1) < 1e-6)
        assert split[first] and not split[:first].any()
    # The covariate a separation message names is picked by the data, not by
    # the iterate, so the stacked and stand-alone messages agree exactly.
    assert str(raised.value) == str(first_error)


@settings(max_examples=60, deadline=None)
@given(ds=_propensity_problems())
def test_stacked_breads_equal_the_per_problem_products(ds):
    built = []
    original = glm._breads

    def recording_breads(XT, info, cut):
        breads = original(XT, info, cut)
        built.append((XT.T.copy(), info.copy(), cut, breads))
        return breads

    with mock.patch.object(glm, "_breads", recording_breads):
        _stacked(ds)
    for X, info, cut, breads in built:
        for bread, w, c in zip(breads, info, cut):
            want = ((X.T * w) @ X)[np.ix_(c, c)]
            # Rounding error is bounded relative to the sum of the magnitudes.
            scale = ((np.abs(X).T * w) @ np.abs(X))[np.ix_(c, c)]
            assert np.all(np.abs(bread - want) <= 1e-13 * scale)
            np.testing.assert_array_equal(bread, bread.T)


def test_correlation_report_builds_three_correlation_matrices(monkeypatch):
    # Pooled, treated and control, each over every covariate and every score:
    # no per-pair correlation is computed.
    shapes = []
    original = diagnostics._correlations

    def counting_correlations(rows, method):
        shapes.append(rows.shape)
        return original(rows, method)

    monkeypatch.setattr(diagnostics, "_correlations", counting_correlations)
    ds, _, x = _logistic_design(10, 600, [0.3, -0.2, 0.1])
    assert len(correlation_report(ds)) == 3
    assert shapes == [(6, 600), (6, int(x.sum())), (6, 600 - int(x.sum()))]


def test_dependent_column_leaves_the_other_problems_fitted():
    # z3 = z1 + z2: the full design is rank deficient, but leaving out any of
    # the three restores full rank; leaving out z4 does not.
    rng = np.random.default_rng(11)
    z = rng.normal(size=(80, 4))
    z[:, 2] = z[:, 0] + z[:, 1]
    x = (rng.uniform(size=80) < expit(0.5 * z[:, 0])).astype(np.int64)
    ds = _dataset(x, z)
    _, converged, _, singular = _stacked(ds)
    assert singular.tolist() == [False, False, False, True]
    assert converged[:3].all()
    with pytest.raises(SingularDesignError, match="rank deficient"):
        correlation_report(ds)
    assert loo_correlation_report(ds, "z1").covariate == "z1"


def test_quasi_separated_fits_report_their_last_iterate(tmp_path):
    # A binary covariate that is 1 only among some of the treated drives every
    # fit that keeps it towards infinity; each stops, unconverged, on a
    # singular solve once its treated probabilities round to 1. The reports
    # still come from those last iterates, marked unconverged, and no error
    # is raised.
    rng = np.random.default_rng(12)
    n = 300
    z = rng.normal(size=(n, 3))
    x = (rng.uniform(size=n) < expit(0.5 * z[:, 0])).astype(np.int64)
    only_treated = (x == 1) & (rng.uniform(size=n) < 0.3)
    ds = _dataset(x, np.column_stack([z, only_treated]))
    coefficients, converged, iterations, singular = _stacked(ds)
    assert converged.tolist() == [False, False, False, True]
    assert not singular.any() and (iterations[:3] > 30).all()
    reports = correlation_report(ds)
    assert [r.covariate for r in reports] == ["z1", "z2", "z3", "z4"]
    assert [r.converged for r in reports] == [False, False, False, True]
    path = tmp_path / "quasi.csv"
    save_dataset(path, ds)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["diagnose", "--input", str(path)]) == 0
    assert out.getvalue().splitlines()[-1] == (
        "unconverged fits, reported from their last iterate: z1, z2, z3")
    response, covariates = _canonical(ds)
    design = np.column_stack([np.ones(n), covariates])
    scores = expit(coefficients @ design.T)
    for j, report in enumerate(reports[:3]):
        assert report.corr_unconditional == pytest.approx(
            float(np.corrcoef(covariates[:, j], scores[j])[0, 1]), abs=1e-12)


@st.composite
def _shuffled_cohorts(draw):
    n = draw(st.integers(8, 60))
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(n, k))
    if draw(st.booleans()):
        z = np.round(z)
    x = (rng.uniform(size=n) < expit(0.4 * z[:, 0])).astype(np.int64)
    x[:2] = [0, 1]
    return _dataset(x, z), rng.permutation(n)


@settings(max_examples=40, deadline=None)
@given(case=_shuffled_cohorts())
def test_diagnose_output_is_invariant_to_row_order(case):
    ds, permutation = case
    shuffled = _dataset(ds.treatment[permutation], ds.covariates[permutation])
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in (("rows.csv", ds), ("shuffled.csv", shuffled)):
            path = Path(tmp) / name
            save_dataset(path, data)
            for flags in ([], ["--spearman"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = main(["diagnose", "--input", str(path), "--format", "csv", *flags])
                outputs.append((status, out.getvalue(), err.getvalue()))
    assert outputs[:2] == outputs[2:]


def test_flagged_threshold_boundary():
    def report_with(corr):
        return CorrelationReport(
            covariate="z1",
            corr_unconditional=corr,
            corr_treated=corr,
            corr_control=0.0,
            largest_individual_corr_treated=float("nan"),
            largest_individual_corr_control=float("nan"),
        )

    assert WITHIN_STRATUM_THRESHOLD == 0.15
    assert report_with(0.16).flagged()
    assert report_with(-0.16).flagged()
    assert not report_with(0.14).flagged()
    assert not report_with(0.15).flagged()
    nan_report = CorrelationReport(
        covariate="z1",
        corr_unconditional=float("nan"),
        corr_treated=float("nan"),
        corr_control=float("nan"),
        largest_individual_corr_treated=float("nan"),
        largest_individual_corr_control=float("nan"),
    )
    assert not nan_report.flagged()


@given(st.lists(st.integers(-3, 3) | st.sampled_from([0.5, 1e-300, -2.25]), min_size=1, max_size=60))
def test_average_ranks_equal_scipy_rankdata(values):
    a = np.asarray(values, dtype=np.float64)
    np.testing.assert_array_equal(_average_ranks(a), rankdata(a))


def _pairwise_reference(column, others, method):
    """Every pair's correlation through :func:`_corr`, one pair at a time."""
    return [_corr(column, others[:, j], method) for j in range(others.shape[1])]


def _largest_pairwise(column, others, method):
    """The largest-magnitude correlation of ``column`` with a column of
    ``others``, read as ``correlation_report`` reads it: from the first row
    of one correlation matrix."""
    return _largest(_correlations(np.vstack([column, others.T]), method)[0, 1:])


def _first_largest(correlations):
    best = float("nan")
    for r in correlations:
        if not np.isnan(r) and (np.isnan(best) or abs(r) > abs(best)):
            best = r
    return best


def _assert_largest_agrees(got, reference):
    """``got`` is a largest-magnitude pick from the per-pair ``reference``.
    Magnitudes that agree to 1e-12 are a tie up to rounding, which the two
    computations may break differently."""
    best = _first_largest(reference)
    assert np.isnan(got) == np.isnan(best)
    if not np.isnan(best):
        tied = [r for r in reference if not np.isnan(r) and abs(abs(r) - abs(best)) <= 1e-12]
        assert any(abs(got - r) <= 1e-12 for r in tied), (got, reference)


@given(st.integers(0, 12), st.integers(1, 5), st.sampled_from(["pearson", "spearman"]),
       st.data())
def test_largest_pairwise_equals_the_per_pair_loop(n, k, method, data):
    # Small integers and halves give constant columns, ties and repeated
    # columns; their means are exact, so "constant" means the same to both.
    values = st.integers(-2, 2).map(float) | st.sampled_from([0.5, -1.5])
    rows = data.draw(st.lists(st.lists(values, min_size=k + 1, max_size=k + 1),
                              min_size=n, max_size=n))
    table = np.array(rows, dtype=np.float64).reshape(n, k + 1)
    column, others = table[:, 0], table[:, 1:]
    # Exact ties are tested below.
    _assert_largest_agrees(_largest_pairwise(column, others, method),
                           _pairwise_reference(column, others, method))


@st.composite
def _report_inputs(draw):
    """Covariates, one score row per wanted covariate and a treated mask, with
    arms of any size (under 3 records too), ties on half-integers, and columns
    that are constant, constant in the treated arm, or near 1e200, where sums
    of squares overflow."""
    n, k = draw(st.integers(0, 14)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wanted = [int(j) for j in rng.permutation(k)[:draw(st.integers(1, k))]]
    table = rng.normal(size=(n, k + len(wanted)))
    if draw(st.booleans()):
        table = np.round(2.0 * table) / 2.0
    treated = rng.uniform(size=n) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    for column in draw(st.lists(st.integers(0, table.shape[1] - 1), max_size=3)):
        shape = draw(st.sampled_from(["constant", "constant when treated", "huge"]))
        if shape == "constant":
            table[:, column] = 0.1
        elif shape == "constant when treated":
            table[treated, column] = 3.0
        else:
            table[:, column] = 1e200 * rng.normal(size=n)
    return table[:, :k], table[:, k:].T.copy(), treated, wanted


@settings(max_examples=200, deadline=None)
@given(inputs=_report_inputs(), method=st.sampled_from(["pearson", "spearman"]))
def test_report_cells_equal_the_per_pair_path(inputs, method):
    covariates, scores, treated, wanted = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = _report_cells(covariates, scores, treated, wanted, method)
    everyone = np.ones(len(treated), dtype=bool)
    for i, j in enumerate(wanted):
        for cell, arm in zip(cells[i, :3], (everyone, treated, ~treated)):
            want = _corr(covariates[arm, j], scores[i, arm], method)
            assert np.isnan(cell) == np.isnan(want)
            assert np.isnan(want) or abs(cell - want) <= 1e-12
        others = np.delete(covariates, j, axis=1)
        for cell, arm in zip(cells[i, 3:], (treated, ~treated)):
            _assert_largest_agrees(cell, _pairwise_reference(covariates[arm, j], others[arm], method))


@pytest.mark.parametrize("method", ["pearson", "spearman"])
def test_largest_pairwise_exact_tie_goes_to_the_first_column(method):
    # Complementary binary columns with exactly half ones: centred, one is
    # the exact negative of the other, so |r| ties bit for bit.
    rng = np.random.default_rng(5)
    column = rng.normal(size=40)
    b = rng.permutation(np.repeat([0.0, 1.0], 20))
    constant = np.full(40, 3.0)
    for others in ([b, 1.0 - b], [1.0 - b, b], [constant, 1.0 - b, b]):
        others = np.column_stack(others)
        reference = _pairwise_reference(column, others, method)
        first = next(r for r in reference if not np.isnan(r))
        assert _first_largest(reference) == first
        # The tied pair has opposite signs, so the sign shows which column won.
        assert _largest_pairwise(column, others, method) == pytest.approx(first, abs=1e-12)
    assert np.isnan(_largest_pairwise(constant, np.column_stack([b, column]), method))
    # A constant column is skipped even when its computed mean is not exactly
    # its value (three 0.1s), where a spread test would see rounding noise.
    tenths = np.full(3, 0.1)
    assert np.isnan(_largest_pairwise(column[:3], tenths[:, None], method))
    assert np.isnan(_largest_pairwise(tenths, column[:3, None], method))
    assert np.isnan(_largest_pairwise(column[:2], np.column_stack([b, 1.0 - b])[:2], method))


@pytest.mark.parametrize("method", ["pearson", "spearman"])
def test_moments_beyond_the_float_range_give_nan_quietly(method):
    # Ranks never overflow, so Spearman still correlates the huge column.
    huge = np.tile([1e300, -1e300], 4)
    other = np.array([0.3, -1.2, 0.5, 2.0, -0.7, 1.1, -0.4, 0.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corr = _corr(huge, other, method)
        largest = _largest_pairwise(other, huge[:, None], method)
    if method == "pearson":
        # NaN, not the 0 that dividing by an infinite spread would give.
        assert np.isnan(corr) and np.isnan(largest)
    else:
        reference = _corr(np.sign(huge), other, "spearman")
        assert corr == pytest.approx(reference, abs=1e-12)
        assert largest == pytest.approx(reference, abs=1e-12)
