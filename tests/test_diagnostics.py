from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import rankdata

from costsense import (
    CostDataset,
    EmptyFitError,
    Family,
    SchemaError,
    SeparationError,
    WITHIN_STRATUM_THRESHOLD,
    correlation_report,
    irls_fit,
    loo_correlation_report,
)
from costsense.diagnostics import CorrelationReport, _average_ranks, _corr, _largest_pairwise
from costsense import glm
from costsense.glm import DesignSpec


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
    fit = irls_fit(DesignSpec(response=ds.treatment, design=design, weights=np.ones(len(ds)),
                              family=Family.LOGIT_BINOMIAL))
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
    with pytest.raises(KeyError, match="z9"):
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


def _first_largest(correlations):
    best = float("nan")
    for r in correlations:
        if not np.isnan(r) and (np.isnan(best) or abs(r) > abs(best)):
            best = r
    return best


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
    reference = _pairwise_reference(column, others, method)
    best = _first_largest(reference)
    got = _largest_pairwise(column, others, method)
    if np.isnan(best):
        assert np.isnan(got)
        return
    # Pairs whose magnitudes agree to 1e-12 are a tie up to rounding, which
    # the two computations may break differently; exact ties are tested below.
    tied = [r for r in reference if not np.isnan(r) and abs(abs(r) - abs(best)) <= 1e-12]
    assert any(abs(got - r) <= 1e-12 for r in tied), (got, reference)
    if len(set(tied)) == 1:
        assert abs(got - best) <= 1e-12


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
