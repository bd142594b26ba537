from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from costsense import (
    CIScenario,
    ConfounderFamily,
    CostDataset,
    EmptyDatasetError,
    NormalParams,
    ZeroProbabilityError,
    fit_censored_cost,
    fit_cost,
    generate_ci_dataset,
    ipw_weights,
    km_censoring_survival,
)
from costsense.censoring import StepSurvival, _weights_from_survival, cost_design
from costsense.glm import DesignSpec, Family, irls_fit
from helpers import random_cost_dataset


def _dataset(times, uncensored, treatment=None, cost=None):
    times = np.asarray(times, dtype=np.float64)
    n = len(times)
    if treatment is None:
        treatment = np.arange(n) % 2
    if cost is None:
        cost = np.linspace(10.0, 20.0, n)
    return CostDataset(
        cost=np.asarray(cost, dtype=np.float64),
        time=times,
        uncensored=np.asarray(uncensored, dtype=bool),
        treatment=np.asarray(treatment, dtype=np.int64),
        covariates=np.zeros((n, 0)),
        covariate_names=(),
    )


def test_km_hand_example_single_jump():
    surv = km_censoring_survival([1.0, 2.0, 3.0, 4.0], [True, False, True, True])
    np.testing.assert_array_equal(surv.jump_times, [2.0])
    np.testing.assert_allclose(surv.values, [2.0 / 3.0])
    # Right-continuous: the value applies at the jump itself.
    assert surv.evaluate(1.999) == 1.0
    assert surv.evaluate(2.0) == pytest.approx(2.0 / 3.0)
    assert surv.evaluate(100.0) == pytest.approx(2.0 / 3.0)


def test_km_no_censoring_is_constant_one():
    surv = km_censoring_survival([1.0, 2.0, 3.0], [True, True, True])
    assert surv.jump_times.size == 0
    np.testing.assert_array_equal(surv.evaluate([0.5, 2.0, 99.0]), [1.0, 1.0, 1.0])


def test_km_all_censored_steps_to_zero():
    surv = km_censoring_survival([1.0, 2.0, 3.0, 4.0], [False] * 4)
    np.testing.assert_array_equal(surv.jump_times, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(surv.values, [3.0 / 4.0, 1.0 / 2.0, 1.0 / 4.0, 0.0])


def test_km_failures_stay_in_risk_set_at_tied_times():
    # A failure and a censoring share t=1; the failure still counts as at
    # risk for that censoring event, so the factor is 1 - 1/3.
    surv = km_censoring_survival([1.0, 1.0, 2.0], [True, False, True])
    np.testing.assert_array_equal(surv.jump_times, [1.0])
    np.testing.assert_allclose(surv.values, [2.0 / 3.0])


def test_ipw_weights_hand_example():
    ds = _dataset([1.0, 2.0, 3.0, 4.0], [True, False, True, True])
    np.testing.assert_allclose(ipw_weights(ds), [1.0, 0.0, 1.5, 1.5])


def test_ipw_weights_uncensored_data_all_ones():
    ds = _dataset([1.0, 2.0, 3.0], [True, True, True])
    np.testing.assert_array_equal(ipw_weights(ds), [1.0, 1.0, 1.0])


def test_ipw_weight_at_tied_failure_uses_right_continuous_value():
    ds = _dataset([1.0, 1.0, 2.0], [True, False, True])
    np.testing.assert_allclose(ipw_weights(ds), [1.5, 0.0, 1.5])


def test_stratified_weights_use_arm_specific_curves():
    # Censoring happens only in the control arm, so stratified treated
    # weights are all exactly one.
    times = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
    unc = [True, False, True, True, True, True]
    arm = [0, 0, 0, 1, 1, 1]
    ds = _dataset(times, unc, treatment=arm)
    pooled = ipw_weights(ds)
    stratified = ipw_weights(ds, stratify_by_arm=True)
    np.testing.assert_array_equal(stratified[3:], [1.0, 1.0, 1.0])
    assert not np.array_equal(pooled, stratified)


def test_zero_probability_error_names_the_record():
    # The pooled estimate from a dataset's own records can never zero out
    # one of its uncensored times, so drive the guard with a foreign curve.
    curve = StepSurvival(jump_times=np.array([2.0]), values=np.array([0.0]))
    with pytest.raises(ZeroProbabilityError) as excinfo:
        _weights_from_survival(
            np.array([1.0, 3.0]), np.array([True, True]), curve
        )
    assert excinfo.value.record == 1
    assert "record 1" in str(excinfo.value)


def test_censoring_beyond_every_uncensored_time_moves_no_weight():
    # Jumps after the last failure sit beyond every evaluated time, so
    # appending still-later censored records leaves the weights alone.
    base = _dataset([1.0, 2.0, 5.0], [True, True, False])
    w_base = ipw_weights(base)
    np.testing.assert_array_equal(w_base, [1.0, 1.0, 0.0])
    extended = _dataset(
        [1.0, 2.0, 5.0, 7.0, 11.0],
        [True, True, False, False, False],
    )
    w_ext = ipw_weights(extended)
    np.testing.assert_array_equal(w_ext[:3], w_base)
    np.testing.assert_array_equal(w_ext[3:], [0.0, 0.0])


def test_km_input_validation():
    with pytest.raises(EmptyDatasetError):
        km_censoring_survival([], [])
    with pytest.raises(ValueError, match="positive"):
        km_censoring_survival([0.0, 1.0], [True, True])
    with pytest.raises(ValueError):
        km_censoring_survival([1.0, 2.0], [True])


def test_step_survival_validation_and_lookup():
    with pytest.raises(ValueError):
        StepSurvival(jump_times=np.array([2.0, 1.0]), values=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        StepSurvival(jump_times=np.array([1.0, 2.0]), values=np.array([0.4, 0.5]))
    with pytest.raises(ValueError):
        StepSurvival(jump_times=np.array([1.0]), values=np.array([1.5]))
    surv = StepSurvival(jump_times=np.array([2.0, 5.0]), values=np.array([0.5, 0.25]))
    np.testing.assert_allclose(
        surv.evaluate([1.0, 2.0, 4.9, 5.0, 50.0]), [1.0, 0.5, 0.5, 0.25, 0.25]
    )


def test_uncensored_fit_equals_unweighted_fit_exactly():
    ds = random_cost_dataset(2024, n=150, censored=False)
    weighted = fit_censored_cost(ds)
    plain = fit_cost(ds, cost_design(ds)[0], np.ones(len(ds)))
    np.testing.assert_array_equal(weighted.coefficients, plain.coefficients)
    np.testing.assert_array_equal(weighted.covariance, plain.covariance)


def test_fit_censored_cost_is_ipw_weighted_glm():
    ds = random_cost_dataset(99, n=200, censored=True)
    fit = fit_censored_cost(ds)
    X, names = cost_design(ds)
    assert names[:2] == ("intercept", "treat")
    spec = DesignSpec(
        response=ds.cost, design=X, weights=ipw_weights(ds), family=Family.LOG_GAMMA
    )
    direct = irls_fit(spec)
    np.testing.assert_array_equal(fit.coefficients, direct.coefficients)


def test_cost_design_orders_columns():
    ds = random_cost_dataset(1, n=20)
    X, names = cost_design(ds)
    assert names == ("intercept", "treat") + ds.covariate_names
    np.testing.assert_array_equal(X[:, 0], np.ones(20))
    np.testing.assert_array_equal(X[:, 1], ds.treatment.astype(np.float64))


def test_weighted_count_tracks_sample_size():
    # Averaged over replications, the weights of the uncensored records
    # add back up to the full sample size.
    scenario = CIScenario(
        family=ConfounderFamily.NORMAL,
        params_control=NormalParams(mean=0.0, sd=1.0),
        params_treated=NormalParams(mean=1.0, sd=1.0),
        gamma=0.0,
        n_per_arm=100,
        censor_prob=0.3,
        seed=88,
    )
    ratios = []
    for rep in range(40):
        ds, _ = generate_ci_dataset(scenario, rep)
        ratios.append(ipw_weights(ds).sum() / len(ds))
    ratios = np.asarray(ratios)
    se = ratios.std(ddof=1) / np.sqrt(len(ratios))
    assert abs(ratios.mean() - 1.0) < 3.0 * se


def test_gamma_zero_fits_are_unbiased_under_censoring():
    scenario = CIScenario(
        family=ConfounderFamily.NORMAL,
        params_control=NormalParams(mean=0.0, sd=1.0),
        params_treated=NormalParams(mean=1.0, sd=1.0),
        gamma=0.0,
        n_per_arm=500,
        censor_prob=0.25,
        seed=17,
    )
    effects = []
    for rep in range(60):
        ds, _ = generate_ci_dataset(scenario, rep)
        fit = fit_censored_cost(ds)
        assert fit.converged
        effects.append(fit.coefficients[1])
    effects = np.asarray(effects)
    se = effects.std(ddof=1) / np.sqrt(len(effects))
    assert abs(effects.mean() - 1.0) < 3.0 * se


# Tie-heavy follow-up: a few integer times, each record censored or not.
_FOLLOW_UP = st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=60)


def _product_limit(times, uncensored):
    """Textbook censoring Kaplan-Meier, one pass over the records per time."""
    jump_times, values, survival = [], [], 1.0
    for t in sorted(set(times)):
        censored_here = sum(1 for s, u in zip(times, uncensored) if s == t and not u)
        if censored_here:
            at_risk = sum(1 for s in times if s >= t)
            survival *= 1.0 - censored_here / at_risk
            jump_times.append(t)
            values.append(survival)
    return jump_times, values


@given(_FOLLOW_UP)
def test_km_equals_naive_product_limit(follow_up):
    times = [float(t) for t, _ in follow_up]
    uncensored = [u for _, u in follow_up]
    surv = km_censoring_survival(times, uncensored)
    jump_times, values = _product_limit(times, uncensored)
    np.testing.assert_array_equal(surv.jump_times, jump_times)
    np.testing.assert_array_equal(surv.values, values)


@given(_FOLLOW_UP, st.booleans())
def test_ipw_weight_laws(follow_up, stratify):
    times = [float(t) for t, _ in follow_up]
    uncensored = np.array([u for _, u in follow_up])
    weights = ipw_weights(_dataset(times, uncensored), stratify_by_arm=stratify)
    assert np.all(weights[~uncensored] == 0.0)
    assert np.all(weights[uncensored] >= 1.0)
    complete = ipw_weights(_dataset(times, np.ones(len(times), dtype=bool)),
                           stratify_by_arm=stratify)
    np.testing.assert_array_equal(complete, np.ones(len(times)))
