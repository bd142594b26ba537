from __future__ import annotations

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from costsense import EmptyFitError, SingularDesignError, glm
from costsense.glm import (
    Family,
    _xlogy,
    expit,
    irls_fit,
    sandwich_covariance,
)


def _problem(y, X, w=None, family=Family.LOG_GAMMA):
    """The arguments of ``irls_fit``: float64 arrays, unit weights by default."""
    y = np.asarray(y, dtype=np.float64)
    if w is None:
        w = np.ones(len(y))
    return y, np.asarray(X, dtype=np.float64), np.asarray(w, dtype=np.float64), family


def test_noiseless_log_linear_data_recovered_exactly():
    x = np.array([0.0, 0.0, 1.0, 1.0])
    X = np.column_stack([np.ones(4), x])
    y = np.exp(1.0 + 2.0 * x)
    fit = irls_fit(*_problem(y, X))
    assert fit.converged
    np.testing.assert_allclose(fit.coefficients, [1.0, 2.0], atol=1e-8)


def test_intercept_only_gamma_fit_is_log_mean():
    # The quasi-score at the intercept-only optimum forces mu = mean(y),
    # zeros included.
    y = np.array([0.0, 1.0, 2.0, 5.0])
    X = np.ones((4, 1))
    fit = irls_fit(*_problem(y, X))
    assert fit.coefficients[0] == pytest.approx(math.log(2.0), abs=1e-10)


def test_logit_intercept_only_is_logit_of_mean():
    y = np.array([1.0, 1.0, 1.0, 0.0])
    X = np.ones((4, 1))
    fit = irls_fit(*_problem(y, X, family=Family.LOGIT_BINOMIAL))
    assert fit.coefficients[0] == pytest.approx(math.log(3.0), abs=1e-8)


def test_logit_saturated_two_group_fit():
    x = np.repeat([0.0, 1.0], 4)
    y = np.array([1, 0, 0, 0, 1, 1, 1, 0], dtype=np.float64)
    X = np.column_stack([np.ones(8), x])
    fit = irls_fit(*_problem(y, X, family=Family.LOGIT_BINOMIAL))
    # Group means 1/4 and 3/4, so the fit is available in closed form.
    np.testing.assert_allclose(
        fit.coefficients, [math.log(1.0 / 3.0), math.log(9.0)], atol=1e-7
    )


def test_seeded_draw_recovers_generator_within_three_se():
    rng = np.random.default_rng(314)
    n = 2000
    x = np.repeat([0.0, 1.0], n // 2)
    z = rng.normal(loc=x, scale=1.0)
    mean = np.exp(5.0 + 1.0 * x + 1.0 * z)
    y = rng.gamma(shape=mean, scale=1.0)
    X = np.column_stack([np.ones(n), x, z])
    fit = irls_fit(*_problem(y, X))
    assert fit.converged
    se = np.sqrt(np.diag(fit.covariance))
    for est, truth, err in zip(fit.coefficients, (5.0, 1.0, 1.0), se):
        assert abs(est - truth) < 3.0 * err
    assert np.all(np.linalg.eigvalsh(fit.covariance) > -1e-10)


def test_sandwich_close_to_model_covariance_when_variance_is_quadratic():
    rng = np.random.default_rng(42)
    n = 5000
    x = rng.integers(0, 2, size=n).astype(np.float64)
    z = rng.normal(loc=x, scale=1.0)
    mu = np.exp(5.0 + x + z)
    y = rng.gamma(shape=2.0, scale=mu / 2.0)
    X = np.column_stack([np.ones(n), x, z])
    fit = irls_fit(*_problem(y, X))
    ratio = np.diag(fit.covariance) / np.diag(fit.model_covariance)
    assert np.all(ratio > 0.8)
    assert np.all(ratio < 1.25)


def test_meat_of_replicated_record_is_n_single_outer_products():
    reps = 7
    y = np.full(reps, 3.0)
    X = np.tile([1.0, 0.7], (reps, 1))
    w = np.full(reps, 1.5)
    b = np.array([0.4, 0.2])
    # With an identity bread the sandwich is the meat itself.
    resid = y / np.exp(X @ b) - 1.0
    meat = sandwich_covariance(np.eye(2), X * (w * resid)[:, None])
    mu = math.exp(0.4 + 0.2 * 0.7)
    single = 1.5 * (3.0 / mu - 1.0) * np.array([1.0, 0.7])
    np.testing.assert_allclose(meat, reps * np.outer(single, single), rtol=1e-12)


def test_doubling_weights_changes_neither_estimate_nor_sandwich():
    rng = np.random.default_rng(5)
    n = 300
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.gamma(2.0, np.exp(X @ [1.0, 0.5]) / 2.0)
    w = rng.uniform(0.5, 2.0, size=n)
    fit_a = irls_fit(*_problem(y, X, w))
    fit_b = irls_fit(*_problem(y, X, 2.0 * w))
    np.testing.assert_array_equal(fit_a.coefficients, fit_b.coefficients)
    np.testing.assert_allclose(fit_a.covariance, fit_b.covariance, rtol=1e-12)


def test_row_permutation_is_bit_identical():
    rng = np.random.default_rng(11)
    n = 250
    X = np.column_stack([np.ones(n), rng.normal(size=n), rng.integers(0, 2, n)])
    y = rng.gamma(2.0, np.exp(X @ [2.0, 0.3, 0.5]) / 2.0)
    w = rng.uniform(0.5, 2.0, size=n)
    perm = rng.permutation(n)
    fit_a = irls_fit(*_problem(y, X, w))
    fit_b = irls_fit(*_problem(y[perm], X[perm], w[perm]))
    np.testing.assert_array_equal(fit_a.coefficients, fit_b.coefficients)
    np.testing.assert_array_equal(fit_a.covariance, fit_b.covariance)
    np.testing.assert_array_equal(fit_a.model_covariance, fit_b.model_covariance)
    assert fit_a.iterations == fit_b.iterations


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 150), p=st.integers(2, 4),
       family=st.sampled_from(list(Family)), zero_share=st.sampled_from([0.0, 0.3]))
def test_row_permutation_is_bit_identical_for_weighted_designs(seed, n, p, family, zero_share):
    # IPW-like weights: some exactly zero, the rest spread out; a 0/1
    # column and (for logit) the response give lexsort plenty of ties.
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.integers(0, 2, n), rng.normal(size=(n, p - 2))])
    w = np.where(rng.random(n) < zero_share, 0.0, rng.uniform(0.2, 3.0, n))
    eta = X @ rng.uniform(-0.5, 0.5, p)
    if family is Family.LOG_GAMMA:
        y = rng.gamma(2.0, np.exp(2.0 + eta) / 2.0)
    else:
        y = (rng.random(n) < expit(eta)).astype(np.float64)
    perm = rng.permutation(n)
    try:
        fit_a = irls_fit(*_problem(y, X, w, family=family))
    except SingularDesignError:
        with pytest.raises(SingularDesignError):
            irls_fit(*_problem(y[perm], X[perm], w[perm], family=family))
        return
    fit_b = irls_fit(*_problem(y[perm], X[perm], w[perm], family=family))
    np.testing.assert_array_equal(fit_a.coefficients, fit_b.coefficients)
    np.testing.assert_array_equal(fit_a.covariance, fit_b.covariance)
    np.testing.assert_array_equal(fit_a.model_covariance, fit_b.model_covariance)
    assert (fit_a.converged, fit_a.iterations) == (fit_b.converged, fit_b.iterations)


def _lexsorted_rows(y, X, w):
    keys = [w] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)]
    order = np.lexsort(tuple(keys + [y]))
    return y[order], X[order], w[order]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       responses=st.sampled_from(["distinct", "ties", "signed zeros"]))
def test_canonical_rows_equal_the_full_lexsort(seed, n, responses):
    # Without ties the response alone gives the order; with ties (signed
    # zeros compare equal) the design columns and weights break them.
    rng = np.random.default_rng(seed)
    if responses == "distinct":
        y = rng.permutation(rng.gamma(2.0, 50.0, n))
    elif responses == "ties":
        y = rng.integers(0, 3, n).astype(np.float64)
    else:
        y = rng.choice([-0.0, 0.0, 1.0], n)
    X = np.column_stack([np.ones(n), rng.integers(0, 2, n), rng.choice([-0.0, 0.0, 0.5], n)])
    w = rng.choice([0.0, 1.0, 2.5], n)
    rows = _problem(y, X, w)[:3]
    for got, want in zip(glm._canonical_rows(*rows), _lexsorted_rows(*rows)):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1000, 5000),
       responses=st.sampled_from(["distinct", "ties", "signed zeros"]))
def test_canonical_rows_equal_the_full_lexsort_at_scale(seed, n, responses):
    # The check above, at an n where numpy's default sort is its vectorised,
    # unstable one; below 16 elements it is an insertion sort, which is stable.
    test_canonical_rows_equal_the_full_lexsort.hypothesis.inner_test(seed, n, responses)


def test_fit_sorts_its_rows_once(monkeypatch):
    calls = []
    original = glm._canonical_rows

    def counting_canonical_rows(*rows):
        calls.append(rows)
        return original(*rows)

    monkeypatch.setattr(glm, "_canonical_rows", counting_canonical_rows)
    rng = np.random.default_rng(8)
    X = np.column_stack([np.ones(200), rng.normal(size=200)])
    y = rng.gamma(2.0, np.exp(X @ [1.0, 0.5]) / 2.0)
    fit = irls_fit(*_problem(y, X))
    assert fit.converged
    assert np.isfinite(fit.covariance).all() and np.isfinite(fit.model_covariance).all()
    assert len(calls) == 1


def _reference_terms(family, eta, y, w):
    """Score residual, information weight and deviance at ``eta``, in textbook
    form: the Gamma deviance takes ``log(mu)``, the logit one sums ``w log L``
    over the positively weighted records."""
    if family is Family.LOG_GAMMA:
        mu = np.exp(eta)
        return y / mu - 1.0, np.ones_like(mu), 2.0 * float(np.sum(w * (y / mu + np.log(mu))))
    mu = 1.0 / (1.0 + np.exp(-eta))
    ll = np.where(y == 1.0, np.log(mu), np.log(1.0 - mu))
    return y - mu, mu * (1.0 - mu), -2.0 * float(np.sum(np.where(w > 0, w * ll, 0.0)))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _reference_newton(family, y, X, w):
    """The Newton loop as it stood before each trial point was evaluated once:
    it rebuilds the bread at every iteration and evaluates the accepted step
    a second time after the halving loop. Its family terms are its own."""
    pos = w > 0
    n_eff = int(np.count_nonzero(pos))
    p = X.shape[1]
    if n_eff == 0:
        raise EmptyFitError("all weights are zero")
    if n_eff < p or np.linalg.matrix_rank(X[pos]) < p:
        raise SingularDesignError("rank deficient")
    b = np.zeros(p)
    if family is Family.LOG_GAMMA:
        mean_y = float(np.sum(w * y) / np.sum(w))
        if mean_y <= 0:
            raise EmptyFitError("response is identically zero on the weighted support")
        if not np.isfinite(mean_y):
            return b, False, 0, n_eff
        b[0] = np.log(mean_y)
    eta = X @ b
    resid, info, dev = _reference_terms(family, eta, y, w)
    iterations = 0
    for iterations in range(1, glm._MAX_ITERATIONS + 1):
        score = X.T @ (w * resid)
        bread = (X * (w * info)[:, None]).T @ X
        try:
            step = np.linalg.solve(bread, score)
        except np.linalg.LinAlgError:
            return b, False, iterations, n_eff
        b_new = b + step
        for _ in range(glm._MAX_HALVINGS + 1):
            eta_new = X @ b_new
            if np.all(np.isfinite(b_new)) and np.max(np.abs(eta_new)) <= glm._ETA_MAX:
                dev_new = _reference_terms(family, eta_new, y, w)[2]
                if np.isfinite(dev_new) and dev_new <= dev + 1e-10 * (1.0 + abs(dev)):
                    break
            step = step / 2.0
            b_new = b + step
        eta_new = X @ b_new
        if not np.all(np.isfinite(b_new)) or np.max(np.abs(eta_new)) > glm._ETA_MAX:
            return b, False, iterations, n_eff
        rel_change = float(np.max(np.abs(b_new - b) / np.maximum(1.0, np.abs(b_new))))
        b = b_new
        eta = eta_new
        resid, info, dev = _reference_terms(family, eta, y, w)
        if not np.isfinite(dev):
            return b, False, iterations, n_eff
        if rel_change <= glm._TOLERANCE:
            return b, True, iterations, n_eff
    return b, False, iterations, n_eff


def _newton_problem(seed, n, p, family, shape):
    """Rows for a Newton fit. ``shape`` picks ordinary data, data with zero
    weights, a Gamma response with one huge outlier at the largest covariate
    (full steps overshoot, so they are halved, and with few halvings allowed
    they run out), or, for logit fits, a covariate that separates the classes
    (so the fit diverges)."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    w = rng.uniform(0.2, 3.0, n)
    if shape == "zero weights":
        w[rng.random(n) < 0.3] = 0.0
    eta = X @ rng.uniform(-1.0, 1.0, p)
    if family is Family.LOG_GAMMA:
        y = rng.gamma(2.0, np.exp(2.0 + eta) / 2.0)
        if shape == "outlier":
            y[np.argmax(X[:, -1])] *= 1e4
    elif shape == "separated" and p > 1:
        y = (X[:, 1] > 0.0).astype(np.float64)
    else:
        y = (rng.random(n) < expit(eta)).astype(np.float64)
    return y, X, w


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 80), p=st.integers(1, 4),
       family=st.sampled_from(list(Family)),
       shape=st.sampled_from(["plain", "zero weights", "outlier", "separated"]),
       halvings=st.sampled_from([0, 1, 10]))
def test_newton_equals_the_reference_loop(seed, n, p, family, shape, halvings):
    # With 0 or 1 halvings allowed, a step that raises the deviance soon runs
    # out of halvings and takes the path that evaluates the last one. The
    # Gamma trial's deviance adds eta where the reference adds log(exp(eta));
    # that rounding difference must move no step's acceptance.
    y, X, w = _newton_problem(seed, n, p, family, shape)
    with mock.patch.object(glm, "_MAX_HALVINGS", halvings):
        try:
            want = _reference_newton(family, y, X, w)
        except (EmptyFitError, SingularDesignError) as err:
            with pytest.raises(type(err)):
                glm._newton(family, y, X, w)
            return
        got = glm._newton(family, y, X, w)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:4] == want[1:]


def test_newton_evaluates_each_trial_point_once(monkeypatch):
    calls = []
    original = glm._trial

    def counting_trial(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(glm, "_trial", counting_trial)
    rng = np.random.default_rng(12)
    X = np.column_stack([np.ones(300), rng.normal(size=300)])
    y = rng.gamma(2.0, np.exp(X @ [1.0, 0.3]) / 2.0)
    fit = irls_fit(*_problem(y, X))
    # The start, then one full Newton step per iteration, none halved; the
    # covariances are read off the last of them, so _finish evaluates none.
    assert fit.converged
    assert np.isfinite(fit.covariance).all() and np.isfinite(fit.model_covariance).all()
    assert len(calls) == 1 + fit.iterations
    calls.clear()
    response = (rng.random(300) < expit(X @ [0.2, 0.5])).astype(np.float64)
    _, converged, iterations = glm._newton(Family.LOGIT_BINOMIAL, response, X, np.ones(300))[:3]
    assert converged
    assert len(calls) == 1 + iterations


def test_exhausted_halvings_take_the_last_halving_in_the_stack_as_in_newton(monkeypatch):
    # Every trial point of the first iteration reads as a worse deviance until
    # the ten halvings run out; the last halving is then taken unchecked, and
    # the fit goes on to converge from there. The stacked iteration, on the
    # same rows, must take the same path.
    rng = np.random.default_rng(13)
    design = np.column_stack([np.ones(200), rng.normal(size=(200, 3))])
    y = (rng.random(200) < expit(design @ [0.2, 0.8, -0.5, 0.3])).astype(np.float64)

    def worse_at_first(evaluate, worse):
        calls = []

        def patched(*args):
            calls.append(None)
            value = evaluate(*args)
            # Call 1 is the start; calls 2-12 the full step and its ten halvings.
            return worse(value) if 2 <= len(calls) <= 12 else value

        return patched, calls

    trial, newton_calls = worse_at_first(glm._trial, lambda value: (*value[:2], 1e300))
    monkeypatch.setattr(glm, "_trial", trial)
    kept = np.ascontiguousarray(design[:, [0, 1, 2]])
    coefficients, converged, iterations = glm._newton(Family.LOGIT_BINOMIAL, y, kept,
                                                      np.ones(200))[:3]
    trials, stack_calls = worse_at_first(
        glm._logit_trials, lambda value: (*value[:3], np.full_like(value[3], 1e300)))
    monkeypatch.setattr(glm, "_logit_trials", trials)
    stacked, stacked_converged, stacked_iterations, _ = glm.logit_leave_one_out(y, design, [3])
    assert converged and stacked_converged[0]
    assert len(newton_calls) == len(stack_calls) == 1 + 12 + iterations - 1
    assert stacked_iterations[0] == iterations
    np.testing.assert_allclose(stacked[0, :3], coefficients, rtol=1e-10, atol=1e-10)
    assert stacked[0, 3] == 0.0


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _covariances_from_scratch(family, y, X, w, b, n_eff):
    """Both covariances at ``b`` on canonical rows, with the residuals,
    information weights and bread rebuilt from ``b`` and the rows weighted
    as ``X * w[:, None]``."""
    resid, info, _ = _reference_terms(family, X @ b, y, w)
    bread = (X * (w * info)[:, None]).T @ X
    return (sandwich_covariance(bread, X * (w * resid)[:, None]),
            glm.model_covariance(bread, family, w, resid, n_eff))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 80), p=st.integers(1, 4),
       family=st.sampled_from(list(Family)),
       shape=st.sampled_from(["plain", "zero weights", "outlier", "separated"]))
def test_covariances_from_the_converged_state_equal_a_rebuild_from_scratch(
        seed, n, p, family, shape):
    # irls_fit reads its covariances off the residuals and bread that Newton
    # holds at the solution and weights rows along the long axis; a rebuild
    # from the coefficients alone must give the same bits.
    y, X, w = _newton_problem(seed, n, p, family, shape)
    try:
        fit = irls_fit(y, X, w, family)
    except (EmptyFitError, SingularDesignError):
        return
    if not fit.converged:
        assert np.isnan(fit.covariance).all() and np.isnan(fit.model_covariance).all()
        return
    covariance, model_cov = _covariances_from_scratch(
        family, *glm._canonical_rows(y, X, w), fit.coefficients, fit.n_effective)
    assert fit.covariance.tobytes() == covariance.tobytes()
    assert fit.model_covariance.tobytes() == model_cov.tobytes()


def test_scaling_response_shifts_intercept_by_log_factor():
    rng = np.random.default_rng(23)
    n = 400
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.gamma(2.0, np.exp(X @ [1.0, 0.4]) / 2.0)
    fit = irls_fit(*_problem(y, X))
    scaled = irls_fit(*_problem(1000.0 * y, X))
    assert scaled.coefficients[0] - fit.coefficients[0] == pytest.approx(
        math.log(1000.0), abs=1e-8
    )
    assert scaled.coefficients[1] == pytest.approx(fit.coefficients[1], abs=1e-8)


def test_unconverged_fit_reports_nan_covariance(monkeypatch):
    x = np.array([0.0, 0.0, 1.0, 1.0])
    X = np.column_stack([np.ones(4), x])
    y = np.exp(1.0 + 2.0 * x) + np.array([0.1, -0.1, 0.2, -0.2])
    monkeypatch.setattr(glm, "_MAX_ITERATIONS", 1)
    fit = irls_fit(*_problem(y, X))
    assert not fit.converged
    assert np.isnan(fit.covariance).all()
    assert np.isnan(np.sqrt(np.diag(fit.covariance))).all()


def test_zero_weight_record_saturated_against_its_outcome_changes_no_logit_fit():
    rng = np.random.default_rng(31)
    x = rng.normal(size=60)
    y = (rng.random(60) < expit(0.3 + 0.8 * x)).astype(np.float64)
    X = np.column_stack([np.ones(60), x])
    fit = irls_fit(*_problem(y, X, family=Family.LOGIT_BINOMIAL))
    # At x = 500 the fitted probability rounds to 1, against the outcome 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        padded = irls_fit(*_problem(np.append(y, 0.0), np.vstack([X, [1.0, 500.0]]),
                                   np.append(np.ones(60), 0.0), family=Family.LOGIT_BINOMIAL))
    assert fit.converged and padded.converged
    np.testing.assert_allclose(padded.coefficients, fit.coefficients, rtol=0, atol=1e-12)


def test_duplicate_column_raises_singular_design():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([np.ones(4), x, x])
    y = np.exp(1.0 + x)
    with pytest.raises(SingularDesignError):
        irls_fit(*_problem(y, X))


def test_rank_deficiency_after_weighting_raises():
    # The second column varies only on a record whose weight is zero.
    X = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 3.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    w = np.array([1.0, 1.0, 1.0, 0.0])
    with pytest.raises(SingularDesignError):
        irls_fit(*_problem(y, X, w))


def test_all_zero_weights_raise_empty_fit():
    with pytest.raises(EmptyFitError, match="weights"):
        irls_fit(*_problem([1.0, 2.0], np.ones((2, 1)), [0.0, 0.0]))


def test_identically_zero_response_raises_empty_fit():
    with pytest.raises(EmptyFitError):
        irls_fit(*_problem([0.0, 0.0, 0.0], np.ones((3, 1))))


@given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=50))
def test_expit_tracks_scipy_within_a_few_ulps(values):
    # Same formula as scipy's; numpy's vectorised exp may differ from libm's
    # by an ulp, and the add and the division each round once more.
    x = np.asarray(values)
    reference = special.expit(x)
    assert np.all(np.abs(expit(x) - reference) <= 4 * np.spacing(reference))


def test_expit_saturates_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(expit(np.array([-800.0, 0.0, 800.0])), [0.0, 0.5, 1.0])


def test_xlogy_matches_scipy_at_zero_arguments():
    x = np.array([0.0, 0.0, 0.0, 0.5, 1.0, 0.25])
    y = np.array([0.0, 1.0, 0.3, 0.0, 0.0, 0.7])
    with np.errstate(divide="ignore", invalid="ignore"):
        ours = _xlogy(x, y)
    reference = special.xlogy(x, y)
    np.testing.assert_array_equal(ours[:5], reference[:5])
    assert ours[5] == pytest.approx(reference[5], rel=1e-15)
