from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre, roots_hermitenorm

from costsense import (
    BernoulliParams,
    CDScenario,
    CIScenario,
    ConfigError,
    ConfounderFamily,
    ConfounderModel,
    CorrelationModelError,
    CostOverflowError,
    EmptyFitError,
    GammaParams,
    NormalParams,
    PoissonParams,
    PropensityScenario,
    ReplicationRecord,
    aggregate,
    generate_ci_dataset,
    log_mgf,
    run_replication,
    synthetic_cohort,
)
from costsense import censoring, glm, sensitivity, simulation
from costsense.simulation import (
    _MAX_REGENERATIONS,
    _QUAD_NODES,
    _U_STREAM,
    _cd_marginal_params,
    _gauss_hermite,
    _gauss_laguerre,
    _rng,
    _sample_confounder,
)


def _same_fields(a, b) -> bool:
    """Dataclass equality that treats NaN as equal to NaN."""
    import dataclasses

    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, float) and isinstance(vb, float):
            if math.isnan(va) and math.isnan(vb):
                continue
        if va != vb:
            return False
    return True


def _bern_scenario(**overrides):
    fields = dict(
        family=ConfounderFamily.BERNOULLI,
        params_control=BernoulliParams(prevalence=0.3),
        params_treated=BernoulliParams(prevalence=0.866),
        gamma=0.25,
        n_per_arm=100,
        censor_prob=0.25,
        seed=20260817,
    )
    fields.update(overrides)
    return CIScenario(**fields)


def _cd_scenario(**overrides):
    fields = dict(
        family=ConfounderFamily.BERNOULLI,
        phi1=-1.0,
        phi2=1.0,
        phi3=2.0,
        n=500,
        gamma=0.75,
        censor_prob=0.25,
        seed=20260817,
    )
    fields.update(overrides)
    return CDScenario(**fields)


def test_ci_dataset_shape_and_determinism():
    scenario = _bern_scenario()
    ds, u = generate_ci_dataset(scenario, replication=3)
    assert len(ds) == 200
    assert ds.covariate_names == ("z",)
    assert u.shape == (200,)
    assert set(np.unique(u)) <= {0.0, 1.0}
    np.testing.assert_array_equal(ds.treatment, np.repeat([0, 1], 100))
    again, u2 = generate_ci_dataset(scenario, replication=3)
    np.testing.assert_array_equal(ds.cost, again.cost)
    np.testing.assert_array_equal(u, u2)
    other, _ = generate_ci_dataset(scenario, replication=4)
    assert not np.array_equal(ds.cost, other.cost)


def test_ci_zero_censor_prob_leaves_everything_uncensored():
    ds, _ = generate_ci_dataset(_bern_scenario(censor_prob=0.0), 0)
    assert ds.censoring_rate == 0.0


def test_replications_are_schedule_independent():
    scenario = _bern_scenario(n_per_arm=50)
    batch = [run_replication(scenario, rep) for rep in range(6)]
    solo = run_replication(scenario, 5)
    assert _same_fields(batch[5], solo)
    assert [record.replication for record in batch] == list(range(6))


def test_run_study_is_deterministic():
    scenario = _bern_scenario(n_per_arm=50)
    first = aggregate(scenario, [run_replication(scenario, rep) for rep in range(30)])
    second = aggregate(scenario, [run_replication(scenario, rep) for rep in range(30)])
    assert _same_fields(first, second)
    assert first.replications == 30
    assert first.converged + first.convergence_failures == 30


def test_empirical_mgf_matches_closed_form_per_family():
    cases = [
        (ConfounderFamily.BERNOULLI, BernoulliParams(prevalence=0.3), 0.8),
        (ConfounderFamily.NORMAL, NormalParams(mean=1.0, sd=1.0), 0.6),
        (ConfounderFamily.POISSON, PoissonParams(rate=1.58), 0.5),
        (ConfounderFamily.GAMMA, GammaParams(shape=0.868, scale=0.5), 0.5),
    ]
    n = 1_000_000
    for index, (family, params, gamma) in enumerate(cases):
        rng = _rng(seed=9000 + index, replication=0, stream=_U_STREAM)
        u = _sample_confounder(rng, family, params, n)
        tilted = np.exp(gamma * u)
        target = math.exp(log_mgf(family, params, gamma))
        mc_se = tilted.std(ddof=1) / math.sqrt(n)
        assert abs(tilted.mean() - target) < 4.0 * mc_se, family.value


def test_zero_gamma_estimates_are_unbiased():
    scenario = _bern_scenario(gamma=0.0, n_per_arm=100, censor_prob=0.25, seed=303)
    records = [run_replication(scenario, rep) for rep in range(200)]
    estimates = np.array([r.beta_adjusted for r in records if r.converged])
    assert len(estimates) == 200
    se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    assert abs(estimates.mean() - 1.0) < 3.0 * se
    # With gamma = 0 the correction is exactly zero.
    assert all(r.beta_adjusted == r.beta_unadjusted for r in records)


def test_cd_unconditional_correlation_sits_near_a_tenth():
    for family in ConfounderFamily:
        scenario = _cd_scenario(
            family=family, phi1=0.0, phi2=0.0, phi3=0.0, n=20000, gamma=0.25, seed=5
        )
        ds, u, _ = scenario.generate(0)
        corr = float(np.corrcoef(u, ds.covariates[:, 0])[0, 1])
        assert 0.06 < corr < 0.14, family.value


def test_cd_regeneration_is_counted_and_deterministic():
    # phi1 = -6 makes treated draws rare at n = 20, so most replications
    # need at least one regeneration.
    scenario = _cd_scenario(family=ConfounderFamily.NORMAL, phi1=-6.0, phi2=0.0,
                            phi3=0.0, n=20, gamma=0.25, censor_prob=0.0, seed=41)
    records = [run_replication(scenario, rep) for rep in range(10)]
    assert sum(record.regenerated for record in records) > 0
    again = [run_replication(scenario, rep) for rep in range(10)]
    assert all(_same_fields(a, b) for a, b in zip(records, again))


def test_cd_gives_up_after_too_many_empty_draws():
    scenario = _cd_scenario(family=ConfounderFamily.NORMAL, phi1=-60.0, phi2=0.0,
                            phi3=0.0, n=20, gamma=0.25, censor_prob=0.0, seed=42)
    with pytest.raises(EmptyFitError, match="regenerat"):
        scenario.generate(0)
    # Inside a study the hopeless draw is one failed replication.
    record = run_replication(scenario, 0)
    assert not record.converged
    assert record.regenerated == _MAX_REGENERATIONS
    assert math.isnan(record.beta_adjusted)


def test_overflowing_cost_is_a_failed_replication():
    # exp(5 + 1 + 800) overflows, so every treated cost mean is infinite.
    scenario = CIScenario(family=ConfounderFamily.NORMAL, params_control=NormalParams(0.0, 1.0),
                          params_treated=NormalParams(800.0, 1.0), gamma=1.0, n_per_arm=20,
                          seed=3)
    with pytest.raises(CostOverflowError, match="replication 0"):
        scenario.generate(0)
    record = run_replication(scenario, 0)
    assert not record.converged
    assert record.regenerated == 0
    assert math.isnan(record.beta_adjusted)


def test_overflowing_cd_draw_reports_its_regenerations():
    # phi1 = -6 needs regenerations before both arms are filled; the draws
    # of Z, U and treatment do not depend on gamma, so the overflowing
    # scenario reaches its costs after as many regenerations as a tame one.
    tame = _cd_scenario(family=ConfounderFamily.NORMAL, phi1=-6.0, phi2=0.0, phi3=0.0,
                        n=20, gamma=0.25, censor_prob=0.0, seed=41)
    wild = _cd_scenario(family=ConfounderFamily.NORMAL, phi1=-6.0, phi2=0.0, phi3=0.0,
                        n=20, gamma=1000.0, censor_prob=0.0, seed=41)
    regenerations = [run_replication(tame, rep).regenerated for rep in range(4)]
    assert sum(regenerations) > 0
    records = [run_replication(wild, rep) for rep in range(4)]
    assert [record.regenerated for record in records] == regenerations
    assert not any(record.converged for record in records)


def test_true_model_replication_builds_one_censoring_curve(monkeypatch):
    calls = []
    original_km, original_ipw = censoring.km_censoring_survival, simulation.ipw_weights

    def counting_km(*args):
        calls.append("km")
        return original_km(*args)

    def counting_ipw(*args):
        calls.append("ipw")
        return original_ipw(*args)

    monkeypatch.setattr(censoring, "km_censoring_survival", counting_km)
    monkeypatch.setattr(simulation, "ipw_weights", counting_ipw)
    record = run_replication(_bern_scenario(n_per_arm=60), 0, fit_true_model=True)
    assert record.converged and math.isfinite(record.beta_true_model)
    assert sorted(calls) == ["ipw", "km"]


def test_propensity_replication_computes_one_sandwich_covariance(monkeypatch):
    # The score fit needs only coefficients; the cost fit needs its covariance.
    calls = []
    original = glm.sandwich_covariance

    def counting_sandwich(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(glm, "sandwich_covariance", counting_sandwich)
    record = run_replication(PropensityScenario("model1", n=400), 0)
    assert record.converged
    assert len(calls) == 1


def test_coverage_degrades_with_censoring():
    coverages = []
    for censor_prob in (0.0, 0.25, 0.5, 0.75):
        scenario = _bern_scenario(gamma=0.5, censor_prob=censor_prob)
        result = aggregate(scenario, [run_replication(scenario, rep) for rep in range(150)])
        coverages.append(result.coverage_adjusted)
    for early, late in zip(coverages, coverages[1:]):
        assert late <= early + 0.03


def test_adjusted_beats_unadjusted_under_conditional_dependence():
    scenario = _cd_scenario()
    result = aggregate(scenario, [run_replication(scenario, rep) for rep in range(100)])
    assert abs(result.bias_adjusted) < abs(result.bias_unadjusted)
    assert result.coverage_adjusted > result.coverage_unadjusted


def test_level_parameter_widens_intervals():
    scenario = _cd_scenario(n=200)
    narrow = aggregate(scenario, [run_replication(scenario, rep, level=0.5) for rep in range(100)])
    wide = aggregate(scenario, [run_replication(scenario, rep, level=0.999) for rep in range(100)])
    assert narrow.coverage_adjusted < wide.coverage_adjusted
    # The estimates themselves do not depend on the level.
    assert narrow.mean_beta_adjusted == wide.mean_beta_adjusted


def test_coverage_flags_match_hand_computation():
    scenario = _bern_scenario(n_per_arm=60)
    level = 0.99
    record = run_replication(scenario, 7, level=level)
    from costsense import z_quantile

    expected_unadj = abs(record.beta_unadjusted - 1.0) <= z_quantile(level) * record.se
    expected_adj = abs(record.beta_adjusted - 1.0) <= z_quantile(level) * record.se
    assert record.covered_unadjusted == expected_unadj
    assert record.covered_adjusted == expected_adj


def test_variance_choice_changes_se_only():
    scenario = _bern_scenario(n_per_arm=80)
    sandwich = run_replication(scenario, 2, variance="sandwich")
    model = run_replication(scenario, 2, variance="model")
    assert sandwich.beta_unadjusted == model.beta_unadjusted
    assert sandwich.se != model.se


def _fake_record(replication, converged=True, beta_unadj=1.1, beta_adj=1.0,
                 covered_unadj=False, covered_adj=True, regenerated=0):
    return ReplicationRecord(
        replication=replication,
        converged=converged,
        beta_unadjusted=beta_unadj,
        beta_adjusted=beta_adj,
        se=0.1,
        covered_unadjusted=covered_unadj,
        covered_adjusted=covered_adj,
        corr_treated=float("nan"),
        corr_control=float("nan"),
        regenerated=regenerated,
        beta_true_model=float("nan"),
    )


def test_aggregate_counts_failures_and_uses_converged_only():
    scenario = _bern_scenario()
    records = [
        _fake_record(0, beta_adj=0.9),
        _fake_record(1, converged=False, beta_adj=float("nan")),
        _fake_record(2, beta_adj=1.1, regenerated=3),
    ]
    result = aggregate(scenario, records)
    assert result.replications == 3
    assert result.converged == 2
    assert result.convergence_failures == 1
    assert result.regenerated == 3
    assert result.mean_beta_adjusted == pytest.approx(1.0)
    assert result.bias_adjusted == pytest.approx(0.0)
    assert result.coverage_adjusted == 1.0


def test_aggregate_reports_both_monte_carlo_standard_errors():
    scenario = _bern_scenario()
    records = [_fake_record(0), _fake_record(1, beta_adj=1.05, beta_unadj=1.4)]
    result = aggregate(scenario, records)
    adjusted = np.array([1.0, 1.05])
    assert result.mc_standard_error == adjusted.std(ddof=1) / math.sqrt(2)


def test_aggregate_with_no_converged_replications():
    scenario = _bern_scenario()
    records = [_fake_record(0, converged=False)]
    result = aggregate(scenario, records)
    assert result.converged == 0
    assert math.isnan(result.mean_beta_adjusted)
    assert math.isnan(result.coverage_adjusted)
    assert math.isnan(result.mc_standard_error)


def test_confounder_for_scenario_mirrors_ci_arms():
    scenario = _bern_scenario()
    model = ConfounderModel(
        family=scenario.family,
        params_control=scenario.params_control,
        params_treated=scenario.params_treated,
        effect_control=scenario.gamma,
        effect_treated=scenario.gamma,
    )
    assert scenario.correction == model.correction()


def test_confounder_for_scenario_cd_marginals_track_simulation():
    # The per-arm marginal laws come from quadrature; check their first
    # moments against a large simulated draw.
    scenario = _cd_scenario(family=ConfounderFamily.NORMAL, n=100000, seed=8)
    control, treated_law = _cd_marginal_params(scenario.family, scenario.phi1,
                                               scenario.phi2, scenario.phi3)
    model = ConfounderModel(family=scenario.family, params_control=control,
                            params_treated=treated_law, effect_control=scenario.gamma,
                            effect_treated=scenario.gamma)
    assert scenario.correction == model.correction()
    ds, u, _ = scenario.generate(0)
    treated = ds.treatment == 1
    for params, mask in ((treated_law, treated), (control, ~treated)):
        sample = u[mask]
        se = sample.std(ddof=1) / math.sqrt(mask.sum())
        assert abs(params.mean - sample.mean()) < 4.0 * se


def test_scenario_validation():
    with pytest.raises(ValueError, match="n_per_arm"):
        _bern_scenario(n_per_arm=3)
    with pytest.raises(ValueError, match="censor_prob"):
        _bern_scenario(censor_prob=1.0)
    with pytest.raises(ValueError, match="seed"):
        _bern_scenario(seed=-1)
    with pytest.raises(ConfigError, match="BernoulliParams"):
        _bern_scenario(params_treated=PoissonParams(rate=1.0))
    with pytest.raises(ValueError, match="n must be"):
        _cd_scenario(n=10)


def test_propensity_model1_bias_vanishes():
    scenario = PropensityScenario("model1", n=2000, seed=11)
    result = aggregate(scenario, [run_replication(scenario, rep) for rep in range(80)])
    assert result.convergence_failures == 0
    assert abs(result.bias_adjusted) < 0.015
    assert abs(result.corr_treated) < 0.05
    assert abs(result.corr_control) < 0.05


def test_propensity_model2_keeps_small_positive_bias():
    scenario = PropensityScenario("model2", n=2000, seed=11)
    result = aggregate(scenario, [run_replication(scenario, rep) for rep in range(80)])
    assert 0.0 < result.bias_adjusted < 0.05
    assert result.corr_treated < 0.0
    assert result.corr_control < 0.0


def test_propensity_zero_correlations_behave_like_no_confounding():
    scenario = PropensityScenario((0.0, 0.0, 0.0), n=1000, seed=3)
    result = aggregate(scenario, [run_replication(scenario, rep) for rep in range(60)])
    assert abs(result.corr_treated) < 0.05
    assert abs(result.corr_control) < 0.05
    assert abs(result.bias_adjusted - result.bias_unadjusted) < 1e-12


def test_propensity_study_validation():
    # Bad scenarios are rejected when they are built, before any replication.
    with pytest.raises(CorrelationModelError, match="model9"):
        PropensityScenario("model9", n=1000, seed=1)
    with pytest.raises(CorrelationModelError, match="exactly 3"):
        PropensityScenario((0.1, 0.2), n=1000, seed=1)
    with pytest.raises(CorrelationModelError, match="positive definite"):
        PropensityScenario((0.8, 0.8, 0.8), n=1000, seed=1)
    with pytest.raises(ValueError, match="at least 100"):
        PropensityScenario("model1", n=50, seed=1)


def test_correction_is_computed_once_per_scenario(monkeypatch):
    calls = []
    original = sensitivity.log_mgf

    def counting_log_mgf(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sensitivity, "log_mgf", counting_log_mgf)
    builders = (lambda: _bern_scenario(n_per_arm=20), lambda: _cd_scenario(n=60),
                lambda: PropensityScenario("model2", n=100, seed=1))
    for build in builders:
        calls.clear()
        scenario = build()
        assert len(calls) == 2, scenario.kind
        calls.clear()
        for rep in range(5):
            run_replication(scenario, rep)
        assert calls == [], scenario.kind


_ARM_PARAMS = {
    ConfounderFamily.BERNOULLI: st.builds(BernoulliParams, st.floats(0.0, 1.0)),
    ConfounderFamily.NORMAL: st.builds(NormalParams, st.floats(-2.0, 2.0), st.floats(0.1, 2.0)),
    ConfounderFamily.POISSON: st.builds(PoissonParams, st.floats(0.0, 3.0)),
    ConfounderFamily.GAMMA: st.builds(GammaParams, st.floats(0.1, 3.0), st.floats(0.1, 1.0)),
}


@st.composite
def _any_scenario(draw):
    # Effects stay within |gamma| <= 0.75, where every family's correction,
    # the CD Gamma marginals included, lies inside the MGF domain.
    seed = draw(st.integers(0, 2**32))
    gamma = draw(st.floats(-0.75, 0.75))
    kind = draw(st.sampled_from(("ci", "cd", "propensity")))
    if kind == "propensity":
        correlations = draw(st.tuples(*[st.floats(-0.5, 0.5)] * 3))
        return PropensityScenario(correlations, n=draw(st.integers(100, 150)), seed=seed,
                                  gamma=gamma)
    family = draw(st.sampled_from(list(ConfounderFamily)))
    censor_prob = draw(st.floats(0.0, 0.9))
    if kind == "ci":
        return CIScenario(family=family, params_control=draw(_ARM_PARAMS[family]),
                          params_treated=draw(_ARM_PARAMS[family]), gamma=gamma,
                          n_per_arm=draw(st.integers(4, 40)), censor_prob=censor_prob,
                          seed=seed)
    phi = st.floats(-1.5, 1.5)
    return CDScenario(family=family, phi1=draw(phi), phi2=draw(phi), phi3=draw(phi),
                      n=draw(st.integers(20, 80)), gamma=gamma, censor_prob=censor_prob,
                      seed=seed)


@settings(max_examples=40, deadline=None)
@given(scenario=_any_scenario(), replication=st.integers(0, 10_000))
def test_pickled_scenario_keeps_correction_and_draws(scenario, replication):
    # --workers pickles scenarios, so a worker's copy must carry the same
    # computed correction and make the same draws, bit for bit.
    clone = pickle.loads(pickle.dumps(scenario))
    assert clone == scenario
    assert clone.correction.hex() == scenario.correction.hex()
    dataset, u, regenerated = scenario.generate(replication)
    dataset_clone, u_clone, regenerated_clone = clone.generate(replication)
    assert regenerated_clone == regenerated
    assert u_clone.tobytes() == u.tobytes()
    for name in ("cost", "time", "uncensored", "treatment", "covariates"):
        assert getattr(dataset_clone, name).tobytes() == getattr(dataset, name).tobytes(), name


def test_synthetic_cohort_shape_is_frozen():
    cohort = synthetic_cohort(seed=20260817)
    assert len(cohort) == 1860
    assert int((cohort.treatment == 0).sum()) == 1440
    assert int((~cohort.uncensored).sum()) == 725
    assert int((cohort.cost == 0.0).sum()) == 2
    assert len(cohort.covariate_names) == 16
    again = synthetic_cohort(seed=20260817)
    np.testing.assert_array_equal(cohort.cost, again.cost)
    different = synthetic_cohort(seed=1)
    assert not np.array_equal(cohort.cost, different.cost)


def test_synthetic_cohort_recovers_its_generative_ratio():
    from costsense import ApparentEffect, fit_censored_cost, zero_cost_shift

    cohort = zero_cost_shift(synthetic_cohort(seed=20260817))
    fit = fit_censored_cost(cohort)
    apparent = ApparentEffect(beta_star=float(fit.coefficients[1]),
                              se=float(np.sqrt(fit.covariance[1, 1])))
    lo, hi = apparent.ratio_ci
    assert lo < 0.873 < hi


def test_quadrature_rules_match_scipy():
    nodes, weights = _gauss_hermite()
    ref_nodes, ref_weights = roots_hermitenorm(_QUAD_NODES)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-13)
    np.testing.assert_allclose(weights, ref_weights / ref_weights.sum(), rtol=0, atol=1e-13)
    for alpha in (-0.5, 0.0, 1.5):
        nodes, weights = _gauss_laguerre(alpha)
        ref_nodes, ref_weights = roots_genlaguerre(_QUAD_NODES, alpha)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-13, atol=0)
        np.testing.assert_allclose(weights, ref_weights / ref_weights.sum(), rtol=0, atol=1e-13)
