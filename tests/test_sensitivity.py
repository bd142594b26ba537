from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

from costsense import (
    ApparentEffect,
    BernoulliParams,
    ConfigError,
    ConfounderFamily,
    ConfounderModel,
    GammaParams,
    MgfDomainError,
    NormalParams,
    PoissonParams,
    adjust_effect,
    gamma_arms_from_mean_ratio,
    log_mgf,
    sweep,
    z_quantile,
)
from costsense.sensitivity import GAMMA_RATIO_CONVENTION
from helpers import FAMILIES, draw_admissible, numeric_log_mgf

APPARENT = ApparentEffect.from_ratio_ci(0.873, 0.793, 0.960)


def _bernoulli_model(p0, p1, effect):
    return ConfounderModel(
        family=ConfounderFamily.BERNOULLI,
        params_control=BernoulliParams(prevalence=p0),
        params_treated=BernoulliParams(prevalence=p1),
        effect_control=math.log(effect),
        effect_treated=math.log(effect),
    )


def test_log_mgf_frozen_values():
    assert log_mgf(
        ConfounderFamily.BERNOULLI, BernoulliParams(prevalence=0.5), math.log(2.0)
    ) == pytest.approx(math.log(1.5), abs=1e-12)
    assert log_mgf(ConfounderFamily.POISSON, PoissonParams(rate=1.0), 0.0) == 0.0
    assert log_mgf(
        ConfounderFamily.GAMMA, GammaParams(shape=2.0, scale=0.3), 1.0
    ) == pytest.approx(-2.0 * math.log(0.7), abs=1e-12)
    assert log_mgf(
        ConfounderFamily.NORMAL, NormalParams(mean=1.0, sd=2.0), 0.5
    ) == pytest.approx(1.0, abs=1e-12)


def test_log_mgf_is_zero_at_zero_for_every_family():
    laws = [
        (ConfounderFamily.BERNOULLI, BernoulliParams(prevalence=0.3)),
        (ConfounderFamily.NORMAL, NormalParams(mean=0.7, sd=1.3)),
        (ConfounderFamily.POISSON, PoissonParams(rate=2.5)),
        (ConfounderFamily.GAMMA, GammaParams(shape=1.5, scale=0.4)),
    ]
    for family, params in laws:
        assert log_mgf(family, params, 0.0) == 0.0


def test_gamma_domain_boundary_raises():
    params = GammaParams(shape=1.0, scale=1.0)
    with pytest.raises(MgfDomainError, match="scale \\* effect < 1"):
        log_mgf(ConfounderFamily.GAMMA, params, 1.0)
    with pytest.raises(MgfDomainError):
        params.log_mgf(2.0)
    # Strictly inside the domain is fine.
    assert math.isfinite(params.log_mgf(0.999))


def test_log_mgf_rejects_mismatched_params():
    with pytest.raises(ConfigError):
        log_mgf(ConfounderFamily.BERNOULLI, PoissonParams(rate=1.0), 0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        BernoulliParams(prevalence=1.2)
    with pytest.raises(ValueError):
        NormalParams(mean=0.0, sd=0.0)
    with pytest.raises(ValueError):
        PoissonParams(rate=-1.0)
    with pytest.raises(ValueError):
        GammaParams(shape=0.0, scale=1.0)
    with pytest.raises(ValueError):
        GammaParams(shape=1.0, scale=-2.0)


@pytest.mark.parametrize("make, match", [
    (lambda: NormalParams(mean=math.nan), "mean"),
    (lambda: NormalParams(mean=0.0, sd=math.nan), "sd"),
    (lambda: PoissonParams(rate=math.nan), "rate"),
    (lambda: GammaParams(shape=math.nan, scale=1.0), "shape"),
    (lambda: GammaParams(shape=1.0, scale=math.nan), "scale"),
    (lambda: gamma_arms_from_mean_ratio(math.nan, 1.0), "mean ratio"),
    (lambda: gamma_arms_from_mean_ratio(1.0, math.nan), "variance-to-mean"),
], ids=["normal mean", "normal sd", "poisson rate", "gamma shape", "gamma scale",
        "mean ratio", "variance-to-mean ratio"])
def test_params_reject_nan(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("make, match", [
    (lambda: NormalParams(mean=math.inf), "mean"),
    (lambda: NormalParams(mean=-math.inf), "mean"),
    (lambda: NormalParams(mean=0.0, sd=math.inf), "sd"),
    (lambda: PoissonParams(rate=math.inf), "rate"),
    (lambda: GammaParams(shape=math.inf, scale=1.0), "shape"),
    (lambda: GammaParams(shape=1.0, scale=math.inf), "scale"),
    (lambda: gamma_arms_from_mean_ratio(math.inf, 1.0), "shape"),
    (lambda: gamma_arms_from_mean_ratio(1.0, math.inf), "scale"),
], ids=["normal mean", "normal mean -inf", "normal sd", "poisson rate", "gamma shape",
        "gamma scale", "mean ratio", "variance-to-mean ratio"])
def test_params_reject_inf(make, match):
    # An infinite parameter would surface later as a log-MGF "overflow".
    with pytest.raises(ValueError, match=match):
        make()


def test_family_from_string():
    assert ConfounderFamily.from_string("Gamma") is ConfounderFamily.GAMMA
    assert ConfounderFamily.from_string(" normal ") is ConfounderFamily.NORMAL
    with pytest.raises(ValueError, match="weibull"):
        ConfounderFamily.from_string("weibull")


def test_closed_forms_match_numeric_oracles():
    rng = np.random.default_rng(20260817)
    for family in FAMILIES:
        for _ in range(50):
            params, gamma = draw_admissible(family, rng)
            closed = log_mgf(family, params, gamma)
            assert closed == pytest.approx(numeric_log_mgf(params, gamma), abs=1e-9)


@given(st.floats(0.5, 0.9999))
def test_z_quantile_tracks_scipy_ndtri(level):
    # Both are rational approximations good to a few ulps (ndtri up to 5,
    # NormalDist.inv_cdf up to 4, against a 30-digit reference), so they
    # agree to within the sum of the two.
    reference = ndtri(0.5 + level / 2.0)
    assert abs(z_quantile(level) - reference) <= 8 * np.spacing(reference)


def test_z_quantile_common_levels_match_scipy_ndtri():
    for level in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999):
        assert abs(z_quantile(level) - ndtri(0.5 + level / 2.0)) <= 1e-15
    # Within an ulp of 1 the upper tail point rounds to 1, where ndtri is inf.
    assert z_quantile(1.0 - 2.0**-53) == ndtri(1.0) == math.inf


def test_z_quantile_frozen_values():
    assert z_quantile(0.95) == pytest.approx(1.959963984540054, abs=1e-12)
    assert z_quantile(0.99) == pytest.approx(2.5758293035489004, abs=1e-12)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            z_quantile(bad)


def test_apparent_effect_from_ratio_ci_conventions():
    assert APPARENT.beta_star == pytest.approx(math.log(0.873), abs=1e-12)
    assert APPARENT.cost_ratio == pytest.approx(0.873, abs=1e-12)
    # The SE comes from the CI width on the log scale; the interval is then
    # re-centred at the ratio, so an asymmetric published CI only returns
    # approximately (here to the second decimal).
    width = math.log(0.960) - math.log(0.793)
    assert APPARENT.se == pytest.approx(width / (2.0 * z_quantile(0.95)), abs=1e-15)
    lo, hi = APPARENT.ratio_ci
    assert lo == pytest.approx(0.793, abs=1e-3)
    assert hi == pytest.approx(0.960, abs=1e-3)
    assert math.log(hi) - math.log(lo) == pytest.approx(width, abs=1e-12)


def test_apparent_effect_validation():
    with pytest.raises(ValueError):
        ApparentEffect(beta_star=0.0, se=0.0)
    with pytest.raises(ValueError):
        ApparentEffect.from_ratio_ci(0.9, 0.95, 0.85)
    with pytest.raises(ValueError):
        ApparentEffect.from_ratio_ci(-0.9, 0.8, 1.0)
    with pytest.raises(ValueError):
        ApparentEffect(beta_star=0.1, se=0.05, confidence_level=1.0)


def test_adjustment_with_identical_arms_is_neutral():
    laws = [
        (ConfounderFamily.BERNOULLI, BernoulliParams(prevalence=0.4)),
        (ConfounderFamily.NORMAL, NormalParams(mean=0.5, sd=1.5)),
        (ConfounderFamily.POISSON, PoissonParams(rate=3.0)),
        (ConfounderFamily.GAMMA, GammaParams(shape=2.0, scale=0.25)),
    ]
    for family, params in laws:
        model = ConfounderModel(
            family=family,
            params_control=params,
            params_treated=params,
            effect_control=0.8,
            effect_treated=0.8,
        )
        adjusted = adjust_effect(APPARENT, model)
        assert abs(adjusted.beta - APPARENT.beta_star) <= 1e-12
        assert adjusted.se == APPARENT.se


def test_zero_effect_is_neutral_even_with_different_arms():
    model = _bernoulli_model(0.7, 0.3, 1.0)
    adjusted = adjust_effect(APPARENT, model)
    assert adjusted.beta == APPARENT.beta_star
    assert adjusted.cost_ratio == pytest.approx(APPARENT.cost_ratio, abs=1e-15)


def test_normal_unit_shift_moves_beta_by_gamma():
    model = ConfounderModel(
        family=ConfounderFamily.NORMAL,
        params_control=NormalParams(mean=0.0, sd=1.0),
        params_treated=NormalParams(mean=1.0, sd=1.0),
        effect_control=0.5,
        effect_treated=0.5,
    )
    adjusted = adjust_effect(APPARENT, model)
    assert adjusted.beta == pytest.approx(APPARENT.beta_star - 0.5, abs=1e-15)


def test_se_and_ci_width_pass_through():
    model = _bernoulli_model(0.8, 0.4, 1.25)
    adjusted = adjust_effect(APPARENT, model)
    assert adjusted.se == APPARENT.se
    apparent_width = APPARENT.ci_high - APPARENT.ci_low
    assert adjusted.ci_high - adjusted.ci_low == pytest.approx(apparent_width, abs=1e-15)


def test_swapping_arms_negates_the_correction():
    model = _bernoulli_model(0.7, 0.5, 1.1)
    swapped = ConfounderModel(
        family=model.family,
        params_control=model.params_treated,
        params_treated=model.params_control,
        effect_control=model.effect_treated,
        effect_treated=model.effect_control,
    )
    assert swapped.correction() == -model.correction()


def test_published_bernoulli_row_reproduced():
    adjusted = adjust_effect(APPARENT, _bernoulli_model(0.7, 0.5, 1.1))
    assert round(adjusted.cost_ratio, 2) == 0.89
    assert round(adjusted.ratio_ci_low, 2) == 0.81
    assert round(adjusted.ratio_ci_high, 2) == 0.98


def test_published_poisson_row_reproduced():
    model = ConfounderModel(
        family=ConfounderFamily.POISSON,
        params_control=PoissonParams(rate=19.0),
        params_treated=PoissonParams(rate=11.0),
        effect_control=math.log(1.005),
        effect_treated=math.log(1.005),
    )
    adjusted = adjust_effect(APPARENT, model)
    assert round(adjusted.cost_ratio, 2) == 0.91
    assert round(adjusted.ratio_ci_low, 2) == 0.83
    assert round(adjusted.ratio_ci_high, 2) == 1.00


def test_sweep_marks_significance_changes_at_display_precision():
    grid = [
        _bernoulli_model(0.7, 0.5, 1.1),   # stays significant: hi rounds to 0.98
        _bernoulli_model(0.8, 0.4, 1.1),   # hi rounds to 1.00: change
    ]
    rows = sweep(APPARENT, grid)
    assert [row.significance_changed for row in rows] == [False, True]
    assert all(row.error is None for row in rows)


def test_sweep_change_flag_uses_rounded_bounds_not_raw():
    # Push the upper bound to ~0.9951: raw it is below 1, displayed it is
    # 1.00, so the flag must fire.
    apparent = ApparentEffect.from_ratio_ci(0.90, 0.85, 0.985)
    target_hi = 0.9951
    correction = -math.log(target_hi / apparent.ratio_ci[1])
    model = ConfounderModel(
        family=ConfounderFamily.NORMAL,
        params_control=NormalParams(mean=0.0, sd=1.0),
        params_treated=NormalParams(mean=correction, sd=1.0),
        effect_control=1.0,
        effect_treated=1.0,
    )
    row = sweep(apparent, [model])[0]
    assert row.adjusted.ratio_ci_high < 1.0
    assert row.significance_changed is True


def test_sweep_preserves_order_and_isolates_domain_errors():
    good = GammaParams(shape=2.0, scale=0.3)
    bad = GammaParams(shape=2.0, scale=2.0)
    def gamma_model(params):
        return ConfounderModel(
            family=ConfounderFamily.GAMMA,
            params_control=GammaParams(shape=1.0, scale=0.1),
            params_treated=params,
            effect_control=0.6,
            effect_treated=0.6,
        )
    rows = sweep(APPARENT, [gamma_model(good), gamma_model(bad), gamma_model(good)])
    assert rows[0].error is None and rows[2].error is None
    assert rows[0].adjusted.beta == rows[2].adjusted.beta
    assert rows[1].adjusted is None
    assert rows[1].significance_changed is None
    assert "scale * effect" in rows[1].error


def test_sweep_empty_grid():
    assert sweep(APPARENT, []) == []


def test_gamma_arms_from_mean_ratio_convention():
    control, treated = gamma_arms_from_mean_ratio(1.25, 2.0)
    assert control == GammaParams(shape=1.25, scale=2.0)
    assert treated == GammaParams(shape=1.0, scale=2.0)
    # Means are in the stated ratio and the shared scale is var/mean.
    assert (control.shape * control.scale) / (treated.shape * treated.scale) == 1.25
    with pytest.raises(ValueError):
        gamma_arms_from_mean_ratio(0.0, 2.0)
    with pytest.raises(ValueError):
        gamma_arms_from_mean_ratio(1.2, -1.0)
    assert "treated" in GAMMA_RATIO_CONVENTION


def test_confounder_model_rejects_mismatched_params():
    with pytest.raises(ConfigError):
        ConfounderModel(
            family=ConfounderFamily.GAMMA,
            params_control=BernoulliParams(prevalence=0.5),
            params_treated=GammaParams(shape=1.0, scale=0.5),
            effect_control=0.5,
            effect_treated=0.5,
        )
