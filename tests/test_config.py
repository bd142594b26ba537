from __future__ import annotations

import configparser
import math

import pytest

from costsense import (
    BernoulliParams,
    CDScenario,
    CIScenario,
    ConfigError,
    ConfounderFamily,
    CorrelationModelError,
    GammaParams,
    InputNotFoundError,
    PropensityScenario,
)
from costsense.cli import main
from costsense.config import (
    load_adjust_config,
    load_scenarios,
    load_sweep_config,
    parse_apparent,
)
from costsense.sensitivity import GAMMA_RATIO_CONVENTION


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _parser(text):
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return parser


def test_apparent_ratio_form():
    apparent = parse_apparent(
        _parser("[apparent]\ncost_ratio = 0.873\nci_low = 0.793\nci_high = 0.960\n")
    )
    assert apparent.beta_star == pytest.approx(math.log(0.873))
    assert apparent.confidence_level == 0.95


def test_apparent_log_form_with_level():
    apparent = parse_apparent(
        _parser("[apparent]\nbeta_star = -0.1\nse = 0.05\nlevel = 0.99\n")
    )
    assert apparent.beta_star == -0.1
    assert apparent.confidence_level == 0.99


def test_apparent_absent_returns_none():
    assert parse_apparent(_parser("[sweep]\nfamily = normal\n")) is None


def test_apparent_mixed_forms_rejected():
    with pytest.raises(ConfigError, match="not both"):
        parse_apparent(
            _parser("[apparent]\ncost_ratio = 0.9\nci_low = 0.8\nci_high = 1.0\nse = 0.1\n")
        )


def test_apparent_incomplete_rejected():
    with pytest.raises(ConfigError):
        parse_apparent(_parser("[apparent]\ncost_ratio = 0.9\n"))
    with pytest.raises(ConfigError):
        parse_apparent(_parser("[apparent]\nse = 0.05\n"))


def test_apparent_unknown_key_rejected():
    with pytest.raises(ConfigError, match="ratio"):
        parse_apparent(_parser("[apparent]\nratio = 0.9\n"))


def test_sweep_grid_first_listed_key_varies_fastest(tmp_path):
    path = _write(
        tmp_path / "sweep.ini",
        "[sweep]\nfamily = bernoulli\n"
        "[grid]\n"
        "prevalence = 0.7/0.5, 0.8/0.4\n"
        "effect = 1.1, 1.25\n",
    )
    config = load_sweep_config(path)
    assert config.family is ConfounderFamily.BERNOULLI
    assert len(config.models) == 4
    seen = [
        (label["prevalence_control"], label["effect_control"]) for label in config.labels
    ]
    assert seen == [(0.7, 1.1), (0.8, 1.1), (0.7, 1.25), (0.8, 1.25)]
    assert config.models[1].params_treated == BernoulliParams(prevalence=0.4)
    assert config.models[2].effect_control == pytest.approx(math.log(1.25))


def test_sweep_sections_concatenate_in_file_order(tmp_path):
    path = _write(
        tmp_path / "sweep.ini",
        "[sweep]\nfamily = poisson\n"
        "[grid low]\nrate = 15/13, 15/11\neffect = 1.005\n"
        "[grid high]\nrate = 30/28\neffect = 1.005\n",
    )
    config = load_sweep_config(path)
    rates = [label["rate_control"] for label in config.labels]
    assert rates == [15.0, 15.0, 30.0]


def test_sweep_key_sets_must_match_across_sections(tmp_path):
    path = _write(
        tmp_path / "sweep.ini",
        "[sweep]\nfamily = normal\n"
        "[grid a]\nmean = 0/1\neffect = 1.1\n"
        "[grid b]\nmean = 0/1\nsd = 1/1\neffect = 1.1\n",
    )
    with pytest.raises(ConfigError, match="share one key set"):
        load_sweep_config(path)


def test_sweep_effect_and_log_effect_are_exclusive(tmp_path):
    both = _write(
        tmp_path / "both.ini",
        "[sweep]\nfamily = normal\n[grid]\nmean = 0/1\neffect = 1.1\nlog_effect = 0.1\n",
    )
    with pytest.raises(ConfigError, match="exactly one"):
        load_sweep_config(both)
    neither = _write(
        tmp_path / "neither.ini",
        "[sweep]\nfamily = normal\n[grid]\nmean = 0/1\n",
    )
    with pytest.raises(ConfigError, match="exactly one"):
        load_sweep_config(neither)


def test_sweep_log_effect_used_directly(tmp_path):
    path = _write(
        tmp_path / "log.ini",
        "[sweep]\nfamily = normal\n[grid]\nmean = 0/1\nlog_effect = 0.25\n",
    )
    config = load_sweep_config(path)
    assert config.models[0].effect_control == 0.25
    assert config.labels[0]["log_effect_control"] == 0.25


def test_sweep_nonpositive_effect_rejected(tmp_path):
    path = _write(
        tmp_path / "bad.ini",
        "[sweep]\nfamily = normal\n[grid]\nmean = 0/1\neffect = -1.1\n",
    )
    with pytest.raises(ConfigError, match="positive"):
        load_sweep_config(path)


def test_sweep_unknown_grid_key_names_expectations(tmp_path):
    path = _write(
        tmp_path / "typo.ini",
        "[sweep]\nfamily = bernoulli\n[grid]\nprevalance = 0.7/0.5\neffect = 1.1\n",
    )
    with pytest.raises(ConfigError, match="prevalence"):
        load_sweep_config(path)


def test_sweep_unknown_section_rejected(tmp_path):
    path = _write(
        tmp_path / "extra.ini",
        "[sweep]\nfamily = normal\n[grid]\nmean = 0/1\neffect = 1.1\n[output]\nx = 1\n",
    )
    with pytest.raises(ConfigError, match="output"):
        load_sweep_config(path)


def test_sweep_requires_family_and_a_grid(tmp_path):
    no_family = _write(tmp_path / "nf.ini", "[grid]\nmean = 0/1\neffect = 1.1\n")
    with pytest.raises(ConfigError, match="sweep"):
        load_sweep_config(no_family)
    no_grid = _write(tmp_path / "ng.ini", "[sweep]\nfamily = normal\n")
    with pytest.raises(ConfigError, match="grid"):
        load_sweep_config(no_grid)


def test_sweep_empty_grid_section_contributes_nothing(tmp_path):
    path = _write(
        tmp_path / "empty.ini",
        "[sweep]\nfamily = normal\n[grid a]\n[grid b]\nmean = 0/1\neffect = 1.1\n",
    )
    config = load_sweep_config(path)
    assert len(config.models) == 1


def test_sweep_gamma_ratio_parameterization_carries_note(tmp_path):
    path = _write(
        tmp_path / "ratio.ini",
        "[sweep]\nfamily = gamma\n[grid]\nmean_ratio = 1.1, 1.25\nvar_over_mean = 2, 3\neffect = 1.05\n",
    )
    config = load_sweep_config(path)
    assert len(config.models) == 4
    assert config.models[0].params_control == GammaParams(shape=1.1, scale=2.0)
    assert config.notes == [GAMMA_RATIO_CONVENTION]


def test_sweep_gamma_direct_parameterization(tmp_path):
    path = _write(
        tmp_path / "direct.ini",
        "[sweep]\nfamily = gamma\n[grid]\nshape = 0.5/0.9\nscale = 0.75\neffect = 1.2\n",
    )
    config = load_sweep_config(path)
    assert config.models[0].params_control == GammaParams(shape=0.5, scale=0.75)
    assert config.models[0].params_treated == GammaParams(shape=0.9, scale=0.75)
    assert config.notes == []


def test_sweep_gamma_mixed_parameterizations_rejected(tmp_path):
    path = _write(
        tmp_path / "mixed.ini",
        "[sweep]\nfamily = gamma\n[grid]\nshape = 0.5\nvar_over_mean = 2\neffect = 1.05\n",
    )
    with pytest.raises(ConfigError, match="mean_ratio"):
        load_sweep_config(path)


def test_scalar_keys_reject_arm_pairs(tmp_path):
    path = _write(
        tmp_path / "pairs.ini",
        "[sweep]\nfamily = gamma\n[grid]\nmean_ratio = 1.1/1.2\nvar_over_mean = 2\neffect = 1.05\n",
    )
    with pytest.raises(ConfigError, match="both arms"):
        load_sweep_config(path)


def test_pair_with_too_many_slashes_rejected(tmp_path):
    path = _write(
        tmp_path / "slash.ini",
        "[sweep]\nfamily = normal\n[grid]\nmean = 0/1/2\neffect = 1.1\n",
    )
    with pytest.raises(ConfigError, match="too many"):
        load_sweep_config(path)


def test_adjust_config_single_row(tmp_path):
    path = _write(
        tmp_path / "adjust.ini",
        "[apparent]\ncost_ratio = 0.873\nci_low = 0.793\nci_high = 0.960\n"
        "[confounder]\nfamily = bernoulli\nprevalence = 0.7/0.5\neffect = 1.1\n",
    )
    apparent, model, labels = load_adjust_config(path)
    assert apparent is not None
    assert model.params_control == BernoulliParams(prevalence=0.7)
    assert labels["effect_control"] == 1.1


def test_adjust_config_rejects_lists(tmp_path):
    path = _write(
        tmp_path / "lists.ini",
        "[confounder]\nfamily = bernoulli\nprevalence = 0.7/0.5, 0.8/0.4\neffect = 1.1\n",
    )
    with pytest.raises(ConfigError, match="lists are for sweeps"):
        load_adjust_config(path)


def test_load_scenarios_all_kinds(tmp_path):
    path = _write(
        tmp_path / "scenarios.ini",
        "[scenario bern]\n"
        "kind = ci\nfamily = bernoulli\nprevalence = 0.3/0.866\n"
        "gamma = 0.25\nn_per_arm = 100\ncensor_prob = 0.25\n"
        "[scenario linked]\n"
        "kind = cd\nfamily = normal\nphi1 = -1\nphi2 = 1\nphi3 = 2\nn = 500\ngamma = 0.75\n"
        "[scenario prop]\n"
        "kind = propensity\nmodel = model1\nn = 5000\n",
    )
    scenarios = load_scenarios(path, seed=77)
    assert [s.name for s in scenarios] == ["bern", "linked", "prop"]
    ci, cd, prop = (s.scenario for s in scenarios)
    assert isinstance(ci, CIScenario)
    assert ci.seed == 77 and ci.alpha == 5.0 and ci.beta_true == 1.0
    assert ci.params_treated == BernoulliParams(prevalence=0.866)
    assert isinstance(cd, CDScenario)
    assert (cd.phi1, cd.phi2, cd.phi3) == (-1.0, 1.0, 2.0)
    assert cd.censor_prob == 0.0
    assert isinstance(prop, PropensityScenario)
    assert prop.correlation_model == "model1"
    assert prop.seed == 77


def test_scenario_custom_correlations(tmp_path):
    path = _write(
        tmp_path / "prop.ini",
        "[scenario c]\nkind = propensity\ncorrelations = 0.3, -0.4, 0\nn = 1000\n",
    )
    (named,) = load_scenarios(path, seed=1)
    assert named.scenario.correlation_model == (0.3, -0.4, 0.0)


def test_scenario_correlation_errors_name_the_section(tmp_path):
    for line, message in (("correlations = 0.1, 0.2", "exactly 3"),
                          ("model = model9", "model9"),
                          ("correlations = 0.8, 0.8, 0.8", "positive definite")):
        path = _write(tmp_path / "prop.ini", f"[scenario c]\nkind = propensity\n{line}\nn = 1000\n")
        with pytest.raises(CorrelationModelError, match=rf"\[scenario c\]: .*{message}"):
            load_scenarios(path, seed=1)


def test_scenario_model_and_correlations_are_exclusive(tmp_path):
    path = _write(
        tmp_path / "bad.ini",
        "[scenario c]\nkind = propensity\nmodel = model1\ncorrelations = 0.1, 0.1, 0.1\nn = 1000\n",
    )
    with pytest.raises(ConfigError, match="exactly one"):
        load_scenarios(path, seed=1)


def test_scenario_duplicate_names_rejected(tmp_path):
    path = _write(
        tmp_path / "dup.ini",
        "[scenario a]\nkind = ci\nfamily = normal\nmean = 0/1\ngamma = 0\nn_per_arm = 50\n"
        "[scenario  a ]\nkind = ci\nfamily = normal\nmean = 0/1\ngamma = 0\nn_per_arm = 50\n",
    )
    with pytest.raises(ConfigError, match="duplicate"):
        load_scenarios(path, seed=1)


def test_scenario_seed_key_is_a_pointed_error(tmp_path):
    path = _write(
        tmp_path / "seeded.ini",
        "[scenario a]\nkind = ci\nfamily = normal\nmean = 0/1\ngamma = 0\nn_per_arm = 50\nseed = 5\n",
    )
    with pytest.raises(ConfigError, match="--seed"):
        load_scenarios(path, seed=1)


def test_scenario_unknown_kind_rejected(tmp_path):
    path = _write(tmp_path / "kind.ini", "[scenario a]\nkind = bootstrap\n")
    with pytest.raises(ConfigError, match="bootstrap"):
        load_scenarios(path, seed=1)


def test_scenario_section_must_carry_a_name(tmp_path):
    path = _write(
        tmp_path / "anon.ini",
        "[scenario]\nkind = ci\nfamily = normal\nmean = 0/1\ngamma = 0\nn_per_arm = 50\n",
    )
    with pytest.raises(ConfigError, match="scenario NAME"):
        load_scenarios(path, seed=1)


def test_missing_config_file():
    with pytest.raises(InputNotFoundError):
        load_sweep_config("/nonexistent/sweep.ini")


def test_malformed_ini_is_a_config_error(tmp_path):
    path = _write(tmp_path / "junk.ini", "just some text\nwithout sections\n")
    with pytest.raises(ConfigError):
        load_sweep_config(path)


# Four valid scenario sections, one per kind and confounder layout.
_VALID_SECTIONS = {
    "ci_gamma": {"kind": "ci", "family": "gamma", "shape": "0.5/0.9", "scale": "0.75",
                 "gamma": "0.5", "n_per_arm": "20", "censor_prob": "0.25", "alpha": "4",
                 "beta_true": "0.5", "theta_z": "0.8"},
    "ci_normal": {"kind": "ci", "family": "normal", "mean": "0/1", "sd": "1/2", "gamma": "0.25",
                  "n_per_arm": "20"},
    "cd_poisson": {"kind": "cd", "family": "poisson", "phi1": "-1", "phi2": "1", "phi3": "0.5",
                   "n": "40", "gamma": "0.5", "censor_prob": "0.1"},
    "propensity": {"kind": "propensity", "correlations": "0.3, 0.1, -0.2", "n": "100",
                   "gamma": "0.75"},
}

# Each valid section as it is, then with one fault: a key dropped (None), set
# to "zz" or "-1", an unknown key, or a seed; with the exit status and the
# stderr line (without its "error: " prefix) that simulate prints for it.
# These messages are part of the command-line contract.
_SINGLE_FAULTS = [
    ("ci_gamma", None, None, 0, ""),
    ("ci_gamma", "kind", None, 2, "config-error: [scenario s]: missing required key 'kind'"),
    ("ci_gamma", "kind", "zz", 2, "config-error: [scenario s]: kind must be ci, cd, or propensity, got 'zz'"),
    ("ci_gamma", "kind", "-1", 2, "config-error: [scenario s]: kind must be ci, cd, or propensity, got '-1'"),
    ("ci_gamma", "family", None, 2, "config-error: [scenario s]: missing required key 'family'"),
    ("ci_gamma", "family", "zz", 2, "config-error: [scenario s]: unknown confounder family 'zz'; expected one of bernoulli, normal, poisson, gamma"),
    ("ci_gamma", "family", "-1", 2, "config-error: [scenario s]: unknown confounder family '-1'; expected one of bernoulli, normal, poisson, gamma"),
    ("ci_gamma", "shape", None, 2, "config-error: [scenario s]: missing required key 'shape'"),
    ("ci_gamma", "shape", "zz", 2, "config-error: [scenario s]: shape = 'zz' is not a number"),
    ("ci_gamma", "shape", "-1", 2, "config-error: [scenario s]: shape and scale must be positive, got shape=-1.0, scale=0.75"),
    ("ci_gamma", "scale", None, 2, "config-error: [scenario s]: missing required key 'scale'"),
    ("ci_gamma", "scale", "zz", 2, "config-error: [scenario s]: scale = 'zz' is not a number"),
    ("ci_gamma", "scale", "-1", 2, "config-error: [scenario s]: shape and scale must be positive, got shape=0.5, scale=-1.0"),
    ("ci_gamma", "gamma", None, 2, "config-error: [scenario s]: missing required key 'gamma'"),
    ("ci_gamma", "gamma", "zz", 2, "config-error: [scenario s]: gamma = 'zz' is not a number"),
    ("ci_gamma", "gamma", "-1", 0, ""),
    ("ci_gamma", "n_per_arm", None, 2, "config-error: [scenario s]: missing required key 'n_per_arm'"),
    ("ci_gamma", "n_per_arm", "zz", 2, "config-error: [scenario s]: n_per_arm = 'zz' is not an integer"),
    ("ci_gamma", "n_per_arm", "-1", 2, "config-error: [scenario s]: n_per_arm must be at least 4, got -1"),
    ("ci_gamma", "censor_prob", None, 0, ""),
    ("ci_gamma", "censor_prob", "zz", 2, "config-error: [scenario s]: censor_prob = 'zz' is not a number"),
    ("ci_gamma", "censor_prob", "-1", 2, "config-error: [scenario s]: censor_prob must lie in [0, 1), got -1.0"),
    ("ci_gamma", "alpha", None, 0, ""),
    ("ci_gamma", "alpha", "zz", 2, "config-error: [scenario s]: alpha = 'zz' is not a number"),
    ("ci_gamma", "alpha", "-1", 0, ""),
    ("ci_gamma", "beta_true", None, 0, ""),
    ("ci_gamma", "beta_true", "zz", 2, "config-error: [scenario s]: beta_true = 'zz' is not a number"),
    ("ci_gamma", "beta_true", "-1", 0, ""),
    ("ci_gamma", "theta_z", None, 0, ""),
    ("ci_gamma", "theta_z", "zz", 2, "config-error: [scenario s]: theta_z = 'zz' is not a number"),
    ("ci_gamma", "theta_z", "-1", 0, ""),
    ("ci_gamma", "extra", "1", 2, "config-error: [scenario s]: unknown keys: extra"),
    ("ci_gamma", "seed", "5", 2, "config-error: [scenario s]: seed is supplied by the caller (--seed), not the file"),
    ("ci_normal", None, None, 0, ""),
    ("ci_normal", "kind", None, 2, "config-error: [scenario s]: missing required key 'kind'"),
    ("ci_normal", "kind", "zz", 2, "config-error: [scenario s]: kind must be ci, cd, or propensity, got 'zz'"),
    ("ci_normal", "kind", "-1", 2, "config-error: [scenario s]: kind must be ci, cd, or propensity, got '-1'"),
    ("ci_normal", "family", None, 2, "config-error: [scenario s]: missing required key 'family'"),
    ("ci_normal", "family", "zz", 2, "config-error: [scenario s]: unknown confounder family 'zz'; expected one of bernoulli, normal, poisson, gamma"),
    ("ci_normal", "family", "-1", 2, "config-error: [scenario s]: unknown confounder family '-1'; expected one of bernoulli, normal, poisson, gamma"),
    ("ci_normal", "mean", None, 2, "config-error: [scenario s]: missing required key 'mean'"),
    ("ci_normal", "mean", "zz", 2, "config-error: [scenario s]: mean = 'zz' is not a number"),
    ("ci_normal", "mean", "-1", 0, ""),
    ("ci_normal", "sd", None, 0, ""),
    ("ci_normal", "sd", "zz", 2, "config-error: [scenario s]: sd = 'zz' is not a number"),
    ("ci_normal", "sd", "-1", 2, "config-error: [scenario s]: sd must be positive, got -1.0"),
    ("ci_normal", "gamma", None, 2, "config-error: [scenario s]: missing required key 'gamma'"),
    ("ci_normal", "gamma", "zz", 2, "config-error: [scenario s]: gamma = 'zz' is not a number"),
    ("ci_normal", "gamma", "-1", 0, ""),
    ("ci_normal", "n_per_arm", None, 2, "config-error: [scenario s]: missing required key 'n_per_arm'"),
    ("ci_normal", "n_per_arm", "zz", 2, "config-error: [scenario s]: n_per_arm = 'zz' is not an integer"),
    ("ci_normal", "n_per_arm", "-1", 2, "config-error: [scenario s]: n_per_arm must be at least 4, got -1"),
    ("ci_normal", "extra", "1", 2, "config-error: [scenario s]: unknown keys: extra"),
    ("ci_normal", "seed", "5", 2, "config-error: [scenario s]: seed is supplied by the caller (--seed), not the file"),
    ("cd_poisson", None, None, 0, ""),
    ("cd_poisson", "kind", None, 2, "config-error: [scenario s]: missing required key 'kind'"),
    ("cd_poisson", "kind", "zz", 2, "config-error: [scenario s]: kind must be ci, cd, or propensity, got 'zz'"),
    ("cd_poisson", "kind", "-1", 2, "config-error: [scenario s]: kind must be ci, cd, or propensity, got '-1'"),
    ("cd_poisson", "family", None, 2, "config-error: [scenario s]: missing required key 'family'"),
    ("cd_poisson", "family", "zz", 2, "config-error: [scenario s]: unknown confounder family 'zz'; expected one of bernoulli, normal, poisson, gamma"),
    ("cd_poisson", "family", "-1", 2, "config-error: [scenario s]: unknown confounder family '-1'; expected one of bernoulli, normal, poisson, gamma"),
    ("cd_poisson", "phi1", None, 2, "config-error: [scenario s]: missing required key 'phi1'"),
    ("cd_poisson", "phi1", "zz", 2, "config-error: [scenario s]: phi1 = 'zz' is not a number"),
    ("cd_poisson", "phi1", "-1", 0, ""),
    ("cd_poisson", "phi2", None, 2, "config-error: [scenario s]: missing required key 'phi2'"),
    ("cd_poisson", "phi2", "zz", 2, "config-error: [scenario s]: phi2 = 'zz' is not a number"),
    ("cd_poisson", "phi2", "-1", 0, ""),
    ("cd_poisson", "phi3", None, 2, "config-error: [scenario s]: missing required key 'phi3'"),
    ("cd_poisson", "phi3", "zz", 2, "config-error: [scenario s]: phi3 = 'zz' is not a number"),
    ("cd_poisson", "phi3", "-1", 0, ""),
    ("cd_poisson", "n", None, 2, "config-error: [scenario s]: missing required key 'n'"),
    ("cd_poisson", "n", "zz", 2, "config-error: [scenario s]: n = 'zz' is not an integer"),
    ("cd_poisson", "n", "-1", 2, "config-error: [scenario s]: n must be at least 20, got -1"),
    ("cd_poisson", "gamma", None, 2, "config-error: [scenario s]: missing required key 'gamma'"),
    ("cd_poisson", "gamma", "zz", 2, "config-error: [scenario s]: gamma = 'zz' is not a number"),
    ("cd_poisson", "gamma", "-1", 0, ""),
    ("cd_poisson", "censor_prob", None, 0, ""),
    ("cd_poisson", "censor_prob", "zz", 2, "config-error: [scenario s]: censor_prob = 'zz' is not a number"),
    ("cd_poisson", "censor_prob", "-1", 2, "config-error: [scenario s]: censor_prob must lie in [0, 1), got -1.0"),
    ("cd_poisson", "extra", "1", 2, "config-error: [scenario s]: unknown keys: extra"),
    ("cd_poisson", "seed", "5", 2, "config-error: [scenario s]: seed is supplied by the caller (--seed), not the file"),
    ("propensity", None, None, 0, ""),
    ("propensity", "kind", None, 2, "config-error: [scenario s]: missing required key 'kind'"),
    ("propensity", "kind", "zz", 2, "config-error: [scenario s]: kind must be ci, cd, or propensity, got 'zz'"),
    ("propensity", "kind", "-1", 2, "config-error: [scenario s]: kind must be ci, cd, or propensity, got '-1'"),
    ("propensity", "correlations", None, 2, "config-error: [scenario s]: give exactly one of 'model' or 'correlations'"),
    ("propensity", "correlations", "zz", 2, "config-error: [scenario s]: correlations = 'zz' is not a number"),
    ("propensity", "correlations", "-1", 2, "correlation-model: [scenario s]: need exactly 3 correlations between U and Z, got 1"),
    ("propensity", "n", None, 2, "config-error: [scenario s]: missing required key 'n'"),
    ("propensity", "n", "zz", 2, "config-error: [scenario s]: n = 'zz' is not an integer"),
    ("propensity", "n", "-1", 2, "config-error: [scenario s]: n must be at least 100, got -1"),
    ("propensity", "gamma", None, 0, ""),
    ("propensity", "gamma", "zz", 2, "config-error: [scenario s]: gamma = 'zz' is not a number"),
    ("propensity", "gamma", "-1", 0, ""),
    ("propensity", "extra", "1", 2, "config-error: [scenario s]: unknown keys: extra"),
    ("propensity", "seed", "5", 2, "config-error: [scenario s]: seed is supplied by the caller (--seed), not the file"),
]


@pytest.mark.parametrize("section, key, value, status, error", _SINGLE_FAULTS,
                         ids=[f"{s}-{k}-{v}" for s, k, v, _, _ in _SINGLE_FAULTS])
def test_single_fault_scenario_sections_keep_their_status_and_message(
        tmp_path, capsys, section, key, value, status, error):
    items = dict(_VALID_SECTIONS[section])
    if value is None:
        items.pop(key, None)
    else:
        items[key] = value
    path = _write(tmp_path / "s.ini",
                  "[scenario s]\n" + "".join(f"{k} = {v}\n" for k, v in items.items()))
    got = main(["simulate", "--input", path, "--seed", "3", "--reps", "2", "--format", "csv"])
    assert (got, capsys.readouterr().err) == (status, f"error: {error}\n" if error else "")


# A valid sweep or adjust file per confounder layout, as sections of keys.
_VALID_FILES = {
    "sweep_bernoulli": {
        "apparent": {"cost_ratio": "0.873", "ci_low": "0.793", "ci_high": "0.960"},
        "sweep": {"family": "bernoulli"},
        "grid": {"prevalence": "0.7/0.5, 0.8/0.4", "effect": "1.1, 1.25"},
    },
    "sweep_normal": {
        "apparent": {"beta_star": "-0.136", "se": "0.0488", "level": "0.9"},
        "sweep": {"family": "normal"},
        "grid a": {"mean": "0/1", "sd": "1", "effect": "1.2"},
        "grid b": {"mean": "0.5/1", "sd": "2", "effect": "1.1, 1.3"},
    },
    "sweep_gamma": {
        "apparent": {"beta_star": "-0.136", "se": "0.0488"},
        "sweep": {"family": "gamma"},
        "grid": {"mean_ratio": "1.5, 2", "var_over_mean": "0.5", "log_effect": "0.2"},
    },
    "adjust_poisson": {
        "apparent": {"cost_ratio": "0.873", "ci_low": "0.793", "ci_high": "0.960"},
        "confounder": {"family": "poisson", "rate": "1/2", "effect": "1.1"},
    },
    "adjust_gamma": {
        "apparent": {"beta_star": "-0.136", "se": "0.0488"},
        "confounder": {"family": "gamma", "shape": "2", "scale": "0.5/0.6", "log_effect": "0.3"},
    },
}

# Each valid file as it is, then with one key of one section dropped (None) or
# set, where a new section name adds that section; with the exit status and
# the stderr line (without its "error: " prefix) that the file's command
# prints. These messages are part of the command-line contract.
_FILE_FAULTS = [
    ("sweep_bernoulli", None, None, None, 0, ""),
    ("sweep_bernoulli", "sweep", "family", None, 2, "config-error: [sweep]: missing required key 'family'"),
    ("sweep_bernoulli", "sweep", "family", "zz", 2, "config-error: [sweep]: unknown confounder family 'zz'; expected one of bernoulli, normal, poisson, gamma"),
    ("sweep_bernoulli", "sweep", "extra", "1", 2, "config-error: [sweep]: unknown keys: extra"),
    ("sweep_bernoulli", "sweep", "seed", "5", 2, "config-error: [sweep]: seed is supplied by the caller (--seed), not the file"),
    ("sweep_bernoulli", "grid", "prevalence", "2", 2, "config-error: [grid]: prevalence must lie in [0, 1], got 2.0"),
    ("sweep_bernoulli", "grid", "prevalence", "zz", 2, "config-error: [grid]: prevalence = 'zz' is not a number"),
    ("sweep_bernoulli", "grid", "prevalence", "inf", 2, "config-error: [grid]: prevalence must be finite, got 'inf'"),
    ("sweep_bernoulli", "grid", "prevalence", "0.5,", 2, "config-error: [grid]: prevalence has an empty list entry"),
    ("sweep_bernoulli", "grid", "prevalence", "0.5/0.5/0.5", 2, "config-error: [grid]: prevalence entry '0.5/0.5/0.5' has too many '/'; use 'value' for both arms or 'control/treated'"),
    ("sweep_bernoulli", "grid", "effect", None, 2, "config-error: [grid]: give exactly one of 'effect' or 'log_effect'"),
    ("sweep_bernoulli", "grid", "effect", "0", 2, "config-error: [grid]: effect is a multiplicative cost ratio and must be positive"),
    ("sweep_bernoulli", "grid", "effect", "-1", 2, "config-error: [grid]: effect is a multiplicative cost ratio and must be positive"),
    ("sweep_bernoulli", "grid", "log_effect", "0.1", 2, "config-error: [grid]: give exactly one of 'effect' or 'log_effect'"),
    ("sweep_bernoulli", "grid", "extra", "1", 2, "config-error: [grid]: bernoulli grids take prevalence; got: extra, prevalence"),
    ("sweep_bernoulli", "apparent", "cost_ratio", "-1", 2, "config-error: [apparent]: cost_ratio must be positive"),
    ("sweep_bernoulli", "apparent", "cost_ratio", "inf", 2, "config-error: [apparent]: cost_ratio must be finite, got 'inf'"),
    ("sweep_bernoulli", "apparent", "ci_low", "0.99", 2, "config-error: [apparent]: need 0 < ci_low < ci_high on the ratio scale"),
    ("sweep_bernoulli", "apparent", "ci_high", None, 2, "config-error: [apparent]: needs cost_ratio + ci_low + ci_high, or beta_star + se"),
    ("sweep_bernoulli", "apparent", "se", "0.1", 2, "config-error: [apparent]: give either cost_ratio/ci_low/ci_high or beta_star/se, not both"),
    ("sweep_bernoulli", "apparent", "level", "1.5", 2, "config-error: [apparent]: confidence level must lie in (0, 1), got 1.5"),
    ("sweep_bernoulli", "apparent", "level", "zz", 2, "config-error: [apparent]: level = 'zz' is not a number"),
    ("sweep_bernoulli", "apparent", "extra", "1", 2, "config-error: [apparent]: unknown keys: extra"),
    ("sweep_bernoulli", "extra", "a", "1", 2, "config-error: unknown section [extra]; expected [apparent], [sweep], or [grid*]"),
    ("sweep_normal", None, None, None, 0, ""),
    ("sweep_normal", "grid a", "sd", "-1", 2, "config-error: [grid a]: sd must be positive, got -1.0"),
    ("sweep_normal", "grid a", "mean", "nan", 2, "config-error: [grid a]: mean must be finite, got 'nan'"),
    ("sweep_normal", "grid b", "sd", None, 2, "config-error: [grid b]: grid sections must share one key set; expected effect, mean, sd"),
    ("sweep_normal", "grid b", "sd", "0", 2, "config-error: [grid b]: sd must be positive, got 0.0"),
    ("sweep_normal", "apparent", "se", "-1", 2, "config-error: [apparent]: standard error must be positive, got -1.0"),
    ("sweep_normal", "apparent", "beta_star", "zz", 2, "config-error: [apparent]: beta_star = 'zz' is not a number"),
    ("sweep_normal", "apparent", "level", "1.5", 2, "config-error: [apparent]: confidence level must lie in (0, 1), got 1.5"),
    ("sweep_normal", "apparent", "level", "0", 2, "config-error: [apparent]: confidence level must lie in (0, 1), got 0.0"),
    ("sweep_gamma", None, None, None, 0, ""),
    ("sweep_gamma", "sweep", "family", "poisson", 2, "config-error: [grid]: poisson grids take rate; got: mean_ratio, var_over_mean"),
    ("sweep_gamma", "grid", "mean_ratio", "0", 2, "config-error: [grid]: mean ratio must be positive, got 0.0"),
    ("sweep_gamma", "grid", "mean_ratio", "1.5/2", 2, "config-error: [grid]: mean_ratio applies to both arms; arm-specific 'a/b' values are not meaningful"),
    ("sweep_gamma", "grid", "var_over_mean", "-1", 2, "config-error: [grid]: variance-to-mean ratio must be positive, got -1.0"),
    ("sweep_gamma", "grid", "var_over_mean", None, 2, "config-error: [grid]: gamma grids take shape + scale, or mean_ratio + var_over_mean; got: mean_ratio"),
    ("sweep_gamma", "grid", "shape", "2", 2, "config-error: [grid]: gamma grids take shape + scale, or mean_ratio + var_over_mean; got: mean_ratio, shape, var_over_mean"),
    ("sweep_gamma", "grid", "log_effect", "zz", 2, "config-error: [grid]: log_effect = 'zz' is not a number"),
    ("adjust_poisson", None, None, None, 0, ""),
    ("adjust_poisson", "confounder", "family", None, 2, "config-error: [confounder]: missing required key 'family'"),
    ("adjust_poisson", "confounder", "family", "zz", 2, "config-error: [confounder]: unknown confounder family 'zz'; expected one of bernoulli, normal, poisson, gamma"),
    ("adjust_poisson", "confounder", "rate", "-1", 2, "config-error: [confounder]: rate must be nonnegative, got -1.0"),
    ("adjust_poisson", "confounder", "rate", "1, 2", 2, "config-error: [confounder]: lists are for sweeps; give a single value per key here"),
    ("adjust_poisson", "confounder", "effect", "0", 2, "config-error: [confounder]: effect is a multiplicative cost ratio and must be positive"),
    ("adjust_poisson", "confounder", "extra", "1", 2, "config-error: [confounder]: poisson grids take rate; got: extra, rate"),
    ("adjust_poisson", "apparent", "ci_low", "0.99", 2, "config-error: [apparent]: need 0 < ci_low < ci_high on the ratio scale"),
    ("adjust_poisson", "apparent", "level", "1.5", 2, "config-error: [apparent]: confidence level must lie in (0, 1), got 1.5"),
    ("adjust_poisson", "extra", "a", "1", 2, "config-error: unknown section [extra]; expected [apparent] or [confounder]"),
    ("adjust_gamma", None, None, None, 0, ""),
    ("adjust_gamma", "confounder", "shape", "-1", 2, "config-error: [confounder]: shape and scale must be positive, got shape=-1.0, scale=0.5"),
    ("adjust_gamma", "confounder", "scale", "zz", 2, "config-error: [confounder]: scale = 'zz' is not a number"),
    ("adjust_gamma", "confounder", "log_effect", "3", 0, ""),
    ("adjust_gamma", "confounder", "mean_ratio", "2", 2, "config-error: [confounder]: gamma grids take shape + scale, or mean_ratio + var_over_mean; got: mean_ratio, scale, shape"),
    ("adjust_gamma", "apparent", "se", "0", 2, "config-error: [apparent]: standard error must be positive, got 0.0"),
]


@pytest.mark.parametrize("file, section, key, value, status, error", _FILE_FAULTS,
                         ids=[f"{f}-{s}-{k}-{v}" for f, s, k, v, _, _ in _FILE_FAULTS])
def test_single_fault_sweep_and_adjust_files_keep_their_status_and_message(
        tmp_path, capsys, file, section, key, value, status, error):
    sections = {name: dict(items) for name, items in _VALID_FILES[file].items()}
    if section is not None:
        items = sections.setdefault(section, {})
        if value is None:
            items.pop(key)
        else:
            items[key] = value
    path = _write(tmp_path / "f.ini", "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        for name, items in sections.items()))
    command = file.split("_")[0]
    got = main([command, "--input", path, "--format", "csv"])
    assert (got, capsys.readouterr().err) == (status, f"error: {error}\n" if error else "")
