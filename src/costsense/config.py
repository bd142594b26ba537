"""Plain-text run configuration for sweeps, adjustments, and simulations.

Files use INI syntax. A sweep file holds an ``[apparent]`` section (the
fitted effect, either as a ratio with its interval or as ``beta_star``
plus ``se``), a ``[sweep]`` section naming the confounder family, and one
or more ``[grid*]`` sections. Grid values are comma-separated lists; a
value applies to both arms unless written as ``control/treated``. Each
section expands to the Cartesian product of its lists with the first
listed parameter varying fastest, and sections contribute rows in file
order.

A scenario file holds ``[scenario NAME]`` sections, each with a ``kind``
of ``ci``, ``cd``, or ``propensity`` plus that kind's parameters. Each
section becomes the matching scenario of :mod:`costsense.simulation`, and
all three kinds run through the same replication pipeline, so every
simulate option applies to each. Scenario parameters, and whether each
scenario's correction lies in its MGF domain, are validated here, before
any replication runs. Seeds are deliberately not file keys: the
caller supplies one so a scenario file describes the study, not the draw.
"""

from __future__ import annotations

import configparser
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, CorrelationModelError, InputNotFoundError, MgfDomainError
from .sensitivity import (
    ApparentEffect,
    BernoulliParams,
    ConfounderFamily,
    ConfounderModel,
    FamilyParams,
    GAMMA_RATIO_CONVENTION,
    GammaParams,
    NormalParams,
    PoissonParams,
    gamma_arms_from_mean_ratio,
)
from .simulation import CDScenario, CIScenario, PropensityScenario


@dataclass(frozen=True)
class NamedScenario:
    name: str
    scenario: object


@dataclass
class SweepConfig:
    """A parsed sweep: the grid rows plus optional apparent effect."""

    family: ConfounderFamily
    models: list[ConfounderModel]
    labels: list[dict[str, float]]
    apparent: ApparentEffect | None
    notes: list[str]


def _read_ini(path) -> configparser.ConfigParser:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise InputNotFoundError(f"no such file: {path}") from None
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as err:
        raise ConfigError(str(err)) from None
    return parser


def _reject_unknown(section: str, present, allowed) -> None:
    unknown = sorted(set(present) - set(allowed))
    if "seed" in unknown:
        raise ConfigError(f"[{section}]: seed is supplied by the caller (--seed), not the file")
    if unknown:
        raise ConfigError(f"[{section}]: unknown keys: {', '.join(unknown)}")


def _require(section: str, mapping, key: str) -> str:
    if key not in mapping:
        raise ConfigError(f"[{section}]: missing required key {key!r}")
    return mapping[key]


def _family(section: str, mapping) -> ConfounderFamily:
    try:
        return ConfounderFamily.from_string(_require(section, mapping, "family"))
    except ValueError as err:
        raise ConfigError(f"[{section}]: {err}") from None


def _float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}]: {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}]: {key} must be finite, got {raw!r}")
    return value


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}]: {key} = {raw!r} is not an integer") from None


def _pair(section: str, key: str, item: str) -> tuple[float, float]:
    parts = item.split("/")
    if len(parts) == 1:
        value = _float(section, key, parts[0])
        return value, value
    if len(parts) == 2:
        return _float(section, key, parts[0]), _float(section, key, parts[1])
    raise ConfigError(
        f"[{section}]: {key} entry {item!r} has too many '/'; "
        "use 'value' for both arms or 'control/treated'"
    )


def _pair_list(section: str, key: str, raw: str) -> list[tuple[float, float]]:
    items = [item.strip() for item in raw.split(",")]
    if any(not item for item in items):
        raise ConfigError(f"[{section}]: {key} has an empty list entry")
    return [_pair(section, key, item) for item in items]


def _scalar_list(section: str, key: str, raw: str) -> list[float]:
    items = [item.strip() for item in raw.split(",")]
    if any(not item for item in items):
        raise ConfigError(f"[{section}]: {key} has an empty list entry")
    if any("/" in item for item in items):
        raise ConfigError(
            f"[{section}]: {key} applies to both arms; arm-specific 'a/b' values are not meaningful"
        )
    return [_float(section, key, item) for item in items]


def parse_apparent(parser: configparser.ConfigParser) -> ApparentEffect | None:
    """The ``[apparent]`` section as an effect, or None when absent."""
    if not parser.has_section("apparent"):
        return None
    section = parser["apparent"]
    _reject_unknown("apparent", section, ("cost_ratio", "ci_low", "ci_high", "beta_star", "se", "level"))
    level = _float("apparent", "level", section.get("level", "0.95"))
    ratio_keys = [k for k in ("cost_ratio", "ci_low", "ci_high") if k in section]
    log_keys = [k for k in ("beta_star", "se") if k in section]
    if ratio_keys and log_keys:
        raise ConfigError("[apparent]: give either cost_ratio/ci_low/ci_high or beta_star/se, not both")
    try:
        if len(ratio_keys) == 3:
            return ApparentEffect.from_ratio_ci(
                cost_ratio=_float("apparent", "cost_ratio", section["cost_ratio"]),
                ci_low=_float("apparent", "ci_low", section["ci_low"]),
                ci_high=_float("apparent", "ci_high", section["ci_high"]),
                confidence_level=level,
            )
        if len(log_keys) == 2:
            return ApparentEffect(
                beta_star=_float("apparent", "beta_star", section["beta_star"]),
                se=_float("apparent", "se", section["se"]),
                confidence_level=level,
            )
    except ValueError as err:
        raise ConfigError(f"[apparent]: {err}") from None
    raise ConfigError(
        "[apparent]: needs cost_ratio + ci_low + ci_high, or beta_star + se"
    )


# Required and optional parameter keys per family for grid, confounder and CI
# scenario sections; gamma grids may give mean_ratio + var_over_mean instead.
_FAMILY_KEYS = {
    ConfounderFamily.BERNOULLI: ({"prevalence"}, set()),
    ConfounderFamily.NORMAL: ({"mean"}, {"sd"}),
    ConfounderFamily.POISSON: ({"rate"}, set()),
    ConfounderFamily.GAMMA: ({"shape", "scale"}, set()),
}
_GAMMA_DIRECT = {"shape", "scale"}
_GAMMA_RATIO = {"mean_ratio", "var_over_mean"}
_SCALAR_KEYS = _GAMMA_RATIO


def _grid_keys(section: str, family: ConfounderFamily, present: set[str]) -> set[str]:
    """Validate a grid section's key set and return the parameter keys."""
    effect_keys = {"effect", "log_effect"} & present
    if len(effect_keys) != 1:
        raise ConfigError(f"[{section}]: give exactly one of 'effect' or 'log_effect'")
    params = present - effect_keys
    if family is ConfounderFamily.GAMMA:
        if params == _GAMMA_DIRECT or params == _GAMMA_RATIO:
            return params
        raise ConfigError(
            f"[{section}]: gamma grids take shape + scale, or mean_ratio + var_over_mean; "
            f"got: {', '.join(sorted(params)) or 'nothing'}"
        )
    required, optional = _FAMILY_KEYS[family]
    if not required <= params or not params <= required | optional:
        expected = " + ".join(sorted(required | optional))
        raise ConfigError(
            f"[{section}]: {family.value} grids take {expected}; "
            f"got: {', '.join(sorted(params)) or 'nothing'}"
        )
    return params


def _expand_section(section: str, family: ConfounderFamily,
                    items: list[tuple[str, str]]) -> list[dict]:
    """Cartesian product of a grid section, first-listed key fastest."""
    keys = [key for key, _ in items]
    values = []
    for key, raw in items:
        if key in _SCALAR_KEYS:
            values.append([(v,) for v in _scalar_list(section, key, raw)])
        else:
            values.append(_pair_list(section, key, raw))
    rows = []
    for combo in itertools.product(*reversed(values)):
        rows.append(dict(zip(reversed(keys), combo)))
    return rows


def _family_params(family: ConfounderFamily, pairs: dict) -> tuple[FamilyParams, FamilyParams]:
    """Control and treated parameters from ``(control, treated)`` value pairs."""
    if family is ConfounderFamily.BERNOULLI:
        return tuple(BernoulliParams(v) for v in pairs["prevalence"])
    if family is ConfounderFamily.NORMAL:
        sds = pairs.get("sd", (1.0, 1.0))
        return tuple(NormalParams(mean=m, sd=s) for m, s in zip(pairs["mean"], sds))
    if family is ConfounderFamily.POISSON:
        return tuple(PoissonParams(v) for v in pairs["rate"])
    return tuple(GammaParams(shape=k, scale=t) for k, t in zip(pairs["shape"], pairs["scale"]))


def _model_from_row(section: str, family: ConfounderFamily, row: dict) -> tuple[ConfounderModel, dict]:
    labels: dict[str, float] = {}
    try:
        if "mean_ratio" in row:
            ratio, spread = row["mean_ratio"][0], row["var_over_mean"][0]
            control, treated = gamma_arms_from_mean_ratio(ratio, spread)
            labels["mean_ratio"], labels["var_over_mean"] = ratio, spread
        else:
            control, treated = _family_params(family, row)
            for field in fields(control):
                labels[f"{field.name}_control"] = getattr(control, field.name)
                labels[f"{field.name}_treated"] = getattr(treated, field.name)

        if "effect" in row:
            ratios = row["effect"]
            if min(ratios) <= 0:
                raise ValueError("effect is a multiplicative cost ratio and must be positive")
            effects = (math.log(ratios[0]), math.log(ratios[1]))
            labels["effect_control"], labels["effect_treated"] = ratios
        else:
            effects = row["log_effect"]
            labels["log_effect_control"], labels["log_effect_treated"] = effects
        model = ConfounderModel(
            family=family,
            params_control=control,
            params_treated=treated,
            effect_control=effects[0],
            effect_treated=effects[1],
        )
    except ValueError as err:
        raise ConfigError(f"[{section}]: {err}") from None
    return model, labels


def load_sweep_config(path) -> SweepConfig:
    """Parse a sweep file into grid rows plus the optional apparent effect."""
    parser = _read_ini(path)
    grid_sections = [name for name in parser.sections() if name.startswith("grid")]
    for name in parser.sections():
        if name not in ("apparent", "sweep") and not name.startswith("grid"):
            raise ConfigError(f"unknown section [{name}]; expected [apparent], [sweep], or [grid*]")
    if not parser.has_section("sweep"):
        raise ConfigError("missing [sweep] section naming the confounder family")
    sweep_section = parser["sweep"]
    _reject_unknown("sweep", sweep_section, ("family",))
    family = _family("sweep", sweep_section)
    if not grid_sections:
        raise ConfigError("no [grid*] sections found")

    models: list[ConfounderModel] = []
    labels: list[dict[str, float]] = []
    reference_keys: set[str] | None = None
    for name in grid_sections:
        items = list(parser[name].items())
        if not items:
            continue
        present = {key for key, _ in items}
        _grid_keys(name, family, present)
        if reference_keys is None:
            reference_keys = present
        elif present != reference_keys:
            raise ConfigError(
                f"[{name}]: grid sections must share one key set; "
                f"expected {', '.join(sorted(reference_keys))}"
            )
        for row in _expand_section(name, family, items):
            model, row_labels = _model_from_row(name, family, row)
            models.append(model)
            labels.append(row_labels)

    notes = []
    if reference_keys and _GAMMA_RATIO <= reference_keys:
        notes.append(GAMMA_RATIO_CONVENTION)
    return SweepConfig(
        family=family,
        models=models,
        labels=labels,
        apparent=parse_apparent(parser),
        notes=notes,
    )


def load_adjust_config(path) -> tuple[ApparentEffect | None, ConfounderModel, dict]:
    """Parse an adjustment file: ``[apparent]`` plus one ``[confounder]``.

    The confounder section takes the same keys as a grid section but a
    single value per key.
    """
    parser = _read_ini(path)
    for name in parser.sections():
        if name not in ("apparent", "confounder"):
            raise ConfigError(f"unknown section [{name}]; expected [apparent] or [confounder]")
    if not parser.has_section("confounder"):
        raise ConfigError("missing [confounder] section")
    section = parser["confounder"]
    items = [(key, raw) for key, raw in section.items() if key != "family"]
    family = _family("confounder", section)
    _grid_keys("confounder", family, {key for key, _ in items})
    rows = _expand_section("confounder", family, items)
    if len(rows) != 1:
        raise ConfigError(
            "[confounder]: lists are for sweeps; give a single value per key here"
        )
    model, labels = _model_from_row("confounder", family, rows[0])
    return parse_apparent(parser), model, labels


_SCENARIO_PREFIX = "scenario"


# The optional cost-model keys of CI and CD scenarios with their defaults
# (gamma is required), and the keys every CI and CD section accepts.
_COST_MODEL_DEFAULTS = {"censor_prob": "0", "alpha": "5", "beta_true": "1", "theta_z": "1"}
_SHARED_KEYS = {"kind", "family", "gamma", *_COST_MODEL_DEFAULTS}


def _cost_model(section: str, mapping) -> dict[str, float]:
    values = {"gamma": _float(section, "gamma", _require(section, mapping, "gamma"))}
    for key, default in _COST_MODEL_DEFAULTS.items():
        values[key] = _float(section, key, mapping.get(key, default))
    return values


@contextmanager
def _scenario_errors(section: str):
    """Name the section in the errors a scenario raises while it is built."""
    try:
        yield
    except (ValueError, TypeError) as err:
        raise ConfigError(f"[{section}]: {err}") from None
    except (CorrelationModelError, MgfDomainError) as err:
        raise type(err)(f"[{section}]: {err}") from None


def _parse_ci_scenario(section: str, mapping, seed: int) -> CIScenario:
    family = _family(section, mapping)
    required, optional = _FAMILY_KEYS[family]
    _reject_unknown(section, mapping, _SHARED_KEYS | {"n_per_arm"} | required | optional)
    pairs = {}
    for key in required:
        pairs[key] = _pair(section, key, _require(section, mapping, key))
    for key in optional:
        if key in mapping:
            pairs[key] = _pair(section, key, mapping[key])
    with _scenario_errors(section):
        control, treated = _family_params(family, pairs)
        return CIScenario(
            **_cost_model(section, mapping),
            family=family,
            params_control=control,
            params_treated=treated,
            n_per_arm=_int(section, "n_per_arm", _require(section, mapping, "n_per_arm")),
            seed=seed,
        )


def _parse_cd_scenario(section: str, mapping, seed: int) -> CDScenario:
    family = _family(section, mapping)
    _reject_unknown(section, mapping, _SHARED_KEYS | {"n", "phi1", "phi2", "phi3"})
    with _scenario_errors(section):
        return CDScenario(
            **_cost_model(section, mapping),
            family=family,
            phi1=_float(section, "phi1", _require(section, mapping, "phi1")),
            phi2=_float(section, "phi2", _require(section, mapping, "phi2")),
            phi3=_float(section, "phi3", _require(section, mapping, "phi3")),
            n=_int(section, "n", _require(section, mapping, "n")),
            seed=seed,
        )


def _parse_propensity_scenario(section: str, mapping, seed: int) -> PropensityScenario:
    _reject_unknown(section, mapping, {"kind", "model", "correlations", "n", "gamma"})
    if ("model" in mapping) == ("correlations" in mapping):
        raise ConfigError(f"[{section}]: give exactly one of 'model' or 'correlations'")
    if "model" in mapping:
        correlation_model: object = mapping["model"].strip()
    else:
        correlation_model = tuple(_scalar_list(section, "correlations", mapping["correlations"]))
    with _scenario_errors(section):
        return PropensityScenario(
            correlation_model=correlation_model,
            n=_int(section, "n", _require(section, mapping, "n")),
            gamma=_float(section, "gamma", mapping.get("gamma", "0.5")),
            seed=seed,
        )


_SCENARIO_PARSERS = {"ci": _parse_ci_scenario, "cd": _parse_cd_scenario,
                     "propensity": _parse_propensity_scenario}


def load_scenarios(path, seed: int) -> list[NamedScenario]:
    """Parse ``[scenario NAME]`` sections into scenario objects.

    ``seed`` (typically from the command line) is stamped into every
    scenario; scenario files never carry seeds themselves.
    """
    parser = _read_ini(path)
    if not parser.sections():
        raise ConfigError("no [scenario NAME] sections found")
    scenarios = []
    seen = set()
    for section in parser.sections():
        parts = section.split(None, 1)
        if parts[0] != _SCENARIO_PREFIX or len(parts) != 2:
            raise ConfigError(f"unknown section [{section}]; expected [scenario NAME]")
        name = parts[1].strip()
        if name in seen:
            raise ConfigError(f"duplicate scenario name {name!r}")
        seen.add(name)
        mapping = parser[section]
        kind = _require(section, mapping, "kind").strip().lower()
        if kind not in _SCENARIO_PARSERS:
            raise ConfigError(f"[{section}]: kind must be ci, cd, or propensity, got {kind!r}")
        scenarios.append(NamedScenario(name, _SCENARIO_PARSERS[kind](section, mapping, seed)))
    return scenarios
