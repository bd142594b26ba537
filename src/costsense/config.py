"""Plain-text run configuration for sweeps, adjustments, and simulations.

Files use INI syntax, decoded as UTF-8 with an optional byte-order mark.
A sweep file holds an ``[apparent]`` section (the fitted effect, either as
a ratio with its interval or as ``beta_star`` plus ``se``), a ``[sweep]``
section naming the confounder family, and one or more ``[grid*]``
sections. Grid values are comma-separated lists; a value applies to both
arms unless written as ``control/treated``. Each section expands to the
Cartesian product of its lists with the first listed parameter varying
fastest, and sections contribute rows in file order.

A scenario file holds ``[scenario NAME]`` sections, each with a ``kind``
of ``ci``, ``cd``, or ``propensity`` plus that kind's parameters. Each
section becomes the matching scenario of :mod:`costsense.simulation`, and
all three kinds run through the same replication pipeline, so every
simulate option applies to each. Scenario parameters, and whether each
scenario's correction lies in its MGF domain, are validated here, before
any replication runs. Seeds are deliberately not file keys: the
caller supplies one so a scenario file describes the study, not the draw.

The dataclasses are the schema: the keys of a section are the fields of its
scenario class and of its family's parameter class, the fields' defaults
are the keys' defaults, and fields are read in declaration order, so a
section with several faults reports the first.
"""

from __future__ import annotations

import configparser
import itertools
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import ConfigError, CorrelationModelError, InputNotFoundError, MgfDomainError
from .sensitivity import (
    ApparentEffect,
    ConfounderFamily,
    ConfounderModel,
    FamilyParams,
    GAMMA_RATIO_CONVENTION,
    _PARAM_TYPES,
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
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as err:
        raise InputNotFoundError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8 text: {err.reason} at byte {err.start}") from None
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
    # An absent level is not passed, so ApparentEffect's default applies.
    level = {}
    if "level" in section:
        level["confidence_level"] = _float("apparent", "level", section["level"])
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
                **level,
            )
        if len(log_keys) == 2:
            return ApparentEffect(
                beta_star=_float("apparent", "beta_star", section["beta_star"]),
                se=_float("apparent", "se", section["se"]),
                **level,
            )
    except ValueError as err:
        raise ConfigError(f"[apparent]: {err}") from None
    raise ConfigError(
        "[apparent]: needs cost_ratio + ci_low + ci_high, or beta_star + se"
    )


# Gamma grids may give mean_ratio + var_over_mean in place of shape + scale.
_GAMMA_RATIO = {"mean_ratio", "var_over_mean"}


def _grid_keys(section: str, family: ConfounderFamily, present: set[str]) -> None:
    """Validate a grid section's key set: one effect key plus the fields of
    the family's parameters, those with a default optional."""
    effect_keys = {"effect", "log_effect"} & present
    if len(effect_keys) != 1:
        raise ConfigError(f"[{section}]: give exactly one of 'effect' or 'log_effect'")
    params = present - effect_keys
    param_fields = fields(_PARAM_TYPES[family])
    required = {f.name for f in param_fields if f.default is MISSING}
    allowed = {f.name for f in param_fields}
    gamma = family is ConfounderFamily.GAMMA
    if required <= params <= allowed or (gamma and params == _GAMMA_RATIO):
        return
    if gamma:
        raise ConfigError(
            f"[{section}]: gamma grids take shape + scale, or mean_ratio + var_over_mean; "
            f"got: {', '.join(sorted(params)) or 'nothing'}"
        )
    raise ConfigError(
        f"[{section}]: {family.value} grids take {' + '.join(sorted(allowed))}; "
        f"got: {', '.join(sorted(params)) or 'nothing'}"
    )


def _expand_section(section: str, family: ConfounderFamily,
                    items: list[tuple[str, str]]) -> list[dict]:
    """Cartesian product of a grid section, first-listed key fastest."""
    keys = [key for key, _ in items]
    values = []
    for key, raw in items:
        if key in _GAMMA_RATIO:
            values.append([(v,) for v in _scalar_list(section, key, raw)])
        else:
            values.append(_pair_list(section, key, raw))
    rows = []
    for combo in itertools.product(*reversed(values)):
        rows.append(dict(zip(reversed(keys), combo)))
    return rows


def _family_params(family: ConfounderFamily, pairs: dict) -> tuple[FamilyParams, FamilyParams]:
    """Control and treated parameters from ``(control, treated)`` value pairs
    keyed by field name; a field that ``pairs`` lacks keeps its default."""
    cls = _PARAM_TYPES[family]
    given = [f.name for f in fields(cls) if f.name in pairs]
    return tuple(cls(**{name: pairs[name][arm] for name in given}) for arm in (0, 1))


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
_SCENARIO_KINDS = {cls.kind: cls for cls in (CIScenario, CDScenario, PropensityScenario)}
# Readers of the scenario fields that one file key gives, by annotation.
_READERS = {"int": _int, "float": _float}


def _file_keys(field, family: ConfounderFamily | None) -> tuple[str, ...]:
    """The file keys that give a scenario field; the caller gives the seed."""
    if field.name == "params_control":
        return tuple(f.name for f in fields(_PARAM_TYPES[family]))
    if field.name == "correlation_model":
        return ("model", "correlations")
    if field.name in ("params_treated", "seed"):
        return ()
    return (field.name,)


@contextmanager
def _scenario_errors(section: str):
    """Name the section in the errors a scenario raises while it is built."""
    try:
        yield
    except (ValueError, TypeError) as err:
        raise ConfigError(f"[{section}]: {err}") from None
    except (CorrelationModelError, MgfDomainError) as err:
        raise type(err)(f"[{section}]: {err}") from None


def _parse_scenario(section: str, mapping, kind: str, seed: int):
    """Build a ``kind`` scenario from its section, reading its fields in
    declaration order; a key that is absent leaves the field's default."""
    cls = _SCENARIO_KINDS[kind]
    scenario_fields = fields(cls)
    family = _family(section, mapping) if "family" in cls.__dataclass_fields__ else None
    _reject_unknown(section, mapping,
                    {"kind", *(key for f in scenario_fields for key in _file_keys(f, family))})
    values = {"seed": seed}
    with _scenario_errors(section):
        for field in scenario_fields:
            if field.name == "family":
                values["family"] = family
            elif field.name == "params_control":
                pairs = {f.name: _pair(section, f.name, _require(section, mapping, f.name))
                         for f in fields(_PARAM_TYPES[family])
                         if f.name in mapping or f.default is MISSING}
                values["params_control"], values["params_treated"] = _family_params(family, pairs)
            elif field.name == "correlation_model":
                if ("model" in mapping) == ("correlations" in mapping):
                    raise ConfigError(f"[{section}]: give exactly one of 'model' or 'correlations'")
                values[field.name] = (
                    mapping["model"].strip() if "model" in mapping
                    else tuple(_scalar_list(section, "correlations", mapping["correlations"]))
                )
            elif field.name not in values and (field.name in mapping or field.default is MISSING):
                raw = _require(section, mapping, field.name)
                values[field.name] = _READERS[field.type](section, field.name, raw)
        return cls(**values)


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
        if kind not in _SCENARIO_KINDS:
            raise ConfigError(f"[{section}]: kind must be ci, cd, or propensity, got {kind!r}")
        scenarios.append(NamedScenario(name, _parse_scenario(section, mapping, kind, seed)))
    return scenarios
