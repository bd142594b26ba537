"""Sensitivity analysis for an unmeasured multiplicative confounder.

Suppose costs follow a log-linear mean model in treatment, measured
covariates and one unmeasured covariate U whose effect enters as
``exp(gamma * U)``. Fitting without U still gives a well-defined treatment
coefficient, but one contaminated by however differently U is distributed
across arms. When U is conditionally independent of the measured
covariates given treatment, the contamination is exactly the difference of
the log moment generating functions of U in the two arms, so a hypothesized
distribution for U converts an apparent effect into a corrected one:

    beta = beta_star - log M_treated(gamma_treated) + log M_control(gamma_control)

The correction shifts the point estimate only. Its sampling variance is
unchanged, so the corrected interval is the apparent one translated on the
log scale.

Four confounder families with closed-form MGFs are supported: Bernoulli,
Normal, Poisson and Gamma.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import MgfDomainError


class ConfounderFamily(enum.Enum):
    BERNOULLI = "bernoulli"
    NORMAL = "normal"
    POISSON = "poisson"
    GAMMA = "gamma"

    @classmethod
    def from_string(cls, name: str) -> "ConfounderFamily":
        try:
            return cls(name.strip().lower())
        except ValueError:
            options = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown confounder family {name!r}; expected one of {options}") from None


@dataclass(frozen=True)
class BernoulliParams:
    prevalence: float

    def __post_init__(self):
        if not 0.0 <= self.prevalence <= 1.0:
            raise ValueError(f"prevalence must lie in [0, 1], got {self.prevalence}")

    def log_mgf(self, gamma: float) -> float:
        p = self.prevalence
        if p == 0.0 or gamma == 0.0:
            return 0.0
        if p == 1.0:
            return float(gamma)
        return float(np.logaddexp(gamma + math.log(p), math.log1p(-p)))


@dataclass(frozen=True)
class NormalParams:
    mean: float
    sd: float = 1.0

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError(f"sd must be positive, got {self.sd}")

    def log_mgf(self, gamma: float) -> float:
        return self.mean * gamma + 0.5 * (self.sd * gamma) ** 2


@dataclass(frozen=True)
class PoissonParams:
    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"rate must be nonnegative, got {self.rate}")

    def log_mgf(self, gamma: float) -> float:
        return self.rate * math.expm1(gamma)


@dataclass(frozen=True)
class GammaParams:
    shape: float
    scale: float

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError(
                f"shape and scale must be positive, got shape={self.shape}, scale={self.scale}"
            )

    def log_mgf(self, gamma: float) -> float:
        if self.scale * gamma >= 1.0:
            raise MgfDomainError(
                "gamma confounder requires scale * effect < 1 on the log scale; "
                f"got {self.scale} * {gamma} = {self.scale * gamma:g}"
            )
        return -self.shape * math.log1p(-self.scale * gamma)


FamilyParams = BernoulliParams | NormalParams | PoissonParams | GammaParams

_PARAM_TYPES = {
    ConfounderFamily.BERNOULLI: BernoulliParams,
    ConfounderFamily.NORMAL: NormalParams,
    ConfounderFamily.POISSON: PoissonParams,
    ConfounderFamily.GAMMA: GammaParams,
}


def check_params(family: ConfounderFamily, params, owner: str = "confounder",
                 arm: str | None = None) -> None:
    """Raise TypeError unless ``params`` is ``family``'s parameter dataclass."""
    expected = _PARAM_TYPES[family]
    if not isinstance(params, expected):
        where = f" for the {arm} arm" if arm else ""
        raise TypeError(
            f"{family.value} {owner} needs {expected.__name__}{where}, got {type(params).__name__}"
        )


def log_mgf(family: ConfounderFamily, params: FamilyParams, gamma: float) -> float:
    """Closed-form log moment generating function ``log E[exp(gamma U)]``.

    Raises :class:`~costsense.errors.MgfDomainError` when ``gamma`` lies
    outside the family's domain (only the Gamma family is restricted, to
    ``scale * gamma < 1``) or the log-MGF lies beyond the float range.
    """
    check_params(family, params)
    try:
        value = params.log_mgf(float(gamma))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise MgfDomainError(
            f"the {family.value} confounder's log-MGF at effect {gamma:g} overflows a float"
        )
    return value


@dataclass(frozen=True)
class ConfounderModel:
    """Hypothesized unmeasured confounder: per-arm law and per-arm effect.

    Effects are on the log scale (the multiplicative effect is their exp).
    """

    family: ConfounderFamily
    params_control: FamilyParams
    params_treated: FamilyParams
    effect_control: float
    effect_treated: float

    def __post_init__(self):
        for arm, params in (("control", self.params_control), ("treated", self.params_treated)):
            check_params(self.family, params, arm=arm)

    def correction(self) -> float:
        """Log-scale shift removed from the apparent treatment coefficient."""
        return log_mgf(self.family, self.params_treated, self.effect_treated) - log_mgf(
            self.family, self.params_control, self.effect_control
        )


def exp_ratio(log_ratio: float) -> float:
    """``exp(log_ratio)``, a ratio too large for a float being ``inf``."""
    try:
        return math.exp(log_ratio)
    except OverflowError:
        return math.inf


def z_quantile(level: float) -> float:
    """Two-sided normal critical value for a confidence ``level`` in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    upper = 0.5 + level / 2.0
    # A level within an ulp of 1 rounds the upper tail point to 1.
    return NormalDist().inv_cdf(upper) if upper < 1.0 else math.inf


@dataclass(frozen=True)
class ApparentEffect:
    """Treatment coefficient as fitted without the unmeasured confounder."""

    beta_star: float
    se: float
    confidence_level: float = 0.95

    def __post_init__(self):
        if not np.isfinite(self.beta_star):
            raise ValueError("beta_star must be finite")
        if not self.se > 0:
            raise ValueError(f"standard error must be positive, got {self.se}")
        z_quantile(self.confidence_level)

    @property
    def ci_low(self) -> float:
        return self.beta_star - z_quantile(self.confidence_level) * self.se

    @property
    def ci_high(self) -> float:
        return self.beta_star + z_quantile(self.confidence_level) * self.se

    @property
    def cost_ratio(self) -> float:
        return exp_ratio(self.beta_star)

    @property
    def ratio_ci(self) -> tuple[float, float]:
        return exp_ratio(self.ci_low), exp_ratio(self.ci_high)

    @classmethod
    def from_ratio_ci(
        cls, cost_ratio: float, ci_low: float, ci_high: float, confidence_level: float = 0.95
    ) -> "ApparentEffect":
        """Build from a published cost ratio and its confidence interval.

        The standard error is recovered from the interval width on the log
        scale, so slightly rounded inputs give a slightly rounded ``se``.
        """
        if not 0 < ci_low < ci_high:
            raise ValueError("need 0 < ci_low < ci_high on the ratio scale")
        if cost_ratio <= 0:
            raise ValueError("cost_ratio must be positive")
        z = z_quantile(confidence_level)
        se = (math.log(ci_high) - math.log(ci_low)) / (2.0 * z)
        return cls(beta_star=math.log(cost_ratio), se=se, confidence_level=confidence_level)


@dataclass(frozen=True)
class AdjustedEffect:
    """Corrected treatment effect with its translated confidence interval."""

    beta: float
    se: float
    ci_low: float
    ci_high: float
    cost_ratio: float
    ratio_ci_low: float
    ratio_ci_high: float
    confidence_level: float


def adjust_effect(apparent: ApparentEffect, confounder: ConfounderModel) -> AdjustedEffect:
    """Correct an apparent effect for a hypothesized unmeasured confounder.

    The corrected coefficient subtracts the treated-arm log-MGF of the
    confounder and adds back the control-arm one; the standard error passes
    through untouched, so the interval keeps its width.
    """
    beta = apparent.beta_star - confounder.correction()
    z = z_quantile(apparent.confidence_level)
    lo = beta - z * apparent.se
    hi = beta + z * apparent.se
    return AdjustedEffect(
        beta=beta,
        se=apparent.se,
        ci_low=lo,
        ci_high=hi,
        cost_ratio=exp_ratio(beta),
        ratio_ci_low=exp_ratio(lo),
        ratio_ci_high=exp_ratio(hi),
        confidence_level=apparent.confidence_level,
    )


def gamma_arms_from_mean_ratio(mean_ratio: float, var_over_mean: float):
    """Per-arm Gamma parameters from a mean ratio and variance-to-mean ratio.

    Convention: both arms share the scale ``var_over_mean`` and the treated
    arm's shape is normalized to one, so the control shape equals the
    control/treated mean ratio. This unit-treated-shape normalization is
    what reproduces the published sensitivity grids; an absolute location
    for the confounder is not identified by (ratio, scale) alone.
    """
    if mean_ratio <= 0:
        raise ValueError(f"mean ratio must be positive, got {mean_ratio}")
    if var_over_mean <= 0:
        raise ValueError(f"variance-to-mean ratio must be positive, got {var_over_mean}")
    control = GammaParams(shape=mean_ratio, scale=var_over_mean)
    treated = GammaParams(shape=1.0, scale=var_over_mean)
    return control, treated


GAMMA_RATIO_CONVENTION = (
    "gamma ratio grids share one scale (var/mean) across arms with the "
    "treated-arm shape normalized to 1, so shape_control = mean ratio"
)


def _ci_excludes_one(ratio_low: float, ratio_high: float) -> bool:
    """Whether the interval excludes one once rounded to the 2 printed decimals."""
    return round(ratio_high, 2) < 1.0 or round(ratio_low, 2) > 1.0


@dataclass(frozen=True)
class SweepRow:
    """One grid entry: the model tried, and either a result or an error."""

    confounder: ConfounderModel
    adjusted: AdjustedEffect | None
    significance_changed: bool | None
    error: str | None = None


def sweep(apparent: ApparentEffect, grid: list[ConfounderModel]) -> list[SweepRow]:
    """Adjust ``apparent`` under every confounder model in ``grid``.

    Each row flags whether the adjusted interval changes the significance
    of the apparent one. Published grids report intervals rounded to two
    decimals on the ratio scale, so the flag is judged at that same display
    precision; an interval whose upper bound prints as 1.00 counts as
    crossing one.

    A grid entry whose effect lies outside the MGF domain yields a row
    carrying the error message instead of a result; other rows are
    unaffected.
    """
    apparent_lo, apparent_hi = apparent.ratio_ci
    apparent_sig = _ci_excludes_one(apparent_lo, apparent_hi)
    rows = []
    for confounder in grid:
        try:
            adjusted = adjust_effect(apparent, confounder)
        except MgfDomainError as err:
            rows.append(
                SweepRow(confounder=confounder, adjusted=None, significance_changed=None, error=str(err))
            )
            continue
        adjusted_sig = _ci_excludes_one(adjusted.ratio_ci_low, adjusted.ratio_ci_high)
        rows.append(
            SweepRow(
                confounder=confounder,
                adjusted=adjusted,
                significance_changed=adjusted_sig != apparent_sig,
            )
        )
    return rows
