"""Monte Carlo studies of the correction and synthetic cohort generation.

Three scenario kinds drive the studies. In a conditionally independent
(CI) scenario the unmeasured covariate U is drawn per arm from the
hypothesized family, so the correction's assumption holds exactly and the
adjusted estimator should be unbiased. In a conditionally dependent (CD)
scenario U is drawn given a measured covariate Z and treatment follows a
logistic model in both, so the assumption is violated by a controllable
amount and the residual bias of the adjustment can be mapped out. In a
propensity scenario U is jointly normal with three measured covariates and
treatment depends on those alone; the within-arm correlation of U with the
fitted propensity score measures how far the assumption fails.

Every kind is an object with one protocol. ``generate(replication)``
returns a replication's dataset, its draw of U, and how many times the
draw was regenerated. ``partner(dataset)`` is the array whose within-arm
correlation with U a record reports: None for CI, Z for CD, the fitted
propensity score for propensity. ``correction``, computed once when the
scenario is built, is the log-scale shift removed from the fitted
treatment coefficient. :func:`run_replication` turns a scenario and a
replication index into a :class:`ReplicationRecord` through that protocol
alone, and :func:`aggregate` summarizes any kind's records the same way.
Replications are independent work units: every random draw comes from a
counter-based generator keyed by (seed, replication, stream), so a study
produces identical results whether replications run serially or across
any number of processes, and in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .censoring import cost_design, fit_cost, ipw_weights
from .data import CostDataset
from .diagnostics import _corr
from .errors import ConfigError, CorrelationModelError, CostOverflowError, DidNotConvergeError
from .errors import EmptyFitError, EstimationError
from .glm import expit, logit_scores
from .sensitivity import (
    CONFIDENCE_LEVEL,
    BernoulliParams,
    ConfounderFamily,
    ConfounderModel,
    FamilyParams,
    GammaParams,
    NormalParams,
    PoissonParams,
    check_params,
    z_quantile,
)

_U_STREAM, _Z_STREAM, _COST_STREAM, _STATUS_STREAM, _FAIL_STREAM, _CENSOR_STREAM, _TREAT_STREAM = range(7)
_ATTEMPT_STRIDE = 16
_MAX_REGENERATIONS = 1000
_QUAD_NODES = 64
_POISSON_SUPPORT = np.arange(61.0)
# numpy's Poisson sampler refuses larger rates.
_POISSON_RATE_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _rng(seed: int, replication: int, stream: int) -> np.random.Generator:
    key = np.random.SeedSequence(entropy=seed, spawn_key=(replication, stream))
    return np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class CIScenario:
    """Unmeasured covariate drawn independently within each arm.

    Costs have mean ``exp(alpha + beta_true*X + gamma*U + theta_z*Z)`` with
    a Gamma law whose variance equals its mean; Z is standard normal with
    mean 0 (control) or 1 (treated). Censoring status is a coin flip with
    probability ``censor_prob``; observed time is exponential with mean 5
    when the cost is uncensored and uniform on [0, 10] otherwise.

    The fields are the keys of a ``kind = ci`` section and their defaults
    its defaults; ``params_*`` are read from the family's keys as
    ``control/treated`` pairs, and the caller gives ``seed``.
    """

    kind = "ci"

    family: ConfounderFamily
    params_control: FamilyParams
    params_treated: FamilyParams
    gamma: float
    n_per_arm: int
    censor_prob: float = 0.0
    alpha: float = 5.0
    beta_true: float = 1.0
    theta_z: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for arm, params in (("control", self.params_control), ("treated", self.params_treated)):
            check_params(self.family, params, "scenario", arm)
            if self.family is ConfounderFamily.POISSON and params.rate > _POISSON_RATE_MAX:
                raise ConfigError(f"rate {params.rate} of the {arm} arm is beyond numpy's sampler")
        if self.n_per_arm < 4:
            raise ConfigError(f"n_per_arm must be at least 4, got {self.n_per_arm}")
        if not 0.0 <= self.censor_prob < 1.0:
            raise ConfigError(f"censor_prob must lie in [0, 1), got {self.censor_prob}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        _set_correction(self, self.params_control, self.params_treated)

    @property
    def n(self) -> int:
        return 2 * self.n_per_arm

    def generate(self, replication: int) -> tuple[CostDataset, np.ndarray, int]:
        dataset, u = generate_ci_dataset(self, replication)
        return dataset, u, 0

    def partner(self, dataset: CostDataset) -> None:
        return None


@dataclass(frozen=True)
class CDScenario:
    """Unmeasured covariate drawn conditionally on the measured one.

    Z ~ Normal(1, 1); U | Z follows the family-specific law (Bernoulli
    with success expit(0.5 + 0.2z), Normal(1 + 0.1z, 1), Poisson with rate
    max(0.9 + 0.1z, 0), or Gamma(0.5, 0.65 + 0.2|z|)); treatment is
    Bernoulli with success expit(phi1 + phi2*z + phi3*u). Costs and
    censoring follow the same laws as in CIScenario.

    The fields are the keys of a ``kind = cd`` section and their defaults
    its defaults; the caller gives ``seed``.
    """

    kind = "cd"

    family: ConfounderFamily
    phi1: float
    phi2: float
    phi3: float
    n: int
    gamma: float
    censor_prob: float = 0.0
    alpha: float = 5.0
    beta_true: float = 1.0
    theta_z: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 20:
            raise ConfigError(f"n must be at least 20, got {self.n}")
        if not 0.0 <= self.censor_prob < 1.0:
            raise ConfigError(f"censor_prob must lie in [0, 1), got {self.censor_prob}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        # An index beyond the float range saturates; _arm_mass rejects an arm it empties.
        with np.errstate(over="ignore", invalid="ignore"):
            marginals = _cd_marginal_params(self.family, self.phi1, self.phi2, self.phi3)
        _set_correction(self, *marginals)

    def generate(self, replication: int) -> tuple[CostDataset, np.ndarray, int]:
        """Redraw from the next stream block while an arm is empty.

        Raises EmptyFitError after ``_MAX_REGENERATIONS`` such draws.
        """
        for attempt in range(_MAX_REGENERATIONS):
            base = attempt * _ATTEMPT_STRIDE
            z = _rng(self.seed, replication, base + _Z_STREAM).normal(1.0, 1.0, self.n)
            rng_u = _rng(self.seed, replication, base + _U_STREAM)
            u = _sample_conditional_confounder(rng_u, self.family, z)
            with np.errstate(over="ignore", invalid="ignore"):
                assign = expit(self.phi1 + self.phi2 * z + self.phi3 * u)
            x = (_rng(self.seed, replication, base + _TREAT_STREAM).random(self.n) < assign).astype(float)
            if 0.0 < x.mean() < 1.0:
                return _assemble(self, replication, x, z, u, base), u, attempt
        raise EmptyFitError(
            f"replication {replication} produced an empty treatment arm in "
            f"{_MAX_REGENERATIONS} consecutive regenerations"
        )

    def partner(self, dataset: CostDataset) -> np.ndarray:
        return dataset.covariates[:, 0]


PROPENSITY_MODELS = {
    "model1": (0.1, 0.1, 0.1),
    "model2": (0.3, -0.4, 0.0),
}

# Slopes sum to zero so they are orthogonal to model1's equal correlations:
# cov(U, index) = 0 there, making the marginal correction vanish, while
# model2 keeps cov = 0.3*b1 - 0.4*b2 < 0 and a ~2% adjusted bias.
_PROPENSITY_INTERCEPT = -1.2
_PROPENSITY_SLOPES = (0.6, 0.6, -1.2)


@dataclass(frozen=True)
class PropensityScenario:
    """Treatment driven by measured covariates that U correlates with.

    (U, Z1, Z2, Z3) is 4-variate normal with unit variances, means one,
    mutually independent Z's, and the U-Z correlations of
    ``correlation_model`` (``"model1"``, ``"model2"``, or a 3-sequence).
    Treatment is Bernoulli with success expit(-1.2 + 0.6 Z1 + 0.6 Z2 -
    1.2 Z3); costs are Gamma with mean ``exp(5 + X + gamma*U + Z1 + Z2 +
    Z3)`` and variance equal to it, and nothing is censored. Records carry
    the within-arm correlations of U with the fitted propensity score.

    Validation resolves ``correlations`` (the three U-Z correlations) and
    the Cholesky factor of the joint law once, as plain attributes.

    The fields are the keys of a ``kind = propensity`` section and their
    defaults its defaults; ``correlation_model`` is read from ``model`` or
    ``correlations``, and the caller gives ``seed``.
    """

    kind = "propensity"
    family = ConfounderFamily.NORMAL
    beta_true = 1.0

    correlation_model: object
    n: int
    seed: int = 0
    gamma: float = 0.5

    def __post_init__(self):
        if isinstance(self.correlation_model, str):
            try:
                correlations = PROPENSITY_MODELS[self.correlation_model]
            except KeyError:
                options = ", ".join(sorted(PROPENSITY_MODELS))
                raise CorrelationModelError(
                    f"unknown correlation model {self.correlation_model!r}; expected one of {options}"
                ) from None
        else:
            correlations = tuple(float(c) for c in self.correlation_model)
            if len(correlations) != 3:
                raise CorrelationModelError(
                    f"need exactly 3 correlations between U and Z, got {len(correlations)}"
                )
        if self.n < 100:
            raise ConfigError(f"n must be at least 100, got {self.n}")

        matrix = np.eye(4)
        matrix[0, 1:] = matrix[1:, 0] = correlations
        try:
            chol = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            raise CorrelationModelError(
                f"correlations {correlations} do not form a positive definite joint law"
            ) from None
        object.__setattr__(self, "correlations", correlations)
        object.__setattr__(self, "_chol", chol)
        _set_correction(self, *_propensity_arm_moments(correlations))

    def generate(self, replication: int) -> tuple[CostDataset, np.ndarray, int]:
        n = self.n
        rng = _rng(self.seed, replication, 0)
        draws = 1.0 + rng.standard_normal((n, 4)) @ self._chol.T
        u, z = draws[:, 0], draws[:, 1:]
        assign = expit(_PROPENSITY_INTERCEPT + z @ np.asarray(_PROPENSITY_SLOPES))
        x = (rng.random(n) < assign).astype(float)
        with np.errstate(over="ignore", invalid="ignore"):
            log_mean = 5.0 + x + self.gamma * u + z.sum(axis=1)
        cost = _draw_costs(rng, log_mean, replication)
        dataset = CostDataset(
            cost=cost,
            time=np.ones(n),
            uncensored=np.ones(n, dtype=bool),
            treatment=x,
            covariates=z,
            covariate_names=("z1", "z2", "z3"),
        )
        return dataset, u, 0

    def partner(self, dataset: CostDataset) -> np.ndarray:
        """Logit propensity score of treatment on the covariates.

        Raises EstimationError on a single-arm draw or a score fit that fails.
        """
        if dataset.treatment.min() == dataset.treatment.max():
            raise EmptyFitError("draw left a treatment arm empty")
        scores, _, converged = logit_scores(dataset.treatment, dataset.covariates)
        if not converged:
            raise DidNotConvergeError("propensity score fit did not converge")
        return scores


def _set_correction(scenario, control: FamilyParams, treated: FamilyParams) -> None:
    """Store on ``scenario`` the correction for per-arm laws of U.

    The effect of U is the scenario's ``gamma`` in both arms. CI scenarios
    pass their own generative laws. CD and propensity scenarios pass the
    marginal laws their generative model implies; the correction is then
    the best the method can do, and its residual bias measures the cost of
    the violated independence assumption.
    """
    model = ConfounderModel(
        family=scenario.family,
        params_control=control,
        params_treated=treated,
        effect_control=scenario.gamma,
        effect_treated=scenario.gamma,
    )
    object.__setattr__(scenario, "correction", model.correction())


def _sample_confounder(
    rng: np.random.Generator, family: ConfounderFamily, params: FamilyParams, size: int
) -> np.ndarray:
    if family is ConfounderFamily.BERNOULLI:
        return (rng.random(size) < params.prevalence).astype(float)
    if family is ConfounderFamily.NORMAL:
        return rng.normal(params.mean, params.sd, size)
    if family is ConfounderFamily.POISSON:
        return rng.poisson(params.rate, size).astype(float)
    return rng.gamma(params.shape, scale=params.scale, size=size)


def _sample_conditional_confounder(
    rng: np.random.Generator, family: ConfounderFamily, z: np.ndarray
) -> np.ndarray:
    if family is ConfounderFamily.BERNOULLI:
        return (rng.random(z.size) < expit(0.5 + 0.2 * z)).astype(float)
    if family is ConfounderFamily.NORMAL:
        return rng.normal(1.0 + 0.1 * z, 1.0)
    if family is ConfounderFamily.POISSON:
        return rng.poisson(np.maximum(0.9 + 0.1 * z, 0.0)).astype(float)
    return rng.gamma(0.5, scale=0.65 + 0.2 * np.abs(z))


def _draw_costs(rng, log_mean, replication: int, regenerated: int = 0) -> np.ndarray:
    """Gamma costs with mean and variance ``exp(log_mean)``; CostOverflowError unless finite."""
    with np.errstate(over="ignore"):
        cost = rng.gamma(np.exp(log_mean), scale=1.0)
    if not np.all(np.isfinite(cost)):
        raise CostOverflowError(f"replication {replication}: a simulated cost overflows", regenerated)
    return cost


def _assemble(scenario, replication: int, x, z, u, stream_base: int = 0) -> CostDataset:
    seed = scenario.seed
    with np.errstate(over="ignore", invalid="ignore"):
        log_mean = scenario.alpha + scenario.beta_true * x + scenario.gamma * u + scenario.theta_z * z
    cost = _draw_costs(_rng(seed, replication, stream_base + _COST_STREAM), log_mean, replication,
                       stream_base // _ATTEMPT_STRIDE)
    censored = _rng(seed, replication, stream_base + _STATUS_STREAM).random(x.size) < scenario.censor_prob
    fail_time = _rng(seed, replication, stream_base + _FAIL_STREAM).exponential(5.0, x.size)
    censor_time = _rng(seed, replication, stream_base + _CENSOR_STREAM).uniform(0.0, 10.0, x.size)
    time = np.maximum(np.where(censored, censor_time, fail_time), 1e-12)
    return CostDataset(
        cost=cost,
        time=time,
        uncensored=~censored,
        treatment=x,
        covariates=z[:, None],
        covariate_names=("z",),
    )


def generate_ci_dataset(scenario: CIScenario, replication: int) -> tuple[CostDataset, np.ndarray]:
    """One replication's data under conditional independence.

    Returns the dataset together with the unmeasured covariate so callers
    can also fit the model that sees U.
    """
    n = scenario.n_per_arm
    rng_u = _rng(scenario.seed, replication, _U_STREAM)
    u = np.concatenate([
        _sample_confounder(rng_u, scenario.family, scenario.params_control, n),
        _sample_confounder(rng_u, scenario.family, scenario.params_treated, n),
    ])
    rng_z = _rng(scenario.seed, replication, _Z_STREAM)
    z = np.concatenate([rng_z.normal(0.0, 1.0, n), rng_z.normal(1.0, 1.0, n)])
    x = np.repeat([0.0, 1.0], n)
    return _assemble(scenario, replication, x, z, u), u


@lru_cache(maxsize=None)
def _gauss_hermite() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and unit-sum weights integrating against the standard normal."""
    # Imported on first use, so that `import costsense` does not pay for
    # numpy.polynomial.
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(_QUAD_NODES)
    return nodes, weights / weights.sum()


def _gauss_laguerre(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and unit-sum weights for the weight ``t**alpha * exp(-t)``.

    Golub and Welsch (1969): the nodes are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of the generalized Laguerre
    recurrence, and each weight is proportional to the squared first
    component of its eigenvector.
    """
    k = np.arange(_QUAD_NODES)
    jacobi = np.diag(2.0 * k + alpha + 1.0)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    jacobi += np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0] ** 2
    return nodes, weights / weights.sum()


def _arm_mass(weights: np.ndarray) -> float:
    """Total quadrature weight of an arm; ConfigError unless it is positive."""
    mass = float(weights.sum())
    if not mass > 0.0:
        raise ConfigError("phi1, phi2 and phi3 leave a treatment arm with no probability")
    return mass


def _arm_moments(joint: np.ndarray, arm: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Mean and variance of U under quadrature weights ``joint * arm``;
    ConfigError unless the variance is positive."""
    mass = _arm_mass(joint * arm)
    m1 = float((joint * arm * u).sum()) / mass
    var = float((joint * arm * u * u).sum()) / mass - m1 * m1
    if not var > 0.0:
        raise ConfigError("phi1, phi2 and phi3 leave U without spread in a treatment arm")
    return m1, var


@lru_cache(maxsize=None)
def _cd_marginal_params(
    family: ConfounderFamily, phi1: float, phi2: float, phi3: float
) -> tuple[FamilyParams, FamilyParams]:
    """Per-arm marginal laws of U implied by a CD generative model.

    The correction wants the distribution of U within each treatment arm.
    Under conditional dependence that distribution has no closed form, so
    it is computed by 64-node quadrature over Z (and over U where U is
    continuous) and, for the Normal and Gamma families, matched back to
    the family by its first two moments. Bernoulli and Poisson arms are
    pinned down by a single moment.
    """
    z_nodes, z_w = _gauss_hermite()
    z = 1.0 + z_nodes

    def arm_weights(u):
        treated = expit(phi1 + phi2 * z[:, None] + phi3 * u)
        return 1.0 - treated, treated

    if family is ConfounderFamily.BERNOULLI:
        q = expit(0.5 + 0.2 * z)
        take_1 = expit(phi1 + phi2 * z + phi3)
        take_0 = expit(phi1 + phi2 * z)
        prev = []
        for weight_1, weight_0 in ((1.0 - take_1, 1.0 - take_0), (take_1, take_0)):
            on = z_w @ (q * weight_1)
            off = z_w @ ((1.0 - q) * weight_0)
            prev.append(on / _arm_mass(on + off))
        return BernoulliParams(prev[0]), BernoulliParams(prev[1])

    if family is ConfounderFamily.NORMAL:
        u = (1.0 + 0.1 * z)[:, None] + z_nodes[None, :]
        joint = z_w[:, None] * z_w[None, :]
        out = []
        for arm in arm_weights(u):
            m1, var = _arm_moments(joint, arm, u)
            out.append(NormalParams(mean=m1, sd=math.sqrt(var)))
        return out[0], out[1]

    if family is ConfounderFamily.POISSON:
        lam = np.maximum(0.9 + 0.1 * z, 1e-12)
        support = _POISSON_SUPPORT
        log_factorial = np.array([math.lgamma(k + 1.0) for k in support])
        pmf = np.exp(support[None, :] * np.log(lam)[:, None] - lam[:, None] - log_factorial[None, :])
        joint = z_w[:, None] * pmf
        rates = []
        for arm in arm_weights(support[None, :]):
            rates.append(float((joint * arm * support[None, :]).sum()) / _arm_mass(joint * arm))
        return PoissonParams(rates[0]), PoissonParams(rates[1])

    shape = 0.5
    t_nodes, t_w = _gauss_laguerre(shape - 1.0)
    theta = 0.65 + 0.2 * np.abs(z)
    u = theta[:, None] * t_nodes[None, :]
    joint = z_w[:, None] * t_w[None, :]
    out = []
    for arm in arm_weights(u):
        m1, var = _arm_moments(joint, arm, u)
        out.append(GammaParams(shape=m1 * m1 / var, scale=var / m1))
    return out[0], out[1]


@lru_cache(maxsize=None)
def _propensity_arm_moments(correlations: tuple[float, float, float]) -> tuple[NormalParams, NormalParams]:
    """Normal moments of U within each arm when treatment depends on Z only.

    U and the treatment index s = intercept + slopes . Z are jointly
    normal, so E[U | s] is linear and the within-arm moments reduce to
    one-dimensional integrals over s, done by Gauss-Hermite quadrature.
    """
    slope_vec = np.asarray(_PROPENSITY_SLOPES)
    corr_vec = np.asarray(correlations)
    index_var = float(slope_vec @ slope_vec)
    index_mean = _PROPENSITY_INTERCEPT + float(slope_vec.sum())
    cov_us = float(slope_vec @ corr_vec)
    nodes, weights = _gauss_hermite()
    s = index_mean + math.sqrt(index_var) * nodes
    mean_given = 1.0 + (cov_us / index_var) * (s - index_mean)
    var_given = 1.0 - cov_us * cov_us / index_var
    take = expit(s)
    out = []
    for arm in (1.0 - take, take):
        mass = float(weights @ arm)
        m1 = float(weights @ (arm * mean_given)) / mass
        m2 = float(weights @ (arm * (var_given + mean_given * mean_given))) / mass
        out.append(NormalParams(mean=m1, sd=math.sqrt(m2 - m1 * m1)))
    return out[0], out[1]


@dataclass(frozen=True)
class ReplicationRecord:
    """Per-replication outcomes; aggregate with :func:`aggregate`."""

    replication: int
    converged: bool
    beta_unadjusted: float
    beta_adjusted: float
    se: float
    covered_unadjusted: bool
    covered_adjusted: bool
    corr_treated: float
    corr_control: float
    regenerated: int
    beta_true_model: float


@dataclass(frozen=True)
class SimulationResult:
    replications: int
    converged: int
    convergence_failures: int
    regenerated: int
    mean_beta_unadjusted: float
    mean_beta_adjusted: float
    bias_unadjusted: float
    bias_adjusted: float
    coverage_unadjusted: float
    coverage_adjusted: float
    mc_standard_error: float
    corr_treated: float
    corr_control: float
    max_within_stratum_corr: float


def run_replication(scenario, replication: int, fit_true_model: bool = False,
                    variance: str = "sandwich",
                    level: float = CONFIDENCE_LEVEL) -> ReplicationRecord:
    """Generate one replication, fit, correct, and score coverage.

    ``level`` sets the nominal confidence level whose intervals the
    coverage indicators score. Records carry the within-arm correlations
    of U with the scenario's ``partner``, NaN when it has none. A draw
    that cannot be generated, a cost that overflows, or a partner or cost
    fit that fails gives a record with ``converged=False`` and NaN estimates;
    an undrawable replication counts ``_MAX_REGENERATIONS`` regenerations. The
    true-model refit reuses the cost fit's weights and design.
    """
    nan = float("nan")
    corr_treated = corr_control = nan
    # generate raises an EstimationError once every regeneration failed, or a
    # CostOverflowError that carries the count so far.
    regenerated = _MAX_REGENERATIONS
    try:
        dataset, u, regenerated = scenario.generate(replication)
        partner = scenario.partner(dataset)
        if partner is not None:
            treated = dataset.treatment == 1.0
            corr_treated = _corr(u[treated], partner[treated], "pearson")
            corr_control = _corr(u[~treated], partner[~treated], "pearson")
        weights = ipw_weights(dataset)
        design, _ = cost_design(dataset)
        fit = fit_cost(dataset, design, weights)
        covariance = fit.covariance if variance == "sandwich" else fit.model_covariance
        se = float(np.sqrt(covariance[1, 1]))
        if not (fit.converged and np.isfinite(se) and se > 0.0):
            raise DidNotConvergeError("cost fit did not converge")
    except EstimationError as error:
        if isinstance(error, CostOverflowError):
            regenerated = error.regenerated
        return ReplicationRecord(replication, False, nan, nan, nan, False, False,
                                 corr_treated, corr_control, regenerated, nan)

    beta_star = float(fit.coefficients[1])
    beta_adjusted = beta_star - scenario.correction
    z_crit = z_quantile(level)
    covered_unadjusted = abs(beta_star - scenario.beta_true) <= z_crit * se
    covered_adjusted = abs(beta_adjusted - scenario.beta_true) <= z_crit * se

    beta_true_model = nan
    if fit_true_model:
        # The model that sees U: the same weights, with U as a last column.
        try:
            full = fit_cost(dataset, np.column_stack([design, u]), weights)
            if full.converged:
                beta_true_model = float(full.coefficients[1])
        except EstimationError:
            pass

    return ReplicationRecord(
        replication=replication,
        converged=True,
        beta_unadjusted=beta_star,
        beta_adjusted=beta_adjusted,
        se=se,
        covered_unadjusted=covered_unadjusted,
        covered_adjusted=covered_adjusted,
        corr_treated=corr_treated,
        corr_control=corr_control,
        regenerated=regenerated,
        beta_true_model=beta_true_model,
    )


def aggregate(scenario, records: list[ReplicationRecord]) -> SimulationResult:
    """Summarize replication records into a SimulationResult.

    Means, biases, coverages and Monte Carlo standard errors are computed
    over converged replications only. ``mc_standard_error`` is the standard
    deviation of the adjusted estimates over the square root of their count,
    and NaN with fewer than two of them. The unadjusted estimates differ from
    the adjusted ones by the scenario's constant correction, so they share
    that standard error.
    """
    records = sorted(records, key=lambda record: record.replication)
    converged = [record for record in records if record.converged]
    k = len(converged)
    nan = float("nan")

    def bias(mean: float) -> float:
        if scenario.beta_true == 0.0:
            return nan
        return (mean - scenario.beta_true) / scenario.beta_true

    if k == 0:
        mean_un = mean_adj = mc_adj = corr_t = corr_c = max_corr = nan
        cover_un = cover_adj = nan
    else:
        unadjusted = np.array([record.beta_unadjusted for record in converged])
        adjusted = np.array([record.beta_adjusted for record in converged])
        mean_un = float(unadjusted.mean())
        mean_adj = float(adjusted.mean())
        cover_un = float(np.mean([record.covered_unadjusted for record in converged]))
        cover_adj = float(np.mean([record.covered_adjusted for record in converged]))
        mc_adj = float(adjusted.std(ddof=1) / math.sqrt(k)) if k > 1 else nan
        def _nanmean(values):
            finite = [v for v in values if not math.isnan(v)]
            return float(np.mean(finite)) if finite else nan

        corr_t = _nanmean([record.corr_treated for record in converged])
        corr_c = _nanmean([record.corr_control for record in converged])
        pool = [c for c in (corr_t, corr_c) if not math.isnan(c)]
        max_corr = max(pool, key=abs) if pool else nan

    return SimulationResult(
        replications=len(records),
        converged=k,
        convergence_failures=len(records) - k,
        regenerated=sum(record.regenerated for record in records),
        mean_beta_unadjusted=mean_un,
        mean_beta_adjusted=mean_adj,
        bias_unadjusted=bias(mean_un),
        bias_adjusted=bias(mean_adj),
        coverage_unadjusted=cover_un,
        coverage_adjusted=cover_adj,
        mc_standard_error=mc_adj,
        corr_treated=corr_t,
        corr_control=corr_c,
        max_within_stratum_corr=max_corr,
    )


_COHORT_SIZE = 1860
_COHORT_CONTROL = 1440
_COHORT_CENSORED = 725
_COHORT_ZERO_COSTS = 2

_COHORT_COLUMNS = (
    "grade3", "grade4", "grade5", "sex", "race_black", "race_other",
    "hispanic", "married", "marital_unknown", "age", "urban2", "urban3",
    "comorb1", "comorb2plus", "income_log", "year",
)

_COHORT_COST_EFFECTS = {
    "grade3": 0.05, "grade4": 0.12, "grade5": 0.20, "sex": -0.05,
    "race_black": 0.08, "race_other": 0.03, "hispanic": 0.02,
    "married": -0.04, "marital_unknown": 0.02, "age": -0.006,
    "urban2": 0.03, "urban3": 0.05, "comorb1": 0.15, "comorb2plus": 0.30,
    "income_log": 0.12, "year": 0.01,
}

_COHORT_TREAT_EFFECTS = {
    "grade4": 0.20, "grade5": 0.50, "sex": 0.20, "married": -0.30,
    "age": 0.055, "comorb1": 0.15, "comorb2plus": 0.35, "urban3": -0.20,
    "income_log": -0.10, "year": 0.02,
}


def _exact_count_draw(rng: np.random.Generator, logits: np.ndarray, count: int) -> np.ndarray:
    """Pick exactly ``count`` indices, favoring high logits.

    Adding independent Gumbel noise to logits and taking the top ``count``
    draws from the logistic choice model conditioned on its total.
    """
    keys = logits + rng.gumbel(size=logits.size)
    chosen = np.argsort(keys, kind="stable")[-count:]
    picked = np.zeros(logits.size, dtype=bool)
    picked[chosen] = True
    return picked


def synthetic_cohort(seed: int) -> CostDataset:
    """A cohort shaped like the bladder cancer claims data.

    1860 records, exactly 1440 in the control arm (77.4%), exactly 725
    censored (39.0%), two zero-cost records, and covariate blocks for
    grade, demographics, comorbidity, urbanicity, income and diagnosis
    year. The generative treatment coefficient is ln 0.873, so a fit of
    the emitted file should put its confidence interval around that
    target. Useful for end-to-end tests; makes no claim of matching the
    real cohort beyond these published margins.
    """
    rng = _rng(seed, 0, 0)
    n = _COHORT_SIZE

    grade = rng.choice(4, size=n, p=(0.10, 0.45, 0.35, 0.10))
    race = rng.choice(3, size=n, p=(0.86, 0.08, 0.06))
    marital = rng.choice(3, size=n, p=(0.55, 0.40, 0.05))
    urban = rng.choice(3, size=n, p=(0.55, 0.30, 0.15))
    comorb = rng.choice(3, size=n, p=(0.55, 0.30, 0.15))
    columns = {
        "grade3": (grade == 1).astype(float),
        "grade4": (grade == 2).astype(float),
        "grade5": (grade == 3).astype(float),
        "sex": (rng.random(n) < 0.25).astype(float),
        "race_black": (race == 1).astype(float),
        "race_other": (race == 2).astype(float),
        "hispanic": (rng.random(n) < 0.05).astype(float),
        "married": (marital == 0).astype(float),
        "marital_unknown": (marital == 2).astype(float),
        "age": 65.0 + rng.gamma(4.0, scale=2.5, size=n),
        "urban2": (urban == 1).astype(float),
        "urban3": (urban == 2).astype(float),
        "comorb1": (comorb == 1).astype(float),
        "comorb2plus": (comorb == 2).astype(float),
        "income_log": rng.normal(10.6, 0.35, n),
        "year": rng.integers(-5, 6, size=n).astype(float),
    }
    covariates = np.column_stack([columns[name] for name in _COHORT_COLUMNS])

    treat_logit = np.full(n, -4.8)
    for name, coefficient in _COHORT_TREAT_EFFECTS.items():
        treat_logit = treat_logit + coefficient * columns[name]
    treatment = _exact_count_draw(rng, treat_logit, n - _COHORT_CONTROL).astype(float)

    cost_linear = np.full(n, 9.5) + math.log(0.873) * treatment
    for name, coefficient in _COHORT_COST_EFFECTS.items():
        cost_linear = cost_linear + coefficient * columns[name]
    mean_cost = np.exp(cost_linear)
    cost = rng.gamma(2.0, scale=mean_cost / 2.0)

    censored = _exact_count_draw(rng, 0.15 * columns["year"], _COHORT_CENSORED)
    fail_time = rng.exponential(60.0, n)
    censor_time = rng.uniform(0.0, 120.0, n)
    time = np.maximum(np.where(censored, censor_time, fail_time), 1e-6)

    cost[rng.choice(n, size=_COHORT_ZERO_COSTS, replace=False)] = 0.0

    return CostDataset(
        cost=cost,
        time=time,
        uncensored=~censored,
        treatment=treatment,
        covariates=covariates,
        covariate_names=_COHORT_COLUMNS,
    )
