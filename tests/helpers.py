"""Shared oracles and builders for the test suite.

The log-MGF oracles here deliberately avoid the closed forms in the
package: Bernoulli sums its two support points, Poisson sums the series
until the tail is negligible, Normal and Gamma integrate the tilted
density by adaptive quadrature. Agreement between these and the package
is evidence, not tautology.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from costsense import (
    BernoulliParams,
    ConfounderFamily,
    CostDataset,
    GammaParams,
    NormalParams,
    PoissonParams,
)
from costsense.censoring import _weights_from_probabilities

FAMILIES = (
    ConfounderFamily.BERNOULLI,
    ConfounderFamily.NORMAL,
    ConfounderFamily.POISSON,
    ConfounderFamily.GAMMA,
)


def numeric_log_mgf(params, gamma: float) -> float:
    """Brute-force log E[exp(gamma * U)] for a confounder law."""
    if isinstance(params, BernoulliParams):
        p = params.prevalence
        return math.log(p * math.exp(gamma) + (1.0 - p))
    if isinstance(params, PoissonParams):
        return _poisson_series_log_mgf(params.rate, gamma)
    if isinstance(params, NormalParams):
        return _quad_log_mgf_normal(params.mean, params.sd, gamma)
    if isinstance(params, GammaParams):
        return _quad_log_mgf_gamma(params.shape, params.scale, gamma)
    raise TypeError(f"no oracle for {type(params).__name__}")


def _poisson_series_log_mgf(rate: float, gamma: float) -> float:
    if rate == 0.0:
        return 0.0
    log_rate = math.log(rate)
    mode = rate * math.exp(gamma)
    total = math.exp(-rate)
    log_term = -rate
    k = 0
    while True:
        k += 1
        log_term += log_rate + gamma - math.log(k)
        term = math.exp(log_term)
        total += term
        if k > mode and term <= total * 1e-17:
            return math.log(total)


def _quad_log_mgf_normal(mean: float, sd: float, gamma: float) -> float:
    # The integrand is a Gaussian bump centred at the tilted mean; the
    # centre guides the integration window only, not the answer.
    centre = mean + sd * sd * gamma
    half_width = 14.0 * sd

    def integrand(u: float) -> float:
        z = (u - mean) / sd
        return math.exp(gamma * u - 0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))

    value, _ = integrate.quad(
        integrand,
        centre - half_width,
        centre + half_width,
        epsabs=0.0,
        epsrel=1e-12,
        limit=300,
    )
    return math.log(value)


def _quad_log_mgf_gamma(shape: float, scale: float, gamma: float) -> float:
    if scale * gamma >= 1.0:
        raise ValueError("inadmissible point handed to the gamma oracle")
    # Split off the u**(shape-1) factor so quad's algebraic-endpoint
    # weighting absorbs the singularity when shape < 1.
    tilted_scale = scale / (1.0 - scale * gamma)
    upper = tilted_scale * (60.0 + 20.0 * shape)
    norm = math.gamma(shape) * scale**shape

    def smooth_part(u: float) -> float:
        return math.exp(gamma * u - u / scale) / norm

    value, _ = integrate.quad(
        smooth_part,
        0.0,
        upper,
        weight="alg",
        wvar=(shape - 1.0, 0.0),
        epsabs=0.0,
        epsrel=1e-12,
        limit=400,
    )
    return math.log(value)


def draw_admissible(family, rng):
    """Random (params, gamma) pair inside the family's MGF domain."""
    gamma = float(rng.uniform(-1.5, 1.5))
    if family is ConfounderFamily.BERNOULLI:
        return BernoulliParams(prevalence=float(rng.uniform(0.02, 0.98))), gamma
    if family is ConfounderFamily.NORMAL:
        return (
            NormalParams(mean=float(rng.uniform(-2.0, 2.0)), sd=float(rng.uniform(0.2, 2.0))),
            gamma,
        )
    if family is ConfounderFamily.POISSON:
        return PoissonParams(rate=float(rng.uniform(0.05, 8.0))), gamma
    shape = float(rng.uniform(0.3, 4.0))
    scale = float(rng.uniform(0.1, 1.2))
    if gamma > 0.0:
        # Stay clearly inside the domain so quadrature keeps its accuracy.
        gamma = min(gamma, 0.9 / scale)
    return GammaParams(shape=shape, scale=scale), gamma


def tiny_dataset() -> CostDataset:
    """Four uncensored records, one covariate, both arms populated."""
    return CostDataset(
        cost=np.array([120.0, 80.0, 150.0, 60.0]),
        time=np.array([3.0, 2.5, 4.0, 1.5]),
        uncensored=np.array([True, True, True, True]),
        treatment=np.array([1, 0, 1, 0]),
        covariates=np.array([[0.5], [-0.2], [1.1], [0.0]]),
        covariate_names=("z1",),
    )


def random_cost_dataset(seed: int, n: int = 200, censored: bool = True) -> CostDataset:
    """A seeded dataset with a log-linear cost signal for fit tests."""
    rng = np.random.default_rng(seed)
    treatment = (rng.uniform(size=n) < 0.5).astype(np.int64)
    z = rng.normal(loc=treatment, scale=1.0, size=n)
    mean = np.exp(2.0 + 0.4 * treatment + 0.3 * z)
    cost = rng.gamma(shape=2.0, scale=mean / 2.0)
    if censored:
        uncensored = rng.uniform(size=n) < 0.75
    else:
        uncensored = np.ones(n, dtype=bool)
    fail = rng.exponential(scale=5.0, size=n)
    cens = rng.uniform(0.0, 10.0, size=n)
    time = np.where(uncensored, fail, np.minimum(fail, cens))
    time = np.maximum(time, 1e-3)
    return CostDataset(
        cost=cost,
        time=time,
        uncensored=uncensored,
        treatment=treatment,
        covariates=z.reshape(-1, 1),
        covariate_names=("z1",),
    )


def weights_from_survival(times, uncensored, survival) -> np.ndarray:
    """IPW weights read from the step function ``survival`` at each record's
    own time, the keys unsorted: the reference for the sorted-key lookup."""
    return _weights_from_probabilities(times, uncensored, survival.evaluate(times))
