"""Log-link estimating-equation fits with robust covariance.

Two response families are supported. ``LOG_GAMMA`` fits a multiplicative
mean model for nonnegative outcomes by solving the weighted quasi-score
equations

    sum_i w_i (y_i / mu_i - 1) x_i = 0,    mu_i = exp(x_i' b),

the score of a log-link model whose variance grows as the square of the
mean (constant coefficient of variation), the usual shape for
right-skewed cost data. ``LOGIT_BINOMIAL`` is ordinary logistic
regression. Both are solved by Fisher scoring with step halving on the
working deviance. The iteration converges when no coefficient changes by
more than a relative 1e-8 (absolute below 1); it gives up after 100
iterations, and a step that raises the deviance is halved at most 10 times.
Each trial point is evaluated once: the linear predictor, mean, residuals
and deviance of the step taken carry over to the next iteration. The
``LOG_GAMMA`` information weights are identically 1, so the Newton loop
builds its information matrix once per fit; the ``LOGIT_BINOMIAL`` one
changes with every iterate.

Robust (sandwich) covariance is the default variance estimate; a
model-based covariance, built from the same bread, is also attached to
every fit. Each fit sorts its rows into one canonical order and runs every
reduction over it, so permuting input records reproduces results bit for bit.
The order is lexicographic over all columns, but a fit whose responses do
not tie, such as a cost fit on continuous costs, sorts on the response alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyFitError, SingularDesignError

_ETA_MAX = 700.0  # exp overflows just above this
_TOLERANCE = 1e-8
_MAX_ITERATIONS = 100
_MAX_HALVINGS = 10


def expit(x):
    """Logistic function ``1 / (1 + exp(-x))``, saturating at 0 and 1 silently."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _xlogy(x, y):
    """``x * log(y)``, taken as 0 where ``x == 0`` whatever ``y`` is."""
    return np.where(x == 0.0, 0.0, x * np.log(y))


class Family(enum.Enum):
    LOG_GAMMA = "log-gamma"
    LOGIT_BINOMIAL = "logit-binomial"


@dataclass
class DesignSpec:
    """A regression problem: response, design matrix, weights, family."""

    response: np.ndarray
    design: np.ndarray
    weights: np.ndarray
    family: Family

    def __post_init__(self):
        self.response = np.asarray(self.response, dtype=np.float64)
        self.design = np.atleast_2d(np.asarray(self.design, dtype=np.float64))
        self.weights = np.asarray(self.weights, dtype=np.float64)
        n = self.response.shape[0]
        if self.design.shape[0] != n or self.weights.shape != (n,):
            raise ValueError("response, design and weights must share one length")
        if not np.all(np.isfinite(self.design)):
            raise ValueError("design matrix must be finite")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ValueError("weights must be finite and nonnegative")
        if self.family is Family.LOG_GAMMA:
            if np.any(self.response < 0) or not np.all(np.isfinite(self.response)):
                raise ValueError("log-gamma responses must be finite and nonnegative")
        elif np.any((self.response < 0) | (self.response > 1)):
            raise ValueError("logit-binomial responses must lie in [0, 1]")


@dataclass
class FitResult:
    """Fitted coefficients plus both covariance estimates.

    ``covariance`` is the robust sandwich matrix; ``model_covariance`` is
    the model-based analogue. Both are NaN-filled when the fit did not
    converge. ``n_effective`` counts records with positive weight.
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    model_covariance: np.ndarray
    converged: bool
    iterations: int
    n_effective: int


def _canonical_rows(spec: DesignSpec):
    """Response, design and weights of ``spec`` in canonical row order.

    The order is lexicographic on the response, then the design columns,
    then the weights. When no two responses tie, a stable sort of the
    response alone already is that order, and the full sort is skipped.
    """
    # A fixed row order fixes the summation order, making every reduction
    # invariant to input permutation.
    order = np.argsort(spec.response, kind="stable")
    ordered = spec.response[order]
    if not np.all(ordered[1:] > ordered[:-1]):
        columns = [spec.design[:, j] for j in range(spec.design.shape[1] - 1, -1, -1)]
        order = np.lexsort(tuple([spec.weights] + columns + [spec.response]))
    return _rows(spec, order)


def _rows(spec: DesignSpec, order: np.ndarray):
    """Response, design and weights of ``spec`` in ``order``."""
    return spec.response[order], np.ascontiguousarray(spec.design[order]), spec.weights[order]


def _family_terms(family: Family, eta: np.ndarray, y: np.ndarray):
    """Mean, score residual, and information weight at linear predictor eta."""
    if family is Family.LOG_GAMMA:
        mu = np.exp(eta)
        return mu, y / mu - 1.0, np.ones_like(mu)
    p = expit(eta)
    return p, y - p, p * (1.0 - p)


def _deviance(family: Family, y, mu, w) -> float:
    if family is Family.LOG_GAMMA:
        # Negative quasi-likelihood for variance ~ mu^2, up to a constant
        # in y; convex in the coefficients and finite at y = 0.
        return 2.0 * float((w * (y / mu + np.log(mu))).sum())
    ll = _xlogy(y, mu) + _xlogy(1.0 - y, 1.0 - mu)
    # A zero-weight record whose probability saturates against its outcome
    # has ll = -inf; it must add 0, not 0 * -inf = NaN.
    return -2.0 * float((w * np.where(w > 0, ll, 0.0)).sum())


def irls_fit(spec: DesignSpec) -> FitResult:
    """Solve the weighted score equations of ``spec`` and attach both covariances.

    The rows are put in canonical order once, for :func:`_newton` and
    :func:`_finish` alike.

    Raises
    ------
    EmptyFitError
        No record carries positive weight.
    SingularDesignError
        The design is rank deficient on the positively weighted rows.
    """
    y, X, w = _canonical_rows(spec)
    return _finish(spec.family, y, X, w, *_newton(spec.family, y, X, w))


def logit_scores(response, covariates, order=None):
    """Logit fit of a 0/1 ``response`` on an intercept plus ``covariates``.

    Returns ``(scores, coefficients, converged)``, the scores being the
    fitted probabilities. No covariance is computed. The fit visits the rows
    in canonical order, or in ``order``, which must likewise depend only on
    the multiset of rows (such as the sorted order of a table holding these
    columns and more), to keep the fit invariant to permuting the records.
    """
    n = len(response)
    design = np.column_stack([np.ones(n), covariates])
    spec = DesignSpec(response=response, design=design, weights=np.ones(n),
                      family=Family.LOGIT_BINOMIAL)
    rows = _canonical_rows(spec) if order is None else _rows(spec, order)
    coefficients, converged = _newton(spec.family, *rows)[:2]
    return expit(design @ coefficients), coefficients, converged


# _newton and _finish check every value that can overflow or turn NaN, so
# numpy's floating-point warnings are off inside them.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _newton(family: Family, y, X, w):
    """Newton iteration on canonically ordered rows.

    Returns ``(coefficients, converged, iterations, n_effective)``. The
    iteration starts from a log-mean intercept (``LOG_GAMMA``) or zeros
    (``LOGIT_BINOMIAL``) and stops when the largest relative coefficient
    change is at most ``_TOLERANCE``, or gives up after ``_MAX_ITERATIONS``.
    A step that increases the deviance is halved up to ten times. A weighted
    mean response that overflows, non-finite coefficients, a linear
    predictor beyond the exp-overflow guard, or normal equations that turn
    singular end the fit with ``converged=False``. The design has full rank
    by then, so singular normal equations mean the logit weights
    ``p(1 - p)`` have vanished: the fit is diverging, as it does under
    separation.
    """
    pos = w > 0
    n_eff = int(np.count_nonzero(pos))
    p = X.shape[1]
    if n_eff == 0:
        raise EmptyFitError("all weights are zero")
    if n_eff < p or np.linalg.matrix_rank(X[pos]) < p:
        raise SingularDesignError(
            "design is rank deficient on the positively weighted records"
        )

    b = np.zeros(p)
    if family is Family.LOG_GAMMA:
        mean_y = float((w * y).sum() / w.sum())
        if mean_y <= 0:
            raise EmptyFitError("response is identically zero on the weighted support")
        if not np.isfinite(mean_y):
            return b, False, 0, n_eff
        b[0] = np.log(mean_y)
        # The information weights are identically 1: one bread for every iterate.
        bread = (X * w[:, None]).T @ X
    mu, resid, info = _family_terms(family, X @ b, y)
    dev = _deviance(family, y, mu, w)

    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        score = X.T @ (w * resid)
        if family is Family.LOGIT_BINOMIAL:
            bread = (X * (w * info)[:, None]).T @ X
        try:
            step = np.linalg.solve(bread, score)
        except np.linalg.LinAlgError:
            return b, False, iterations, n_eff

        # Step halving: if the full Newton step worsens the deviance, retreat
        # up to ten times, then accept whatever remains.
        b_new = b + step
        for _ in range(_MAX_HALVINGS + 1):
            eta_new = X @ b_new
            if np.isfinite(b_new).all() and np.abs(eta_new).max() <= _ETA_MAX:
                mu_new, resid_new, info_new = _family_terms(family, eta_new, y)
                dev_new = _deviance(family, y, mu_new, w)
                if np.isfinite(dev_new) and dev_new <= dev + 1e-10 * (1.0 + abs(dev)):
                    break
            step = step / 2.0
            b_new = b + step
        else:
            # No trial passed: the last halving, not yet evaluated, is taken.
            eta_new = X @ b_new
            if not np.isfinite(b_new).all() or np.abs(eta_new).max() > _ETA_MAX:
                return b, False, iterations, n_eff
            mu_new, resid_new, info_new = _family_terms(family, eta_new, y)
            dev_new = _deviance(family, y, mu_new, w)
            if not np.isfinite(dev_new):
                return b_new, False, iterations, n_eff

        rel_change = float((np.abs(b_new - b) / np.maximum(1.0, np.abs(b_new))).max())
        b, resid, info, dev = b_new, resid_new, info_new, dev_new
        if rel_change <= _TOLERANCE:
            return b, True, iterations, n_eff

    return b, False, iterations, n_eff


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _finish(family: Family, y, X, w, b, converged, iterations, n_eff) -> FitResult:
    """Package a solution. On sorted ``y, X, w`` it builds the residuals and the
    bread once for both covariances, which are NaN when the fit did not converge."""
    p = b.shape[0]
    if converged:
        _, resid, info = _family_terms(family, X @ b, y)
        bread = (X * (w * info)[:, None]).T @ X
        covariance = sandwich_covariance(bread, X * (w * resid)[:, None])
        model_cov = model_covariance(bread, family, w, resid, n_eff)
    else:
        covariance = np.full((p, p), np.nan)
        model_cov = np.full((p, p), np.nan)
    return FitResult(
        coefficients=b,
        covariance=covariance,
        model_covariance=model_cov,
        converged=converged,
        iterations=iterations,
        n_effective=n_eff,
    )


def sandwich_covariance(bread: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Robust covariance ``A^{-1} B A^{-T}``: A is the bread (the derivative of the
    score), B the meat, the sum of outer products of the per-record ``scores``."""
    meat = scores.T @ scores
    try:
        inner = np.linalg.solve(bread, meat)
        cov = np.linalg.solve(bread, inner.T).T
    except np.linalg.LinAlgError:
        raise SingularDesignError("bread matrix is singular") from None
    return (cov + cov.T) / 2.0


def model_covariance(bread: np.ndarray, family: Family, w, resid, n_eff: int) -> np.ndarray:
    """Model-based covariance: inverse bread, with a moment dispersion
    estimate from the score residuals ``resid`` for the ``LOG_GAMMA`` family."""
    try:
        inv = np.linalg.inv(bread)
    except np.linalg.LinAlgError:
        raise SingularDesignError("bread matrix is singular") from None

    if family is Family.LOG_GAMMA:
        p = bread.shape[0]
        inv = inv * (float(np.sum(w * resid**2)) / (n_eff - p) if n_eff > p else np.nan)
    return (inv + inv.T) / 2.0
