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
Each trial point is evaluated once: the residuals, information weights and
deviance of the step taken carry over to the next iteration, and those of the
solution to the covariances. A ``LOG_GAMMA`` trial divides ``y / mu`` once, and
its deviance takes ``log(mu)`` as the linear predictor. Its information weights
are identically 1, so its information matrix is built once per fit and reused
by the covariances; the ``LOGIT_BINOMIAL`` one is rebuilt at every iterate.
Rows are gathered by ``take``/``compress`` and weighted as ``X.T * w``, along
the long axis: numpy's 2-D fancy indexing is slow on a tall, narrow design (a
10,000 x 3 gather took 216 µs as ``X[order]`` and 50 µs by ``take``, 2-core
Xeon, numpy 2.4.6), and the arrays and products are the same, bit for bit.

The fits take plain arrays and check none of their values: those were
checked where they entered, in a :class:`~costsense.data.CostDataset` or,
for a cost fit's design and weights, in :func:`costsense.censoring.fit_cost`.

Robust (sandwich) covariance is the default variance estimate; a
model-based covariance, built from the same bread, is also attached to
every fit. Each fit sorts its rows into one canonical order and runs every
reduction over it, so permuting input records reproduces results bit for bit.
The order is lexicographic over all columns, ties broken by input position.
Every fit sorts the response alone, with numpy's default, unstable sort, then
lexsorts only the records in runs of equal responses, if any, over every
column and their input positions. On the cohort, whose costs tie only on 2
zeros, that took 68 µs against 808 µs for a lexsort of all 1,860 records
over 20 keys (2-core Xeon, numpy 2.4.6).

:func:`logit_leave_one_out` fits ``diagnose``'s leave-one-out logit problems,
which share one design, as one stacked Newton iteration under
:func:`_newton`'s rules. Single fits stay on ``_newton``, as a stack of one
only adds work: one 200-record logit problem took 720 µs in the stack and
287 µs in ``_newton`` (2-core Xeon, numpy 2.4.6, best of five). The stack's
breads are built one design column at a time, no temporary larger than the
design: 16 cohort breads took 0.50 ms, against 0.97 ms as 16 full products.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFitError, SingularDesignError

_ETA_MAX = 700.0  # exp overflows just above this
_TOLERANCE = 1e-8
_MAX_ITERATIONS = 100
_MAX_HALVINGS = 10
RANK_DEFICIENT = "design is rank deficient on the positively weighted records"


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


def _canonical_rows(y, X, w):
    """Response ``y``, design ``X`` and weights ``w`` in canonical row order.

    The order is lexicographic on the response, then the design columns,
    then the weights, then the input position: that of a stable lexsort. A
    sort of the response alone gives it up to runs of equal responses, and
    only the records in those runs are lexsorted. That sort need not be
    stable, since every run is re-sorted whatever order it left.
    """
    # A fixed row order fixes the summation order, making every reduction
    # invariant to input permutation.
    order = np.argsort(y)
    ordered = y.take(order)
    tied = ~(ordered[1:] > ordered[:-1])
    if tied.any():
        runs = np.flatnonzero(np.append(tied, False) | np.insert(tied, 0, False))
        rows = order[runs]
        keys = (rows, w.take(rows), *X.take(rows, axis=0).T[::-1], ordered[runs])
        order[runs] = rows[np.lexsort(keys)]
        ordered = y.take(order)
    return ordered, X.take(order, axis=0), w.take(order)


def _trial(family: Family, eta, y, w):
    """Score residual, information weight and deviance at linear predictor ``eta``."""
    if family is Family.LOG_GAMMA:
        ratio = y / np.exp(eta)
        # Negative quasi-likelihood for variance ~ mu^2, up to a constant in y,
        # with log(mu) = eta; convex in the coefficients and finite at y = 0.
        return ratio - 1.0, 1.0, 2.0 * float((w * (ratio + eta)).sum())
    mu = expit(eta)
    ll = _xlogy(y, mu) + _xlogy(1.0 - y, 1.0 - mu)
    # A zero-weight record whose probability saturates against its outcome
    # has ll = -inf; it must add 0, not 0 * -inf = NaN.
    return y - mu, mu * (1.0 - mu), -2.0 * float((w * np.where(w > 0, ll, 0.0)).sum())


def irls_fit(response, design, weights, family: Family) -> FitResult:
    """Solve the weighted score equations and attach both covariances.

    ``response``, ``design`` and ``weights`` are checked float64 arrays, one
    row per record. The rows are put in canonical order once, for
    :func:`_newton` and :func:`_finish` alike.

    Raises
    ------
    EmptyFitError
        No record carries positive weight.
    SingularDesignError
        The design is rank deficient on the positively weighted rows.
    """
    y, X, w = _canonical_rows(response, design, weights)
    return _finish(family, X, w, *_newton(family, y, X, w))


def logit_scores(response, covariates):
    """Logit fit of a 0/1 ``response`` on an intercept plus ``covariates``.

    Returns ``(scores, coefficients, converged)``, the scores being the
    fitted probabilities. No covariance is computed. The fit visits the rows
    in canonical order.
    """
    n = len(response)
    y = np.asarray(response, dtype=np.float64)
    design = np.column_stack([np.ones(n), covariates])
    coefficients, converged = _newton(Family.LOGIT_BINOMIAL,
                                      *_canonical_rows(y, design, np.ones(n)))[:2]
    return expit(design @ coefficients), coefficients, converged


# _newton, logit_leave_one_out and _finish check every value that can overflow
# or turn NaN, so numpy's floating-point warnings are off inside them.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _newton(family: Family, y, X, w):
    """Newton iteration on canonically ordered rows.

    Returns ``(coefficients, converged, iterations, n_effective, state)``; a
    converged fit's ``state`` holds the residuals and information weights at
    the coefficients and the last iteration's information matrix. The iteration
    starts from a log-mean intercept (``LOG_GAMMA``) or zeros
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
    if n_eff < p or np.linalg.matrix_rank(X.compress(pos, axis=0)) < p:
        raise SingularDesignError(RANK_DEFICIENT)

    b = np.zeros(p)
    if family is Family.LOG_GAMMA:
        mean_y = float((w * y).sum() / w.sum())
        if mean_y <= 0:
            raise EmptyFitError("response is identically zero on the weighted support")
        if not np.isfinite(mean_y):
            return b, False, 0, n_eff, None
        b[0] = np.log(mean_y)
        # The information weights are identically 1: one bread for every iterate.
        bread = (X.T * w) @ X
    resid, info, dev = _trial(family, X @ b, y, w)

    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        score = X.T @ (w * resid)
        if family is Family.LOGIT_BINOMIAL:
            bread = (X.T * (w * info)) @ X
        try:
            step = np.linalg.solve(bread, score)
        except np.linalg.LinAlgError:
            return b, False, iterations, n_eff, None

        # Step halving: if the full Newton step worsens the deviance, retreat
        # up to ten times, then accept whatever remains.
        b_new = b + step
        for _ in range(_MAX_HALVINGS + 1):
            eta_new = X @ b_new
            if np.isfinite(b_new).all() and np.abs(eta_new).max() <= _ETA_MAX:
                resid_new, info_new, dev_new = _trial(family, eta_new, y, w)
                if np.isfinite(dev_new) and dev_new <= dev + 1e-10 * (1.0 + abs(dev)):
                    break
            step = step / 2.0
            b_new = b + step
        else:
            # No trial passed: the last halving, not yet evaluated, is taken.
            eta_new = X @ b_new
            if not np.isfinite(b_new).all() or np.abs(eta_new).max() > _ETA_MAX:
                return b, False, iterations, n_eff, None
            resid_new, info_new, dev_new = _trial(family, eta_new, y, w)
            if not np.isfinite(dev_new):
                return b_new, False, iterations, n_eff, None

        rel_change = float((np.abs(b_new - b) / np.maximum(1.0, np.abs(b_new))).max())
        b, resid, info, dev = b_new, resid_new, info_new, dev_new
        if rel_change <= _TOLERANCE:
            return b, True, iterations, n_eff, (resid, info, bread)

    return b, False, iterations, n_eff, None


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def logit_leave_one_out(response, design, dropped):
    """Unit-weighted logit fits of a 0/1 ``response``, each on ``design`` with
    column ``dropped[i]`` (not the intercept) pinned at 0, on rows ordered by
    their multiset alone. Returns ``(coefficients, converged, iterations,
    singular)`` per problem; a rank-deficient one is ``singular``, unfitted."""
    y, X = response, design
    k = X.shape[1]
    keep = np.array([[j for j in range(k) if j != d] for d in dropped])
    # Dropping a column lowers neither the smallest singular value nor
    # matrix_rank's tolerance: a full-rank design leaves each problem full rank.
    singular = np.zeros(len(keep), dtype=bool)
    if np.linalg.matrix_rank(X) < k:
        singular = np.linalg.matrix_rank(X[:, keep].transpose(1, 0, 2)) < k - 1
    coefficients = np.zeros((len(keep), k))
    converged = np.zeros(len(keep), dtype=bool)
    iterations = np.zeros(len(keep), dtype=np.int64)
    live = np.flatnonzero(~singular)  # the problems still iterating, a row of state each
    XT = np.ascontiguousarray(X.T)
    b = coefficients[live]
    _, resid, info, dev = _logit_trials(b, X, y)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if live.size == 0:
            break
        iterations[live] = iteration
        cut = keep[live]
        score = np.take_along_axis(resid @ X, cut, axis=1)
        bread = _breads(XT, info, cut)
        try:
            cut_step = np.linalg.solve(bread, score[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # A singular slice fails the whole stack. Solved alone, it gets a NaN
            # step that no trial passes, so it stops as _newton's solve stops it.
            cut_step = np.full_like(score, np.nan)
            for i in range(live.size):
                with contextlib.suppress(np.linalg.LinAlgError):
                    cut_step[i] = np.linalg.solve(bread[i], score[i])
        step = np.zeros_like(b)
        np.put_along_axis(step, cut, cut_step, axis=1)
        del resid, info  # spent: the trials make the next ones, and memory peaks there

        b_new = b + step
        pending = np.ones(live.size, dtype=bool)
        for halving in range(_MAX_HALVINGS + 2):
            rows = np.flatnonzero(pending)
            inside, r, w, d = _logit_trials(b_new[rows], X, y)
            # Past the last halving, a trial is taken if it can be evaluated.
            ok = inside & np.isfinite(d) & ((halving > _MAX_HALVINGS)
                                            | (d <= dev[rows] + 1e-10 * (1.0 + np.abs(dev[rows]))))
            if halving == 0:  # every row: the rows not taken are overwritten or dropped
                resid, info, dev_new = r, w, d
            else:
                resid[rows[ok]], info[rows[ok]], dev_new[rows[ok]] = r[ok], w[ok], d[ok]
            pending[rows[ok]] = False
            if halving > _MAX_HALVINGS or not pending.any():
                break
            step[pending] /= 2.0
            b_new[pending] = b[pending] + step[pending]
        # A trial still pending ends its fit: at the last iterate, or at the
        # trial itself when only its deviance is not finite.
        b_new[rows[~inside]] = b[rows[~inside]]

        rel_change = (np.abs(b_new - b) / np.maximum(1.0, np.abs(b_new))).max(axis=1)
        done = pending | (rel_change <= _TOLERANCE)
        coefficients[live[done]] = b_new[done]
        converged[live[done & ~pending]] = True
        live, b = live[~done], b_new[~done]
        resid, info, dev = resid[~done], info[~done], dev_new[~done]
    coefficients[live] = b
    return coefficients, converged, iterations, singular


def _breads(XT, info, cut):
    """Per row of ``info``: the bread ``(X.T * info[i]) @ X`` restricted to the
    columns ``cut[i]``. Built one column of the upper triangle at a time, so no
    temporary outgrows one copy of the design, then mirrored: exactly symmetric."""
    k = XT.shape[0]
    full = np.empty((len(info), k, k))
    for a in range(k):
        full[:, a, a:] = info @ (XT[a:] * XT[a]).T
        full[:, a + 1:, a] = full[:, a, a + 1:]
    return full[np.arange(len(cut))[:, None, None], cut[:, :, None], cut[:, None, :]]


def _logit_trials(b, X, y):
    """Per row of ``b``: whether it passes ``_newton``'s finiteness and
    ``_ETA_MAX`` guard, residuals, information weights, and deviance. On a 0/1
    ``y`` a term of :func:`_trial`'s deviance is 0, so one log gives it bit for bit."""
    eta = b @ X.T
    inside = np.isfinite(b).all(axis=1) & (np.abs(eta).max(axis=1) <= _ETA_MAX)
    mu = expit(eta)
    return (inside, y - mu, mu * (1.0 - mu),
            -2.0 * np.log(np.where(y == 1.0, mu, 1.0 - mu)).sum(axis=1))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _finish(family: Family, X, w, b, converged, iterations, n_eff, state) -> FitResult:
    """Package a solution on sorted ``X, w`` from ``_newton``'s ``state``: its residuals
    and, for ``LOG_GAMMA``, its bread; a ``LOGIT_BINOMIAL`` bread is rebuilt at ``b``.
    Both covariances are NaN when the fit did not converge."""
    p = b.shape[0]
    if converged:
        resid, info, bread = state
        if family is Family.LOGIT_BINOMIAL:
            bread = (X.T * (w * info)) @ X
        covariance = sandwich_covariance(bread, (X.T * (w * resid)).T)
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
