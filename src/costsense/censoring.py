"""Censoring-weighted cost regression.

Costs cut short by end of follow-up cannot simply be dropped or treated as
complete. The standard fix reweights fully observed records by the inverse
probability of remaining uncensored through their follow-up time, with that
probability estimated by a Kaplan-Meier curve in which censoring plays the
role of the event. Censored records get weight zero; complete records get
weight at least one; and when nothing is censored the weights are exactly
one, so the weighted fit reduces to the plain one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CostDataset
from .errors import EmptyDatasetError, ZeroProbabilityError
from .glm import DesignSpec, Family, FitResult, irls_fit


@dataclass(frozen=True)
class StepSurvival:
    """Right-continuous step function starting at 1.

    ``jump_times`` are the strictly increasing times at which the function
    drops; ``values`` holds the value from each jump onward.
    """

    jump_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.jump_times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("jump_times and values must be 1-d arrays of equal length")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("jump_times must be strictly increasing")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("survival values must lie in [0, 1]")
        if values.size and np.any(np.diff(values) > 0):
            raise ValueError("survival values must be non-increasing")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "values", values)

    def evaluate(self, t) -> np.ndarray:
        """Value at ``t``, evaluated right-continuously (jumps included)."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.jump_times, t, side="right")
        padded = np.concatenate(([1.0], self.values))
        return padded[idx]


def km_censoring_survival(times, uncensored) -> StepSurvival:
    """Kaplan-Meier survival of the censoring distribution.

    Censoring is the event here; failures count as censored observations of
    the censoring time. At a tied time, failures stay in the risk set for
    the censoring event and leave afterwards, so the factor at time ``t`` is
    ``1 - (#censorings at t) / (#records with time >= t)``. One cumulative
    product multiplies the factors in time order, as a running product would.
    """
    times = np.asarray(times, dtype=np.float64)
    uncensored = np.asarray(uncensored, dtype=bool)
    if times.ndim != 1 or times.shape != uncensored.shape:
        raise ValueError("times and uncensored must be 1-d arrays of equal length")
    if times.size == 0:
        raise EmptyDatasetError("no records for the censoring curve")
    if np.any(times <= 0) or not np.all(np.isfinite(times)):
        raise ValueError("times must be finite and positive")

    order = np.argsort(times, kind="stable")
    t_sorted = times[order]
    censor_event = ~uncensored[order]

    distinct, start_idx = np.unique(t_sorted, return_index=True)
    censorings = np.add.reduceat(censor_event, start_idx, dtype=np.intp)
    at_risk = times.size - start_idx
    jumps = censorings > 0
    values = np.cumprod(1.0 - censorings[jumps] / at_risk[jumps])
    return StepSurvival(distinct[jumps], values)


def _weights_from_survival(times, uncensored, survival: StepSurvival) -> np.ndarray:
    probs = survival.evaluate(times)
    weights = np.zeros(times.shape[0])
    complete = np.asarray(uncensored, dtype=bool)
    bad = complete & (probs <= 0.0)
    if np.any(bad):
        record = int(np.flatnonzero(bad)[0])
        raise ZeroProbabilityError(
            f"record {record}: uncensored at time {times[record]:g} where the "
            "estimated censoring survival is zero",
            record=record,
        )
    weights[complete] = 1.0 / probs[complete]
    return weights


def ipw_weights(dataset: CostDataset, stratify_by_arm: bool = False) -> np.ndarray:
    """Inverse-probability-of-censoring weights, one per record.

    The censoring curve is pooled across arms by default; pass
    ``stratify_by_arm=True`` to estimate it separately within each arm.

    Raises
    ------
    ZeroProbabilityError
        An uncensored record sits where the estimated censoring survival
        is zero, identifying the record.
    """
    if not stratify_by_arm:
        survival = km_censoring_survival(dataset.time, dataset.uncensored)
        return _weights_from_survival(dataset.time, dataset.uncensored, survival)

    weights = np.zeros(len(dataset))
    for arm in (0, 1):
        mask = dataset.treatment == arm
        if not np.any(mask):
            continue
        survival = km_censoring_survival(dataset.time[mask], dataset.uncensored[mask])
        weights[mask] = _weights_from_survival(
            dataset.time[mask], dataset.uncensored[mask], survival
        )
    return weights


def cost_design(dataset: CostDataset):
    """Design matrix ``[1, treat, covariates]`` and matching term names."""
    X = np.column_stack(
        [
            np.ones(len(dataset)),
            dataset.treatment.astype(np.float64),
            dataset.covariates,
        ]
    )
    names = ("intercept", "treat") + dataset.covariate_names
    return X, names


def fit_censored_cost(dataset: CostDataset, stratify_censoring: bool = False) -> FitResult:
    """Censoring-weighted multiplicative cost regression.

    Fits the log-link moment model of cost on ``[1, treat, covariates]``
    with inverse-probability-of-censoring weights and robust covariance.
    On fully uncensored data every weight is exactly one, so the result
    coincides with the unweighted fit.
    """
    weights = ipw_weights(dataset, stratify_by_arm=stratify_censoring)
    return fit_cost(dataset, cost_design(dataset)[0], weights)


def fit_cost(dataset: CostDataset, design, weights) -> FitResult:
    """Log-link regression of the costs on ``design`` with ``weights``."""
    spec = DesignSpec(response=dataset.cost, design=design, weights=weights,
                      family=Family.LOG_GAMMA)
    return irls_fit(spec)
