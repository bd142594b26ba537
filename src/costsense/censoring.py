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
from .errors import EmptyDatasetError, InvalidDataError, ZeroProbabilityError
from .glm import Family, FitResult, irls_fit


@dataclass(frozen=True)
class StepSurvival:
    """Right-continuous step function starting at 1.

    ``jump_times`` are the strictly increasing times at which the function
    drops; ``values`` holds the value from each jump onward, non-increasing
    in [0, 1]. Its builder, :func:`km_censoring_survival`, meets all this.
    """

    jump_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.jump_times.setflags(write=False)
        self.values.setflags(write=False)

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
    The factors depend only on each run of tied times, its count of
    censorings and its first sorted position, so the sort need not be stable.
    """
    times = np.asarray(times, dtype=np.float64)
    uncensored = np.asarray(uncensored, dtype=bool)
    if times.ndim != 1 or times.shape != uncensored.shape:
        raise InvalidDataError("times and uncensored must be 1-d arrays of equal length")
    if times.size == 0:
        raise EmptyDatasetError("no records for the censoring curve")
    if (times <= 0).any() or not np.isfinite(times).all():
        raise InvalidDataError("times must be finite and positive")

    order = np.argsort(times)
    t_sorted = times[order]
    censor_event = ~uncensored[order]

    start_idx = np.flatnonzero(np.concatenate(([True], t_sorted[1:] != t_sorted[:-1])))
    censorings = np.add.reduceat(censor_event, start_idx, dtype=np.intp)
    at_risk = times.size - start_idx
    jumps = censorings > 0
    values = np.cumprod(1.0 - censorings[jumps] / at_risk[jumps])
    return StepSurvival(t_sorted[start_idx[jumps]], values)


def _weights_from_probabilities(times, uncensored, probs) -> np.ndarray:
    """``1 / probs`` for uncensored records, 0 for censored ones; the
    guard runs in input order, so its error names the first bad record."""
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


def _km_weights(times: np.ndarray, uncensored: np.ndarray) -> np.ndarray:
    """IPW weights from the censoring curve of these records.

    The times are sorted once: the curve is built from the sorted records,
    and each record's survival is looked up on the sorted keys, which binary
    search visits in memory order, then scattered back to input order.
    """
    order = np.argsort(times)
    t_sorted = times[order]
    survival = km_censoring_survival(t_sorted, uncensored[order])
    probs = np.empty(times.shape[0])
    probs[order] = survival.evaluate(t_sorted)
    return _weights_from_probabilities(times, uncensored, probs)


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
        return _km_weights(dataset.time, dataset.uncensored)

    weights = np.zeros(len(dataset))
    for arm in (0, 1):
        mask = dataset.treatment == arm
        if not np.any(mask):
            continue
        weights[mask] = _km_weights(dataset.time[mask], dataset.uncensored[mask])
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
    """Log-link regression of the costs on ``design`` with ``weights``.

    The design and weights are checked here, where they enter; the costs
    were checked when ``dataset`` was built.

    Raises
    ------
    InvalidDataError
        ``design`` is not a finite matrix with a row per record, or the
        weights are not finite, nonnegative and one per record.
    EmptyFitError, SingularDesignError
        As :func:`~costsense.glm.irls_fit`.
    """
    design = np.asarray(design, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = len(dataset)
    if design.ndim != 2 or design.shape[0] != n or weights.shape != (n,):
        raise InvalidDataError(f"design and weights need one row per record, {n} here")
    if not np.isfinite(design).all():
        raise InvalidDataError("design matrix must be finite")
    if not (np.isfinite(weights).all() and (weights >= 0).all()):
        raise InvalidDataError("weights must be finite and nonnegative")
    return irls_fit(dataset.cost, design, weights, Family.LOG_GAMMA)
