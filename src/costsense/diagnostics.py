"""Empirical plausibility checks for the conditional independence assumption.

The correction assumes the unmeasured covariate is independent of the
measured ones within each treatment arm. That assumption is untestable
for the unmeasured covariate itself, but the analogous quantity is
observable for each measured covariate: leave it out, estimate the
propensity score from the rest, and correlate. If every measured
covariate shows only weak within-arm correlation with the others'
combined effect, positing the same for the unmeasured one is easier to
defend. Corrections stay reliable while within-stratum correlations
remain under about 0.15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CostDataset
from .errors import EmptyFitError, SchemaError, SeparationError
from .glm import DesignSpec, Family, _canonical_rows, _newton, expit

WITHIN_STRATUM_THRESHOLD = 0.15


def _fit_propensity(response: np.ndarray, covariates: np.ndarray, names) -> np.ndarray:
    """Fitted treatment probabilities from a logit model on ``covariates``."""
    n = response.size
    design = np.column_stack([np.ones(n), covariates])
    spec = DesignSpec(response=response, design=design, weights=np.ones(n),
                      family=Family.LOGIT_BINOMIAL)
    # Only the coefficients are needed, so skip the covariances irls_fit adds.
    coefficients = _newton(spec.family, *_canonical_rows(spec))[0]
    scores = expit(design @ coefficients)
    _raise_on_separation(response, scores, coefficients, covariates, names)
    return scores


def _raise_on_separation(response, scores, coefficients, covariates, names) -> None:
    treated = response == 1.0
    perfectly_split = scores[treated].min() > 1.0 - 1e-6 and scores[~treated].max() < 1e-6
    if not perfectly_split:
        return
    slopes = np.asarray(coefficients[1:], dtype=float)
    spread = covariates.std(axis=0)
    strength = np.abs(slopes) * np.where(spread > 0, spread, 1.0)
    worst = int(np.argmax(strength))
    direction = "increasing" if slopes[worst] > 0 else "decreasing"
    raise SeparationError(
        f"treatment arms are perfectly separated; strongest direction is "
        f"{direction} {names[worst]!r}"
    )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; each run of ties shares its mean rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _corr(a: np.ndarray, b: np.ndarray, method: str) -> float:
    if a.size < 3:
        return float("nan")
    if method == "spearman":
        a, b = _average_ranks(a), _average_ranks(b)
    if np.std(a) == 0.0 or np.std(b) == 0.0:
        return float("nan")
    return float(np.corrcoef(a, b)[0, 1])


def _largest_pairwise(column: np.ndarray, others: np.ndarray, method: str) -> float:
    """Signed value of the largest-magnitude correlation of ``column`` with a
    column of ``others``, from one correlation matrix; ties go to the first.

    As in :func:`_corr`, every pair is NaN when there are fewer than 3
    records, and a pair is skipped when either side is constant.
    """
    if column.size < 3:
        return float("nan")
    rows = np.vstack([column, others.T])
    if method == "spearman":
        rows = np.array([_average_ranks(row) for row in rows])
    constant = rows.min(axis=1) == rows.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.corrcoef(rows)[0, 1:]
    r[constant[1:] | constant[0]] = np.nan
    if np.isnan(r).all():
        return float("nan")
    return float(r[np.nanargmax(np.abs(r))])


@dataclass(frozen=True)
class CorrelationReport:
    """How one covariate relates to the combined effect of the others.

    Score correlations use the propensity fitted without this covariate;
    ``largest_individual_*`` is the signed value of the largest-magnitude
    pairwise correlation with any single other covariate within the
    stratum, read from one correlation matrix per stratum (on ranks for
    Spearman, each column ranked once); on equal magnitudes the earlier
    covariate wins. Cells with under 3 records or no variation are NaN.
    """

    covariate: str
    corr_unconditional: float
    corr_treated: float
    corr_control: float
    largest_individual_corr_treated: float
    largest_individual_corr_control: float

    def flagged(self, threshold: float = WITHIN_STRATUM_THRESHOLD) -> bool:
        """True when a within-stratum score correlation exceeds the threshold."""
        values = [abs(v) for v in (self.corr_treated, self.corr_control) if not np.isnan(v)]
        return bool(values) and max(values) > threshold


def loo_correlation_report(dataset: CostDataset, covariate: str,
                           method: str = "pearson") -> CorrelationReport:
    """Correlations of one covariate with the leave-it-out propensity score.

    Raises
    ------
    EmptyFitError
        One of the treatment arms is empty.
    SchemaError
        The dataset has fewer than 2 covariates, so none is left to fit on.
    SeparationError
        The leave-it-out propensity fit classifies the arms perfectly, so
        its maximum likelihood estimate does not exist; the message names
        the covariate carrying the strongest separating direction.
    """
    if method not in ("pearson", "spearman"):
        raise ValueError(f"method must be 'pearson' or 'spearman', got {method!r}")
    names = list(dataset.covariate_names)
    if covariate not in names:
        raise KeyError(f"no covariate named {covariate!r}")
    treated = dataset.treatment == 1.0
    if treated.all() or not treated.any():
        raise EmptyFitError("propensity fit needs records in both treatment arms")
    if len(names) < 2:
        raise SchemaError("leave-one-out correlations need at least 2 covariates")
    index = names.index(covariate)
    keep = [j for j in range(len(names)) if j != index]
    column = dataset.covariates[:, index]
    others = dataset.covariates[:, keep]
    other_names = [names[j] for j in keep]

    scores = _fit_propensity(dataset.treatment, others, other_names)
    return CorrelationReport(
        covariate=covariate,
        corr_unconditional=_corr(column, scores, method),
        corr_treated=_corr(column[treated], scores[treated], method),
        corr_control=_corr(column[~treated], scores[~treated], method),
        largest_individual_corr_treated=_largest_pairwise(
            column[treated], others[treated], method),
        largest_individual_corr_control=_largest_pairwise(
            column[~treated], others[~treated], method),
    )


def correlation_report(dataset: CostDataset, method: str = "pearson") -> list[CorrelationReport]:
    """One leave-one-out report per covariate, in covariate order."""
    return [
        loo_correlation_report(dataset, name, method=method)
        for name in dataset.covariate_names
    ]
