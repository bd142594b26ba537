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

The leave-one-out fits run as one stacked Newton iteration on the records
sorted once (:func:`costsense.glm.logit_leave_one_out`), and the
correlations are read in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CostDataset
from .errors import EmptyFitError, SchemaError, SeparationError, SingularDesignError
from .glm import RANK_DEFICIENT, expit, logit_leave_one_out

WITHIN_STRATUM_THRESHOLD = 0.15


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
    """1-based ranks of ``values``; each run of ties shares its mean rank,
    so the order inside a run does not matter and the sort need not be stable."""
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _correlations(rows: np.ndarray, method: str) -> np.ndarray:
    """Correlation matrix of the variables in ``rows``, one per row.

    Every entry is NaN when there are fewer than 3 records. A variable that
    is constant, or whose centred sum of squares overflows, has NaN
    correlations. Spearman correlates ranks, each variable ranked once.
    """
    k, n = rows.shape
    if n < 3:
        return np.full((k, k), np.nan)
    if method == "spearman":
        rows = np.array([_average_ranks(row) for row in rows])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        centred = rows - rows.mean(axis=1, keepdims=True)
        overflows = ~np.isfinite((centred * centred).sum(axis=1))
        r = np.corrcoef(rows)
    skip = overflows | (rows.min(axis=1) == rows.max(axis=1))
    r[skip, :] = np.nan
    r[:, skip] = np.nan
    return r


def _corr(a: np.ndarray, b: np.ndarray, method: str) -> float:
    return float(_correlations(np.vstack([a, b]), method)[0, 1])


def _largest(r: np.ndarray) -> float:
    """Signed value of the largest-magnitude entry of ``r`` that is not NaN;
    ties go to the first."""
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
    covariate wins. Cells with under 3 records, no variation, or a sum of
    squares beyond the float range are NaN.
    """

    covariate: str
    corr_unconditional: float
    corr_treated: float
    corr_control: float
    largest_individual_corr_treated: float
    largest_individual_corr_control: float

    def flagged(self) -> bool:
        """True when a within-stratum score correlation exceeds
        ``WITHIN_STRATUM_THRESHOLD``."""
        values = [abs(v) for v in (self.corr_treated, self.corr_control) if not np.isnan(v)]
        return bool(values) and max(values) > WITHIN_STRATUM_THRESHOLD


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
    return _reports(dataset, [covariate], method)[0]


def correlation_report(dataset: CostDataset, method: str = "pearson") -> list[CorrelationReport]:
    """One leave-one-out report per covariate, in covariate order.

    A fit that stops unconverged is reported from its last iterate, silently:
    under quasi-separation, such as a binary covariate that is 1 only among
    the treated, every fit keeping it stops that way on a singular solve.
    """
    return _reports(dataset, dataset.covariate_names, method)


def _reports(dataset: CostDataset, covariates_wanted, method: str) -> list[CorrelationReport]:
    """Leave-one-out reports for the named covariates.

    One sort of the records and one pairwise correlation matrix per arm
    serve every report.
    """
    if method not in ("pearson", "spearman"):
        raise ValueError(f"method must be 'pearson' or 'spearman', got {method!r}")
    names = list(dataset.covariate_names)
    for covariate in covariates_wanted:
        if covariate not in names:
            raise KeyError(f"no covariate named {covariate!r}")
    # The order of the whole table depends only on its multiset of rows, so
    # permuting the records changes no bit of a report.
    order = np.lexsort((*dataset.covariates.T[::-1], dataset.treatment))
    covariates = dataset.covariates[order]
    response = dataset.treatment[order].astype(np.float64)
    treated = response == 1.0
    if treated.all() or not treated.any():
        raise EmptyFitError("propensity fit needs records in both treatment arms")
    if len(names) < 2:
        raise SchemaError("leave-one-out correlations need at least 2 covariates")
    design = np.column_stack([np.ones(len(response)), covariates])
    wanted = [names.index(covariate) for covariate in covariates_wanted]
    coefficients, _, _, singular = logit_leave_one_out(
        response, design, [index + 1 for index in wanted])
    scores = expit(coefficients @ design.T)
    pairwise_treated = _correlations(covariates[treated].T, method)
    pairwise_control = _correlations(covariates[~treated].T, method)

    reports = []
    for problem, (index, score) in enumerate(zip(wanted, scores)):
        if singular[problem]:
            raise SingularDesignError(RANK_DEFICIENT)
        keep = [j for j in range(len(names)) if j != index]
        _raise_on_separation(response, score, np.delete(coefficients[problem], index + 1),
                             covariates[:, keep], [names[j] for j in keep])
        column = covariates[:, index]
        reports.append(CorrelationReport(
            covariate=names[index],
            corr_unconditional=_corr(column, score, method),
            corr_treated=_corr(column[treated], score[treated], method),
            corr_control=_corr(column[~treated], score[~treated], method),
            largest_individual_corr_treated=_largest(pairwise_treated[index, keep]),
            largest_individual_corr_control=_largest(pairwise_control[index, keep]),
        ))
    return reports
