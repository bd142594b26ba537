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
sorted once (:func:`costsense.glm.logit_leave_one_out`), and every
correlation is read from three matrices over all covariates and scores:
pooled, treated and control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CostDataset
from .errors import ConfigError, EmptyFitError, SchemaError, SeparationError, SingularDesignError
from .glm import RANK_DEFICIENT, expit, logit_leave_one_out

WITHIN_STRATUM_THRESHOLD = 0.15


def _separated(treated, scores):
    """Whether the scores (each row of a 2-D ``scores``) split the arms perfectly."""
    return ((scores[..., treated].min(axis=-1) > 1.0 - 1e-6)
            & (scores[..., ~treated].max(axis=-1) < 1e-6))


def _raise_on_separation(response, scores, covariates, names) -> None:
    """Raise when ``scores`` split the arms, naming the first covariate whose
    ranges in the two arms do not overlap, if any does."""
    treated = response == 1.0
    if not _separated(treated, scores):
        return
    inside, outside = covariates[treated], covariates[~treated]
    above = inside.min(axis=0) > outside.max(axis=0)
    splitting = np.flatnonzero(above | (inside.max(axis=0) < outside.min(axis=0)))
    message = "treatment arms are perfectly separated"
    if splitting.size:
        j = splitting[0]
        direction = "increasing" if above[j] else "decreasing"
        message += f"; first separating covariate is {direction} {names[j]!r}"
    raise SeparationError(message)


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


def _largest(r: np.ndarray) -> np.ndarray:
    """Signed value of the largest-magnitude entry of ``r`` that is not NaN,
    along its last axis; ties go to the first, and all-NaN gives NaN."""
    best = np.where(np.isnan(r), -1.0, np.abs(r)).argmax(axis=-1)
    return np.take_along_axis(r, np.expand_dims(best, -1), axis=-1)[..., 0]


@dataclass(frozen=True)
class CorrelationReport:
    """How one covariate relates to the combined effect of the others.

    Score correlations use the propensity fitted without this covariate;
    ``largest_individual_*`` is the signed value of the largest-magnitude
    pairwise correlation with any single other covariate within the
    stratum; on equal magnitudes the earlier covariate wins. Both come from
    one correlation matrix per stratum over every covariate and score (on
    ranks for Spearman, each variable ranked once). Cells with under 3
    records, no variation, or a sum of squares beyond the float range are
    NaN. ``converged`` is False when that fit stopped at its last iterate.
    """

    covariate: str
    corr_unconditional: float
    corr_treated: float
    corr_control: float
    largest_individual_corr_treated: float
    largest_individual_corr_control: float
    converged: bool = True

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
        the first kept covariate whose ranges in the two arms do not overlap.
    """
    return _reports(dataset, [covariate], method)[0]


def correlation_report(dataset: CostDataset, method: str = "pearson") -> list[CorrelationReport]:
    """One leave-one-out report per covariate, in covariate order.

    A fit that stops unconverged is reported from its last iterate, with
    ``converged=False``: under quasi-separation, such as a binary covariate
    that is 1 only among the treated, every fit keeping it stops that way on
    a singular solve.
    """
    return _reports(dataset, dataset.covariate_names, method)


def _reports(dataset: CostDataset, covariates_wanted, method: str) -> list[CorrelationReport]:
    """Leave-one-out reports for the named covariates.

    One sort of the records and one correlation matrix per stratum serve
    every report; the first problem that is singular or separated raises.
    """
    if method not in ("pearson", "spearman"):
        raise ConfigError(f"method must be 'pearson' or 'spearman', got {method!r}")
    names = list(dataset.covariate_names)
    for covariate in covariates_wanted:
        if covariate not in names:
            raise SchemaError(f"no covariate named {covariate!r}")
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
    coefficients, converged, _, singular = logit_leave_one_out(
        response, design, [index + 1 for index in wanted])
    scores = expit(coefficients @ design.T)
    failed = singular | _separated(treated, scores)
    if failed.any():
        problem = int(failed.argmax())
        if singular[problem]:
            raise SingularDesignError(RANK_DEFICIENT)
        j = wanted[problem]
        _raise_on_separation(response, scores[problem], np.delete(covariates, j, axis=1),
                             names[:j] + names[j + 1:])

    cells = _report_cells(covariates, scores, treated, wanted, method)
    return [CorrelationReport(names[index], *map(float, cells[i]), bool(converged[i]))
            for i, index in enumerate(wanted)]


def _report_cells(covariates, scores, treated, wanted, method: str) -> np.ndarray:
    """Per covariate ``wanted[i]``, from one matrix per stratum over every covariate
    and every score: its correlations with ``scores[i]`` pooled, treated and control,
    then its largest pairwise correlation treated and control."""
    k, problems = covariates.shape[1], np.arange(len(wanted))
    rows = np.vstack([covariates.T, scores])
    score_corr, largest = [], []
    for subset in (rows, rows[:, treated], rows[:, ~treated]):
        r = _correlations(subset, method)
        score_corr.append(r[wanted, k + problems])
        pairwise = r[wanted, :k]
        pairwise[problems, wanted] = np.nan
        largest.append(_largest(pairwise))
    return np.column_stack(score_corr + largest[1:])
