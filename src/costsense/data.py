"""Cost dataset container, CSV ingestion and cost preprocessing.

The on-disk format is a plain CSV whose header row names the columns.
Four of them are required, in any order: ``cost``, ``time``, ``event``
(1 where the cost was fully observed, 0 where follow-up was censored) and
``treat``. Every other column is a numeric covariate.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptyDatasetError,
    InputNotFoundError,
    InvalidDataError,
    NoPositiveCostError,
    ParseError,
    SchemaError,
)

ROLE_NAMES = ("cost", "time", "event", "treat")


@dataclass(frozen=True, eq=False)
class CostDataset:
    """Immutable per-subject cost data held as column arrays.

    ``uncensored`` is True where the cost accumulated to the terminating
    event, False where follow-up stopped early. ``covariates`` holds one row
    per subject and one column per entry of ``covariate_names``.

    Every cell is checked here, once, and the arrays are read-only, so what
    is built from a dataset checks none of its values again: costs finite
    and nonnegative, times finite and positive, codes exactly 0 or 1, and
    covariates finite, else :class:`~costsense.errors.InvalidDataError`.
    """

    cost: np.ndarray
    time: np.ndarray
    uncensored: np.ndarray
    treatment: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple[str, ...]

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=np.float64)
        time = np.asarray(self.time, dtype=np.float64)
        # The codes are checked before they are cast, so 0.5 or NaN cannot pass as 0/1.
        uncensored = np.asarray(self.uncensored)
        treatment = np.asarray(self.treatment)
        covariates = np.atleast_2d(np.asarray(self.covariates, dtype=np.float64))
        names = tuple(str(n) for n in self.covariate_names)

        n = cost.shape[0]
        if covariates.size == 0:
            covariates = covariates.reshape(n, 0)
        if (
            cost.ndim != 1
            or time.shape != (n,)
            or uncensored.shape != (n,)
            or treatment.shape != (n,)
            or covariates.shape[0] != n
        ):
            raise InvalidDataError("column arrays must share one length")
        if covariates.shape[1] != len(names):
            raise InvalidDataError("covariate_names must match the covariate columns")
        if n == 0:
            raise EmptyDatasetError("dataset has no records")
        if not np.isfinite(cost).all() or (cost < 0).any():
            raise InvalidDataError("costs must be finite and nonnegative")
        if not np.isfinite(time).all() or (time <= 0).any():
            raise InvalidDataError("follow-up times must be finite and positive")
        if not ((treatment == 0) | (treatment == 1)).all():
            raise InvalidDataError("treatment must be coded 0/1")
        if not ((uncensored == 0) | (uncensored == 1)).all():
            raise InvalidDataError("uncensored must be coded 0/1")
        treatment = treatment.astype(np.int64, copy=False)
        uncensored = uncensored.astype(bool, copy=False)
        if not np.isfinite(covariates).all():
            raise InvalidDataError("covariates must be finite")
        if len(set(names)) != len(names):
            raise InvalidDataError("covariate names must be unique")

        for field, value in (
            ("cost", cost),
            ("time", time),
            ("uncensored", uncensored),
            ("treatment", treatment),
            ("covariates", covariates),
            ("covariate_names", names),
        ):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, field, value)

    def __len__(self) -> int:
        return int(self.cost.shape[0])

    @property
    def censoring_rate(self) -> float:
        return float(np.mean(~self.uncensored))


def _parse_number(token: str, row: int, column: str) -> float:
    token = token.strip()
    if token == "":
        raise ParseError(f"row {row}: column '{column}' is empty", row=row)
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"row {row}: column '{column}': cannot parse {token!r} as a number",
            row=row,
        ) from None
    if not np.isfinite(value):
        raise ParseError(
            f"row {row}: column '{column}': non-finite value {token!r}", row=row
        )
    return value


def _parse_indicator(token: str, row: int, column: str) -> None:
    if _parse_number(token, row, column) not in (0.0, 1.0):
        raise ParseError(
            f"row {row}: column '{column}' must be 0 or 1, got {token.strip()!r}",
            row=row,
        )


def _resolve_header(header: list[str]):
    """Positions of the role columns; every other column is a covariate."""
    for j, name in enumerate(header):
        if name in header[:j]:
            raise SchemaError(f"column '{name}' appears more than once in the header")
    positions = {}
    for role in ROLE_NAMES:
        if role not in header:
            raise SchemaError(f"required column '{role}' not found in header")
        positions[role] = header.index(role)
    cov_idx = [i for i in range(len(header)) if i not in positions.values()]
    return positions, cov_idx, [header[i] for i in cov_idx]


def load_dataset(path) -> CostDataset:
    """Read a cost CSV into a :class:`CostDataset`.

    The first row names the columns; ``cost``, ``time``, ``event`` and
    ``treat`` may come in any order, and every other column is a numeric
    covariate, in file order. Blank rows are skipped.

    The needed columns are converted a whole column at a time with
    ``float`` and checked as arrays by :class:`CostDataset`. Only when that
    finds a problem are the rows walked one at a time, to name the first bad
    cell in the error.

    Raises
    ------
    SchemaError
        A required column is missing, or the header names a column twice;
        the message names the column.
    ParseError
        A cell cannot be interpreted, naming the 1-based data row.
    EmptyDatasetError
        The file holds no data rows.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise InputNotFoundError(f"input file not found: {path}") from None
    with handle:
        rows = [row for row in csv.reader(handle) if any(cell.strip() for cell in row)]
    if len(rows) < 2:
        raise EmptyDatasetError(f"no data rows in {path}")
    data_rows, width = rows[1:], len(rows[0])
    positions, cov_idx, cov_names = _resolve_header([cell.strip() for cell in rows[0]])
    values = _parse_columns(data_rows, width, [positions[role] for role in ROLE_NAMES] + cov_idx)
    if values is not None:
        with contextlib.suppress(InvalidDataError):
            return CostDataset(
                cost=values[0],
                time=values[1],
                uncensored=values[2],
                treatment=values[3],
                covariates=values[4:].T.copy(),
                covariate_names=tuple(cov_names),
            )
    _raise_first_bad_cell(data_rows, width, positions, cov_idx, cov_names)


def _parse_columns(rows, width: int, columns: list[int]) -> np.ndarray | None:
    """The cells of ``columns`` as floats, one array row per column.

    ``columns`` lists cost, time, event and treat, then the covariates. The
    result is None when a row is shorter than ``width`` or a cell is not a
    number; the value rules are :class:`CostDataset`'s.
    """
    if min(map(len, rows)) < width:
        return None
    transposed = list(zip(*rows))
    try:
        return np.array([np.fromiter(map(float, transposed[j]), np.float64, len(rows))
                         for j in columns])
    except ValueError:
        return None


def _raise_first_bad_cell(rows, width: int, positions: dict, cov_idx, cov_names) -> None:
    """Raise the :class:`ParseError` that names the first bad cell in row order.

    Called once :func:`_parse_columns` or :class:`CostDataset` has rejected
    the rows. It checks the same cells by the same rules, one row at a time,
    so it always finds one.
    """
    for i, row in enumerate(rows, start=1):
        if len(row) < width:
            raise ParseError(
                f"row {i}: expected at least {width} columns, got {len(row)}", row=i
            )
        if _parse_number(row[positions["cost"]], i, "cost") < 0:
            raise ParseError(f"row {i}: column 'cost' must be nonnegative", row=i)
        if _parse_number(row[positions["time"]], i, "time") <= 0:
            raise ParseError(f"row {i}: column 'time' must be positive", row=i)
        _parse_indicator(row[positions["event"]], i, "event")
        _parse_indicator(row[positions["treat"]], i, "treat")
        for m, j in enumerate(cov_idx):
            _parse_number(row[j], i, cov_names[m])


def save_dataset(path, dataset: CostDataset) -> None:
    """Write ``dataset`` as CSV with default role headers.

    Floats are serialized with ``repr``, so a save/load round trip
    reproduces every value bit for bit.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(ROLE_NAMES) + list(dataset.covariate_names))
        for i in range(len(dataset)):
            writer.writerow(
                [
                    repr(float(dataset.cost[i])),
                    repr(float(dataset.time[i])),
                    int(dataset.uncensored[i]),
                    int(dataset.treatment[i]),
                ]
                + [repr(float(v)) for v in dataset.covariates[i]]
            )


def zero_cost_shift(dataset: CostDataset) -> CostDataset:
    """Return a copy with half the smallest positive cost added to every cost.

    Multiplicative mean models cannot represent exact zeros, so accounting
    zeros are lifted by a common offset small relative to real spending.
    Applying the shift twice shifts twice; it is not idempotent.

    Raises
    ------
    NoPositiveCostError
        Every cost in the dataset is zero.
    InvalidDataError
        A shifted cost overflows a float.
    """
    positive = dataset.cost[dataset.cost > 0]
    if positive.size == 0:
        raise NoPositiveCostError("all costs are zero; no positive cost to anchor the shift")
    shift = float(positive.min()) / 2.0
    if not np.isfinite(float(dataset.cost.max()) + shift):
        raise InvalidDataError(f"shifting every cost by {shift:g} overflows a float")
    return replace(dataset, cost=dataset.cost + shift)
