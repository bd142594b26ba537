from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from costsense import (
    CostDataset,
    EmptyDatasetError,
    InputNotFoundError,
    InvalidDataError,
    NoPositiveCostError,
    ParseError,
    SchemaError,
    load_dataset,
    save_dataset,
    zero_cost_shift,
)
from helpers import tiny_dataset


def test_dataset_basic_accessors():
    ds = tiny_dataset()
    assert len(ds) == 4
    assert ds.covariates.shape[1] == 1
    assert ds.covariate_names == ("z1",)
    assert ds.censoring_rate == 0.0


def test_dataset_arrays_are_read_only():
    ds = tiny_dataset()
    with pytest.raises(ValueError):
        ds.cost[0] = 0.0
    with pytest.raises(ValueError):
        ds.covariates[0, 0] = 9.0


def test_negative_cost_rejected():
    with pytest.raises(ValueError, match="cost"):
        CostDataset(
            cost=np.array([-1.0]),
            time=np.array([1.0]),
            uncensored=np.array([True]),
            treatment=np.array([0]),
            covariates=np.zeros((1, 1)),
            covariate_names=("z1",),
        )


def test_nonpositive_time_rejected():
    with pytest.raises(ValueError, match="time"):
        CostDataset(
            cost=np.array([1.0]),
            time=np.array([0.0]),
            uncensored=np.array([True]),
            treatment=np.array([0]),
            covariates=np.zeros((1, 1)),
            covariate_names=("z1",),
        )


def test_treatment_must_be_binary():
    with pytest.raises(ValueError, match="treatment"):
        CostDataset(
            cost=np.array([1.0]),
            time=np.array([1.0]),
            uncensored=np.array([True]),
            treatment=np.array([2]),
            covariates=np.zeros((1, 1)),
            covariate_names=("z1",),
        )


def test_duplicate_covariate_names_rejected():
    with pytest.raises(ValueError, match="unique"):
        CostDataset(
            cost=np.array([1.0, 2.0]),
            time=np.array([1.0, 1.0]),
            uncensored=np.array([True, True]),
            treatment=np.array([0, 1]),
            covariates=np.zeros((2, 2)),
            covariate_names=("z1", "z1"),
        )


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        CostDataset(
            cost=np.array([1.0, 2.0]),
            time=np.array([1.0]),
            uncensored=np.array([True, True]),
            treatment=np.array([0, 1]),
            covariates=np.zeros((2, 1)),
            covariate_names=("z1",),
        )


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDatasetError):
        CostDataset(
            cost=np.array([]),
            time=np.array([]),
            uncensored=np.array([], dtype=bool),
            treatment=np.array([], dtype=np.int64),
            covariates=np.zeros((0, 0)),
            covariate_names=(),
        )


def _columns(**changes):
    columns = dict(cost=np.array([1.0, 2.0]), time=np.array([1.0, 3.0]),
                   uncensored=np.array([True, False]), treatment=np.array([0, 1]),
                   covariates=np.zeros((2, 2)), covariate_names=("z1", "z2"))
    return {**columns, **changes}


@pytest.mark.parametrize("changes, match", [
    (dict(time=np.array([1.0])), "share one length"),
    (dict(covariate_names=("z1",)), "covariate_names must match"),
    (dict(cost=np.array([1.0, np.inf])), "costs must be finite and nonnegative"),
    (dict(time=np.array([1.0, -0.0])), "follow-up times must be finite and positive"),
    (dict(treatment=np.array([0.0, np.nan])), "treatment must be coded 0/1"),
    (dict(uncensored=np.array([1, 2])), "uncensored must be coded 0/1"),
    (dict(covariates=np.array([[0.0, 0.0], [np.nan, 0.0]])), "covariates must be finite"),
    (dict(covariate_names=("z1", "z1")), "covariate names must be unique"),
], ids=["length", "names", "cost", "time", "treatment", "uncensored", "covariates", "unique"])
def test_each_dataset_check_raises_the_typed_invalid_data_error(changes, match):
    with pytest.raises(InvalidDataError, match=match) as raised:
        CostDataset(**_columns(**changes))
    assert isinstance(raised.value, ValueError)
    assert (raised.value.code, raised.value.exit_status) == ("invalid-data", 2)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_header_file(tmp_path):
    path = _write(
        tmp_path / "toy.csv",
        "cost,time,event,treat,z1\n"
        "100.5,3.0,1,1,0.2\n"
        "80.0,2.0,0,0,-0.4\n"
        "55.25,1.5,1,0,1.0\n",
    )
    ds = load_dataset(path)
    assert len(ds) == 3
    assert ds.covariate_names == ("z1",)
    np.testing.assert_array_equal(ds.cost, [100.5, 80.0, 55.25])
    np.testing.assert_array_equal(ds.uncensored, [True, False, True])
    np.testing.assert_array_equal(ds.treatment, [1, 0, 0])


def test_load_missing_column_names_it(tmp_path):
    path = _write(tmp_path / "short.csv", "cost,time,treat\n1,1,0\n")
    with pytest.raises(SchemaError, match="event"):
        load_dataset(path)


def test_load_bad_cell_reports_row(tmp_path):
    path = _write(
        tmp_path / "bad.csv",
        "cost,time,event,treat\n"
        "1.0,1.0,1,0\n"
        "oops,2.0,1,1\n",
    )
    with pytest.raises(ParseError, match="row 2"):
        load_dataset(path)


def test_load_treatment_two_reports_row(tmp_path):
    path = _write(
        tmp_path / "badtreat.csv",
        "cost,time,event,treat\n"
        "1.0,1.0,1,0\n"
        "2.0,2.0,1,2\n",
    )
    with pytest.raises(ParseError, match="row 2"):
        load_dataset(path)


def test_load_empty_and_header_only_files(tmp_path):
    empty = _write(tmp_path / "empty.csv", "")
    with pytest.raises(EmptyDatasetError):
        load_dataset(empty)
    header_only = _write(tmp_path / "head.csv", "cost,time,event,treat\n")
    with pytest.raises(EmptyDatasetError):
        load_dataset(header_only)


def test_load_missing_file(tmp_path):
    with pytest.raises(InputNotFoundError):
        load_dataset(str(tmp_path / "nope.csv"))


def test_save_load_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    n = 50
    ds = CostDataset(
        cost=rng.gamma(2.0, 50.0, size=n),
        time=rng.uniform(0.5, 9.5, size=n),
        uncensored=rng.uniform(size=n) < 0.7,
        treatment=(rng.uniform(size=n) < 0.5).astype(np.int64),
        covariates=rng.normal(size=(n, 3)),
        covariate_names=("z1", "z2", "z3"),
    )
    path = str(tmp_path / "round.csv")
    save_dataset(path, ds)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.cost, ds.cost)
    np.testing.assert_array_equal(back.time, ds.time)
    np.testing.assert_array_equal(back.uncensored, ds.uncensored)
    np.testing.assert_array_equal(back.treatment, ds.treatment)
    np.testing.assert_array_equal(back.covariates, ds.covariates)
    assert back.covariate_names == ds.covariate_names


def test_zero_cost_shift_half_smallest_positive():
    ds = tiny_dataset()
    shifted_costs = zero_cost_shift(
        CostDataset(
            cost=np.array([0.0, 2.0, 4.0]),
            time=np.array([1.0, 1.0, 1.0]),
            uncensored=np.array([True, True, True]),
            treatment=np.array([0, 1, 0]),
            covariates=np.zeros((3, 1)),
            covariate_names=("z1",),
        )
    ).cost
    np.testing.assert_array_equal(shifted_costs, [1.0, 3.0, 5.0])
    # No zeros means the shift is still applied uniformly.
    same = zero_cost_shift(ds)
    np.testing.assert_array_equal(same.cost, ds.cost + 30.0)


def test_zero_cost_shift_all_equal_positive():
    ds = CostDataset(
        cost=np.array([5.0, 5.0]),
        time=np.array([1.0, 1.0]),
        uncensored=np.array([True, True]),
        treatment=np.array([0, 1]),
        covariates=np.zeros((2, 1)),
        covariate_names=("z1",),
    )
    np.testing.assert_array_equal(zero_cost_shift(ds).cost, [7.5, 7.5])


def test_zero_cost_shift_requires_a_positive_cost():
    ds = CostDataset(
        cost=np.array([0.0, 0.0]),
        time=np.array([1.0, 1.0]),
        uncensored=np.array([True, True]),
        treatment=np.array([0, 1]),
        covariates=np.zeros((2, 1)),
        covariate_names=("z1",),
    )
    with pytest.raises(NoPositiveCostError):
        zero_cost_shift(ds)


def test_zero_cost_shift_is_not_idempotent():
    ds = CostDataset(
        cost=np.array([0.0, 2.0]),
        time=np.array([1.0, 1.0]),
        uncensored=np.array([True, True]),
        treatment=np.array([0, 1]),
        covariates=np.zeros((2, 1)),
        covariate_names=("z1",),
    )
    once = zero_cost_shift(ds)
    twice = zero_cost_shift(once)
    assert once.cost.min() > 0.0
    assert twice.cost[0] > once.cost[0]


# Column parse against a per-cell oracle. Tokens cover what ``float`` accepts
# beyond plain decimals: signs, -0, padding, exponents and underscores.
_FORMATS = st.sampled_from([repr, lambda v: f" {v!r}\t", lambda v: f"{v:.6e}",
                             lambda v: f"{v:+.17g}"])


def _tokens(values, extras):
    return st.one_of(st.tuples(values, _FORMATS).map(lambda pair: pair[1](pair[0])),
                     st.sampled_from(extras))


_ROLE_TOKENS = {
    "cost": _tokens(st.floats(0.0, 1e300), ["0", "-0", " 1_000 ", "1e3", "+2.5", "\t7", "5."]),
    "time": _tokens(st.floats(1e-300, 1e300), ["1", " 2.5 ", "1_0", "3e-2", ".5"]),
    "event": st.sampled_from(["0", "1", "-0", "1.0", " 1 ", "0e0", "+1", "0_0"]),
    "treat": st.sampled_from(["0", "1", "-0", "1.0", " 0 ", "1e0", "+0", "0_1"]),
}
_COVARIATE_TOKEN = _tokens(st.floats(allow_nan=False, allow_infinity=False),
                           ["-0", "0", " -3 ", "1_5", "-2.5e-3", "1E5"])
_BAD_TOKENS = ["", "  ", "abc", "nan", "inf", "-inf", "--1", "0x10", "1__0", "1e400"]
# Numbers that only some roles reject: a negative cost, a time that is not
# positive, an indicator other than 0 or 1.
_ROLE_BAD_TOKENS = {"cost": ["-1", "-1e-300"], "time": ["0", "-0", "-2"],
                    "event": ["2", "0.5", "-1"], "treat": ["2", "0.5", "-1"]}


@st.composite
def _valid_table(draw):
    """Header and rows of a valid cost CSV, columns in a random order."""
    covariates = [f"z{j + 1}" for j in range(draw(st.integers(0, 3)))]
    header = draw(st.permutations(["cost", "time", "event", "treat"] + covariates))
    n = draw(st.integers(1, 8))
    rows = [[draw(_ROLE_TOKENS.get(name, _COVARIATE_TOKEN)) for name in header]
            for _ in range(n)]
    return header, rows


@st.composite
def _corrupted_table(draw):
    """A valid table with one to three rows cut short or cells made bad."""
    header, rows = draw(_valid_table())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["role", "cell", "short"]))
        if kind == "short":
            rows[i] = rows[i][:draw(st.integers(1, len(header) - 1))]
            continue
        names = [name for name in header[:len(rows[i])]
                 if kind == "cell" or name in _ROLE_BAD_TOKENS]
        if names:
            name = draw(st.sampled_from(names))
            bad = _ROLE_BAD_TOKENS[name] if kind == "role" else _BAD_TOKENS
            rows[i][header.index(name)] = draw(st.sampled_from(bad))
    return header, rows


def _write_table(path, header, rows):
    path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]), encoding="utf-8")
    return path


def _row_by_row_reference(header, rows):
    """The reader as it was before the column parse: one row, then one cell, at a
    time, after dropping blank rows."""
    def number(token, i, column):
        token = token.strip()
        if token == "":
            raise ParseError(f"row {i}: column '{column}' is empty", row=i)
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"row {i}: column '{column}': cannot parse {token!r} as a number",
                             row=i) from None
        if not np.isfinite(value):
            raise ParseError(f"row {i}: column '{column}': non-finite value {token!r}", row=i)
        return value

    def indicator(token, i, column):
        value = number(token, i, column)
        if value not in (0.0, 1.0):
            raise ParseError(f"row {i}: column '{column}' must be 0 or 1, got {token.strip()!r}",
                             row=i)
        return int(value)

    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyDatasetError("no data rows")
    at = {name: j for j, name in enumerate(header)}
    names = [name for name in header if name not in ("cost", "time", "event", "treat")]
    width = len(header)
    cost, time, event, treat, covs = [], [], [], [], []
    for i, row in enumerate(rows, start=1):
        if len(row) < width:
            raise ParseError(f"row {i}: expected at least {width} columns, got {len(row)}", row=i)
        c = number(row[at["cost"]], i, "cost")
        if c < 0:
            raise ParseError(f"row {i}: column 'cost' must be nonnegative", row=i)
        t = number(row[at["time"]], i, "time")
        if t <= 0:
            raise ParseError(f"row {i}: column 'time' must be positive", row=i)
        cost.append(c)
        time.append(t)
        event.append(indicator(row[at["event"]], i, "event"))
        treat.append(indicator(row[at["treat"]], i, "treat"))
        covs.append([number(row[at[name]], i, name) for name in names])
    return (np.array(cost), np.array(time), np.array(event, dtype=bool), np.array(treat),
            np.array(covs, dtype=np.float64).reshape(len(rows), len(names)))


def _assert_same_bits(dataset, expected):
    actual = (dataset.cost, dataset.time, dataset.uncensored, dataset.treatment,
              dataset.covariates)
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(_valid_table())
def test_column_parse_equals_per_cell_float(tmp_path, table):
    header, rows = table
    dataset = load_dataset(_write_table(tmp_path / "valid.csv", header, rows))
    assert dataset.covariate_names == tuple(h for h in header if h.startswith("z"))
    _assert_same_bits(dataset, _row_by_row_reference(header, rows))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(_corrupted_table())
def test_column_parse_names_the_cell_the_row_reader_named(tmp_path, table):
    header, rows = table
    path = _write_table(tmp_path / "corrupt.csv", header, rows)
    try:
        expected = _row_by_row_reference(header, rows)
    except EmptyDatasetError:
        with pytest.raises(EmptyDatasetError):
            load_dataset(path)
    except ParseError as error:
        with pytest.raises(ParseError) as raised:
            load_dataset(path)
        assert (str(raised.value), raised.value.row) == (str(error), error.row)
    else:
        _assert_same_bits(load_dataset(path), expected)


@pytest.mark.parametrize("column", ["treatment", "uncensored"])
@pytest.mark.parametrize("code", [0.5, 1.7, np.nan])
def test_codes_other_than_0_and_1_are_rejected_not_truncated(column, code):
    columns = {"treatment": np.array([0.0, 1.0, 0.0]), "uncensored": np.array([1.0, 0.0, 1.0])}
    columns[column][1] = code
    with pytest.raises(ValueError, match=f"{column} must be coded 0/1"):
        CostDataset(cost=np.ones(3), time=np.ones(3), covariates=np.zeros((3, 1)),
                    covariate_names=("z1",), **columns)


def test_exact_codes_keep_their_dtypes():
    ds = CostDataset(cost=np.ones(3), time=np.ones(3), uncensored=[1.0, 0.0, 1.0],
                     treatment=[True, False, True], covariates=np.zeros((3, 1)),
                     covariate_names=("z1",))
    assert ds.treatment.dtype == np.int64 and ds.treatment.tolist() == [1, 0, 1]
    assert ds.uncensored.dtype == bool and ds.uncensored.tolist() == [True, False, True]
