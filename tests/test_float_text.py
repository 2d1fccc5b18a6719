"""The float-cell kernel writes repr's text for every float64: finite,
subnormal, +-0, nan and +-inf, and the table writer built on it writes the
bytes the repr writer wrote."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceilprop._shortest import float_text
from ceilprop.io import FLOAT, FLOAT_OR_EMPTY, INT, TEXT, _write_table

from _helpers import repr_table

POWERS_OF_TWO = [math.ldexp(1.0, i) for i in range(-1074, 1024)]
POWERS_OF_TEN = [float(f"1e{i}") for i in range(-323, 309)]
EDGES = [
    5e-324, 1e-323, 1.5e-323, 1e23, 9007199254740993.0, 1e16, 9999999999999998.0, 1e-4, 1e-5,
    2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308, 0.1, 0.3, 2 / 3, 1.0, 123.0,
    1e15, 1e17, 123456789012345678.0, 0.001, 0.00012345, 12345678.9, 0.5, 100.0, 0.0, -0.0,
    math.nan, -math.nan, math.inf, -math.inf,
]


def reprs(values):
    return [repr(v) for v in values]


def text(values):
    (cells,) = float_text([values], [False])
    return cells


def with_neighbours(values):
    values = np.array(values)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


def from_bits(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


@pytest.mark.parametrize(
    "values",
    [EDGES, [-v for v in EDGES], with_neighbours(POWERS_OF_TWO), with_neighbours(POWERS_OF_TEN)],
    ids=["edges", "negated edges", "powers of two", "powers of ten"],
)
def test_edge_values_are_repr(values):
    values = np.asarray(values, dtype=float).tolist()
    assert text(values) == reprs(values)


def test_subnormals_and_grids_are_repr():
    values = np.concatenate([
        np.arange(20000) * 5e-324,
        np.linspace(0.0, 25.0, 10001),
        np.geomspace(1e-6, 1e6, 10001),
        np.arange(-1000.0, 1000.0),
    ]).tolist()
    assert text(values) == reprs(values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(from_bits)), min_size=1, max_size=64))
def test_any_float_is_repr(values):
    assert text(values) == reprs(values)


def test_rows_and_empty_nan():
    # one row per column of a table; nan is "" only where its row says so
    rows = [[1.0, math.nan, -math.inf], [math.nan, 2.5, math.inf], [-0.0, math.nan, 1e300]]
    assert float_text(rows, [True, False, True]) == [
        ["1.0", "", "-inf"], ["nan", "2.5", "inf"], ["-0.0", "", "1e+300"],
    ]
    assert float_text(np.empty((2, 0)), [False, True]) == [[], []]


def test_float_or_empty_column_written_empty(tmp_path):
    spec = {"a": FLOAT, "b": FLOAT_OR_EMPTY}
    columns = [[0.1, math.nan, 3.0], [None, math.nan, 2e-7]]
    _write_table(tmp_path / "t.csv", spec, columns)
    assert (tmp_path / "t.csv").read_text() == "a,b\n0.1,\nnan,\n3.0,2e-07\n"


def test_table_matches_repr_writer(tmp_path):
    # 10k rows cross the writer's 4096-row blocks and the kernel's chunks
    rng = np.random.default_rng(7)
    n = 10_000
    raw = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    empty = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, size=n)
    empty[rng.random(n) < 0.2] = math.nan
    spec = {"label": TEXT, "count": INT, "raw": FLOAT, "maybe": FLOAT_OR_EMPTY, "grid": FLOAT, "rounded": FLOAT}
    columns = [
        [f"s{i % 7},x" if i % 5 == 0 else f"s{i % 7}" for i in range(n)],
        list(range(n)),
        raw,
        [None if i % 11 == 0 else v for i, v in enumerate(empty.tolist())],
        np.linspace(0.0, 25.0, n),
        np.round(rng.normal(size=n) * 1000, 3),
    ]
    _write_table(tmp_path / "t.csv", spec, columns)
    assert (tmp_path / "t.csv").read_text() == repr_table(spec, columns)
