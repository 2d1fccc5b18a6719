"""SteadyTable: the columnar form of steady records, and its read-only list contract."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceilprop import (
    Environment,
    RawSampleStream,
    SteadyRecord,
    SteadyTable,
    fit_eta_gamma,
    flight_coefficient_points,
    identify_motor,
    read_steady_csv,
    steady_state_extract,
    synthesize_dataset,
    write_steady_csv,
)

FIELDS = [f.name for f in dataclasses.fields(SteadyRecord) if f.init]
FLOAT_FIELDS = ("radius", "spacing", "distance", "voltage", "current", "thrust", "omega")
# for each checked field, values SteadyRecord rejects
BAD_VALUES = {
    "distance": [0.0, -1.0, math.nan, math.inf],
    "radius": [0.0, -0.5, math.nan, -math.inf],
    "spacing": [math.nan, -math.inf],
    "voltage": [math.nan, math.inf, -math.inf],
    "current": [math.nan, -math.inf],
    "thrust": [-1e-6, math.nan, math.inf],
    "torque": [math.nan, math.inf, -math.inf],
    "omega": [0.0, -2000.0, math.nan, math.inf],
    "prop_count": [0, -3, math.nan, math.inf, 2.5, 2**53 + 1],
}

# a value of a type its field does not take, an int beyond float range or beyond str()'s digit limit, and a
# spacing that is not finite: each is named by its field, and shown by repr or, a long int, by its size
WRONG_TYPED = [
    *(
        pytest.param(field, value, id=f"{field}-{name}")
        for field in FIELDS
        for name, value in (("str", "3.0"), ("bytes", b"3"), ("10**400", 10**400))
        if not (field in ("config_id", "setpoint") and name == "str")
    ),
    *(pytest.param("spacing", value, id=f"spacing-{value}") for value in (math.nan, math.inf, None, "abc")),
    *(pytest.param(field, 10**5000, id=f"{field}-10**5000") for field in ("prop_count", "config_id", "setpoint")),
]


@pytest.fixture
def table(geom_23mm, single_prop_ceiling, bench_motor, env):
    return synthesize_dataset(
        geom_23mm, single_prop_ceiling, bench_motor,
        distances=[0.002, 0.005, 0.01, 0.05, 1.0], setpoints=np.linspace(800.0, 3000.0, 4),
        env=env, noise=0.01, seed=3,
    )


def first_record_error(rows):
    for row in rows:
        try:
            SteadyRecord(*row)
        except ValueError as exc:
            return str(exc)
    return None


@st.composite
def corrupted_columns(draw):
    n = draw(st.integers(1, 6))
    positive = st.floats(1e-3, 1e3)
    rows = [
        [
            draw(st.sampled_from(["a", "bb", ""])), draw(positive), draw(st.integers(1, 4)), draw(st.floats(-1.0, 1.0)),
            draw(positive), draw(st.sampled_from(["s0", "s1"])), draw(st.floats(-10.0, 10.0)),
            draw(st.floats(-10.0, 10.0)), draw(st.floats(0.0, 1.0)), draw(st.none() | st.floats(0.0, 1.0)),
            draw(positive),
        ]
        for _ in range(n)
    ]
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(BAD_VALUES)))
        rows[draw(st.integers(0, n - 1))][FIELDS.index(name)] = draw(st.sampled_from(BAD_VALUES[name]))
    return rows, draw(st.booleans())


class TestValidation:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(corrupted_columns())
    def test_same_error_as_first_bad_record(self, case):
        rows, as_arrays = case
        columns = [list(column) for column in zip(*rows)]
        if as_arrays:  # the number columns as arrays where they hold no None
            columns = [
                np.array(c) if name != "config_id" and name != "setpoint" and None not in c else c
                for name, c in zip(FIELDS, columns)
            ]
        expected = first_record_error(rows)
        assert expected is not None
        with pytest.raises(ValueError) as raised:
            SteadyTable(*columns)
        assert str(raised.value) == expected

    def test_unmeasured_torque_passes(self):
        table = SteadyTable(["c"], [0.023], [1], [0.0], [0.01], ["s"], [3.0], [1.0], [0.05], [None], [2000.0])
        assert np.isnan(table.torque).all() and table[0].torque is None

    @pytest.mark.parametrize("count", [1, 7, 2.0, np.int64(3), np.float64(4.0), 1e300, 2**53])
    def test_accepted_prop_count_reads_back(self, table, tmp_path, count):
        # a count the table accepts is written as a cell its reader accepts
        records = list(table[:2])
        records[1] = dataclasses.replace(records[1], prop_count=count)
        write_steady_csv(SteadyTable.of(records), tmp_path / "steady.csv")
        back = read_steady_csv(tmp_path / "steady.csv")
        assert back == records and back[1].prop_count == count and type(back[1].prop_count) is int

    @pytest.mark.parametrize("count", [
        2**53 + 1, np.int64(2**53 + 1), "2", "2.0", pytest.param(10**400, id="10**400"),
        pytest.param(-(10**400), id="-10**400"),
    ])
    def test_prop_count_that_would_not_read_back_rejected(self, count):
        # an int its float rounds reads back rounded, and a str is written as given
        row = ["c", 0.023, count, 0.0, 0.01, "s", 3.0, 1.0, 0.05, None, 2000.0]
        with pytest.raises(ValueError, match="prop_count must be an integer >= 1"):
            SteadyRecord(*row)
        with pytest.raises(ValueError, match="prop_count must be an integer >= 1"):
            SteadyTable(*([value] for value in row))

    @pytest.mark.parametrize("field, value", [(name, value) for name, values in BAD_VALUES.items() for value in values])
    def test_every_bad_value_gives_the_records_error(self, field, value):
        # the property need not draw every value, so each one is tried in the last of 3 rows
        rows = [["c", 0.023, 1, 0.0, 0.01, f"s{i}", 3.0, 1.0, 0.05, 1e-4, 2000.0] for i in range(3)]
        rows[2][FIELDS.index(field)] = value
        expected = first_record_error(rows)
        assert expected is not None
        with pytest.raises(ValueError) as raised:
            SteadyTable(*(list(column) for column in zip(*rows)))
        assert str(raised.value) == expected

    @pytest.mark.parametrize("field", ["config_id", "setpoint"])
    @pytest.mark.parametrize("label", [5, 7.0, None])
    def test_label_that_is_not_a_str_rejected(self, field, label):
        # a label is written as str(label), so only a str reads back as written
        row = ["c", 0.023, 1, 0.0, 0.01, "s", 3.0, 1.0, 0.05, None, 2000.0]
        row[FIELDS.index(field)] = label
        message = f"{field} must be a str, got {label}"
        with pytest.raises(ValueError) as raised:
            SteadyRecord(*row)
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            SteadyTable(*([value] for value in row))
        assert str(raised.value) == message

    @pytest.mark.parametrize("field, value", WRONG_TYPED)
    def test_wrong_typed_value_named_by_its_field(self, field, value):
        # one reading for every field: no TypeError, OverflowError or digit-limit ValueError escapes
        row = ["c", 0.023, 1, 0.0, 0.01, "s", 3.0, 1.0, 0.05, None, 2000.0]
        row[FIELDS.index(field)] = value
        with pytest.raises(ValueError) as record_error:
            SteadyRecord(*row)
        with pytest.raises(ValueError) as table_error:
            SteadyTable(*([cell] for cell in row))
        message = str(record_error.value)
        assert message == str(table_error.value) and message.startswith(f"{field} must be ")
        shown = f"an int of {value.bit_length()} bits" if value == 10**5000 else repr(value)
        assert message.endswith(f", got {shown}")

    def test_label_judged_after_the_numbers_of_its_row(self):
        good = ["c", 0.023, 1, 0.0, 0.01, "s", 3.0, 1.0, 0.05, None, 2000.0]
        bad_label = ["c", 0.023, 1, 0.0, 0.01, 5, 3.0, 1.0, 0.05, None, 2000.0]
        both = ["c", 0.023, 1, 0.0, 0.01, 5, 3.0, 1.0, 0.05, None, 0.0]
        cases = (([both], "omega must be positive, got 0.0"), ([bad_label, both], "setpoint must be a str, got 5"))
        for rows, message in cases:
            with pytest.raises(ValueError) as raised:
                SteadyTable(*(list(column) for column in zip(good, *rows)))
            assert str(raised.value) == message

    def test_columns_of_different_length_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            SteadyTable(["c"], [0.023], [1], [0.0], [0.01], ["s"], [3.0], [1.0], [0.05], [None], [2000.0, 1.0])


class TestSequenceContract:
    def test_of_transposes_records_and_passes_a_table(self, table):
        assert SteadyTable.of(table) is table
        again = SteadyTable.of(list(table))
        assert isinstance(again, SteadyTable) and again == table
        assert SteadyTable.of(iter(table)) == table

    def test_len_iteration_and_negative_index(self, table):
        rows = list(table)
        assert len(table) == len(rows) == 20
        assert table[-1] == rows[-1] and table[7] == rows[7]
        with pytest.raises(IndexError):
            table[20]

    def test_slices_are_tables_and_copies(self, table):
        rows = list(table)
        for part, want in ((table[3:9], rows[3:9]), (table[::3], rows[::3]), (table[-4:], rows[-4:])):
            assert isinstance(part, SteadyTable) and part == want
        for part in (table[:2], table[::3]):
            assert not any(map(np.shares_memory, part.columns.values(), table.columns.values()))

    def test_equality_and_repr_are_a_lists(self, table):
        rows = list(table)
        assert table == rows and rows == table and not table != rows
        assert table != rows[:-1] and table != table[1:]
        assert SteadyTable.of([]) == [] and table[:0] == [] and len(table[:0]) == 0
        assert repr(table[:2]) == repr(rows[:2])
        assert table.__eq__(5) is NotImplemented

    def test_rows_are_neither_written_nor_joined(self, table):
        rows = list(table)
        with pytest.raises(TypeError):
            table[0] = table[0]
        with pytest.raises(TypeError):
            table + table
        with pytest.raises(TypeError):
            table + rows
        with pytest.raises(TypeError):
            rows + table


def assert_plain_fields(records):
    for record in records:
        for name in FLOAT_FIELDS:
            assert type(getattr(record, name)) is float, name
        assert type(record.prop_count) is int and type(record.delta) is float
        assert type(record.config_id) is str and type(record.setpoint) is str
        assert record.torque is None or type(record.torque) is float
        assert "np." not in repr(record)


def raw_stream(table, distance):
    # each setpoint of table at distance held for 3 s at 200 Hz, with a small ripple
    rows = [r for r in table if r.distance == distance]
    n = 600
    ripple = 1.0 + 1e-4 * np.sin(np.arange(n))
    channels = {
        name: np.concatenate([np.full(n, getattr(r, name)) * ripple for r in rows])
        for name in ("voltage", "current", "thrust", "torque", "omega")
    }
    return RawSampleStream(
        time=np.arange(n * len(rows)) / 200.0,
        setpoint=np.repeat([r.setpoint for r in rows], n),
        radius=rows[0].radius,
        distance=distance,
        config_id=rows[0].config_id,
        **channels,
    )


class TestProducers:
    @pytest.fixture
    def tables(self, table, tmp_path):
        # one table from each producer: synth, the steady reader with and without torque, and the extractor
        path, blank = tmp_path / "steady.csv", tmp_path / "torqueless.csv"
        write_steady_csv(table, path)
        write_steady_csv([dataclasses.replace(r, torque=None) for r in table], blank)
        extracted = SteadyTable.of(
            [r for distance in np.unique(table.distance).tolist() for r in steady_state_extract(raw_stream(table, distance))]
        )
        read, torqueless = read_steady_csv(path), read_steady_csv(blank)
        return {"synth": table, "read": read, "read-torqueless": torqueless, "extract": extracted}

    def test_every_producer_gives_a_table_of_plain_records(self, tables):
        for name, produced in tables.items():
            assert isinstance(produced, SteadyTable), name
            assert len(produced) == 20, name
            assert_plain_fields(produced)
            assert produced[3] == list(produced)[3]
        assert tables["read"] == tables["synth"]

    def test_fits_are_bit_identical_given_a_table_or_its_records(self, tables, bench_motor):
        env = Environment(air_density=1.2)
        for name, produced in tables.items():
            rows = list(produced)
            eta_gamma = fit_eta_gamma(produced, env, bench_motor)  # the motor is used only where torque is missing
            assert repr(eta_gamma) == repr(fit_eta_gamma(rows, env, bench_motor)), name
            assert repr(flight_coefficient_points(produced)) == repr(flight_coefficient_points(rows)), name
            if name != "read-torqueless":
                assert repr(identify_motor(produced)) == repr(identify_motor(rows)), name

    def test_torqueless_table_writes_empty_cells(self, tables, tmp_path):
        path, from_rows = tmp_path / "table.csv", tmp_path / "rows.csv"
        write_steady_csv(tables["read-torqueless"], path)
        write_steady_csv(list(tables["read-torqueless"]), from_rows)
        text = path.read_text()
        assert path.read_bytes() == from_rows.read_bytes()
        assert "nan" not in text and all(line.split(",")[9] == "" for line in text.splitlines()[1:])
