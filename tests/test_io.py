import csv
import gzip
import io
import json
import os
import re
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ceilprop import (
    CeilingParams,
    DataFormatError,
    GammaPoint,
    MotorParams,
    ParamSet,
    PropellerGeometry,
    RawSampleStream,
    SteadyRecord,
    read_gamma_csv,
    read_params,
    read_raw_csv,
    read_steady_csv,
    steady_state_extract,
    synthesize_dataset,
    write_gamma_csv,
    write_params,
    write_steady_csv,
)
import ceilprop.io
from ceilprop.io import GAMMA_COLUMNS, STEADY_COLUMNS, _moving_stats

from _helpers import CHANNELS, extract_oracle, window_ratios

DATA = Path(__file__).resolve().parent.parent / "data"
RAW_HEADER = "time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s"
STEADY_ROW = "c,0.023,1,0.0,0.01,s0,3.0,1.0,0.05,1e-4,2000.0"

# few, fixed examples keep the suite fast and repeatable
PROPERTY = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
TEXT_CELLS = st.text(alphabet=st.sampled_from('az9 ,;"\'\n\ré'), max_size=6)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# floats whose text is easy to get wrong: signed zeros, subnormals, and the
# magnitudes where repr switches between positional and exponent form
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 1e16, -1e16, 1e-7, 9999999999999998.0, 1e-5])


def steady_reference(records) -> bytes:
    """The bytes of a steady table as csv.writer writes it with CRLF rows,
    each row's CRLF turned into LF: floats as repr, None as an empty cell."""
    out = []
    for r in [None, *records]:
        row = STEADY_COLUMNS if r is None else [
            r.config_id, repr(float(r.radius)), r.prop_count, repr(float(r.spacing)), repr(float(r.distance)),
            r.setpoint, repr(float(r.voltage)), repr(float(r.current)), repr(float(r.thrust)),
            "" if r.torque is None else repr(float(r.torque)), repr(float(r.omega)),
        ]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        out.append(buf.getvalue()[:-2] + "\n")
    return "".join(out).encode("utf-8")


def raw_lines(n=2500):
    return [RAW_HEADER] + [f"{i / 1000.0},a,3.0,1.0,0.05,0.0001,2000.0" for i in range(n)]


@pytest.fixture
def thousand_records(geom_23mm, single_prop_ceiling, bench_motor, env):
    return synthesize_dataset(
        geom_23mm,
        single_prop_ceiling,
        bench_motor,
        distances=np.geomspace(0.001, 0.1, 63),
        setpoints=np.linspace(800.0, 3000.0, 16),
        env=env,
        noise=0.02,
        seed=5,
    )


class TestSteadyCsv:
    def test_round_trip_equality(self, tmp_path, thousand_records):
        path = tmp_path / "records.csv"
        write_steady_csv(thousand_records, path)
        back = read_steady_csv(path)
        assert len(back) == len(thousand_records) == 1008
        assert back == thousand_records

    def test_none_torque_round_trips(self, tmp_path):
        rec = SteadyRecord("c", 0.023, 4, 0.092, 0.01, "s0", 3.0, 1.0, 0.05, None, 2000.0)
        path = tmp_path / "records.csv"
        write_steady_csv([rec], path)
        assert read_steady_csv(path) == [rec]

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "records.csv"
        write_steady_csv([], path)
        assert read_steady_csv(path) == []

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        cols = [c for c in STEADY_COLUMNS if c != "distance_m"]
        path.write_text(",".join(cols) + "\n")
        with pytest.raises(DataFormatError, match="missing column: distance_m"):
            read_steady_csv(path)

    def test_unexpected_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(STEADY_COLUMNS + ("bogus",)) + "\n")
        with pytest.raises(DataFormatError, match="unexpected column: bogus"):
            read_steady_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = "c,0.023,1,0.0,0.01,s0,3.0,abc,0.05,1e-4,2000.0"
        path.write_text(",".join(STEADY_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(DataFormatError, match="row 2, column current_a"):
            read_steady_csv(path)

    def test_nonpositive_distance_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = "c,0.023,1,0.0,-0.01,s0,3.0,1.0,0.05,1e-4,2000.0"
        path.write_text(",".join(STEADY_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(DataFormatError, match="column distance_m: must be positive"):
            read_steady_csv(path)

    def test_nan_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["c,0.023,1,0.0,0.01,s0,3.0,1.0,0.05,1e-4,2000.0", "c,0.023,1,0.0,0.01,s1,nan,1.0,0.05,1e-4,2000.0"]
        path.write_text(",".join(STEADY_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match="row 3: voltage must be finite"):
            read_steady_csv(path)

    def test_fractional_prop_count_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = "c,0.023,1.7,0.0,0.01,s0,3.0,1.0,0.05,1e-4,2000.0"
        path.write_text(",".join(STEADY_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(DataFormatError, match="row 2, column prop_count: expected an integer"):
            read_steady_csv(path)

    def test_blank_rows_skipped_but_counted(self, tmp_path):
        path = tmp_path / "bad.csv"
        bad = STEADY_ROW.replace("3.0", "abc")
        path.write_text(",".join(STEADY_COLUMNS) + f"\n\n{STEADY_ROW}\n\n{STEADY_ROW}\n{bad}\n")
        with pytest.raises(DataFormatError, match="row 6, column voltage_v: could not parse 'abc'"):
            read_steady_csv(path)
        path.write_text(",".join(STEADY_COLUMNS) + f"\n\n{STEADY_ROW}\n\n")
        assert len(read_steady_csv(path)) == 1

    def test_first_bad_cell_in_file_order_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [STEADY_ROW, STEADY_ROW.replace("2000.0", "x"), STEADY_ROW.replace("0.023", "y")]
        path.write_text(",".join(STEADY_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match="row 3, column omega_rad_s: could not parse 'x'"):
            read_steady_csv(path)

    @pytest.mark.parametrize(
        "bad, message",
        [
            # (file row, old cell, new cell) of each fault; the first bad row is named
            ([(2, "0.01", "0.0"), (4, "3.0", "x")], "row 2, column distance_m: must be positive"),
            ([(2, "0.05", "-0.05"), (3, "0.01", "0.0")], "row 2: thrust must be >= 0"),
            ([(2, "3.0", "x"), (3, "0.01", "0.0")], "row 2, column voltage_v: could not parse 'x'"),
            ([(3, "0.01", "0.0"), (3, "3.0", "x")], "row 3, column voltage_v: could not parse 'x'"),
            ([(3, "0.01", "0.0"), (3, "0.05", "-0.05")], "row 3, column distance_m: must be positive"),
            ([(3, "0.01", "0.0"), (5, ",1.0,0.05,1e-4,2000.0", "")], "row 3, column distance_m: must be positive"),
            ([(3, "0.01", "0.0"), (5, "2000.0", "2000.0,9")], "row 3, column distance_m: must be positive"),
        ],
    )
    def test_first_bad_row_named_whatever_its_fault(self, tmp_path, bad, message):
        rows = [STEADY_ROW] * 4
        for row, old, new in bad:
            rows[row - 2] = rows[row - 2].replace(old, new, 1)
        path = tmp_path / "bad.csv"
        path.write_text(",".join(STEADY_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=message):
            read_steady_csv(path)

    @PROPERTY
    @given(
        st.lists(
            st.builds(
                SteadyRecord,
                config_id=TEXT_CELLS, radius=POSITIVE, prop_count=st.integers(1, 10**6), spacing=FINITE,
                distance=POSITIVE, setpoint=TEXT_CELLS, voltage=FINITE, current=FINITE,
                thrust=st.floats(min_value=0.0, allow_infinity=False), torque=st.none() | FINITE, omega=POSITIVE,
            ),
            max_size=4,
        )
    )
    @example([SteadyRecord('a,"b"', 0.023, 2, -0.0, 0.01, "", -0.0, -0.0, 0.0, None, 5e-324)])
    def test_round_trip_property(self, tmp_path, records):
        path = tmp_path / "records.csv"
        write_steady_csv(records, path)
        back = read_steady_csv(path)
        assert repr(back) == repr(records)  # repr also tells -0.0 from 0.0

    @PROPERTY
    @given(
        st.lists(
            st.builds(
                SteadyRecord,
                config_id=st.text(alphabet=st.sampled_from('a ,"\r\néΩ'), max_size=6), radius=POSITIVE,
                prop_count=st.integers(1, 10**6), spacing=FINITE | EDGE_FLOATS, distance=POSITIVE,
                setpoint=st.text(alphabet=st.sampled_from('b ,"\r\n\u2028ü'), max_size=6),
                voltage=FINITE | EDGE_FLOATS, current=EDGE_FLOATS, thrust=EDGE_FLOATS.map(abs),
                torque=st.none() | EDGE_FLOATS | FINITE, omega=POSITIVE | EDGE_FLOATS.filter(lambda v: v > 0),
            ),
            max_size=6,
        )
    )
    @example([SteadyRecord('"', 1e16, 3, -0.0, 1e-7, "a\rb", 5e-324, -5e-324, 0.0, None, 1.5e-310)])
    def test_written_bytes_equal_csv_writer(self, tmp_path, records):
        path = tmp_path / "records.csv"
        write_steady_csv(records, path)
        assert path.read_bytes() == steady_reference(records)

    def test_blocks_join_into_one_table(self, tmp_path, monkeypatch, thousand_records):
        path = tmp_path / "records.csv"
        monkeypatch.setattr(ceilprop.io, "_BLOCK", 7)  # 1008 rows: 144 blocks
        write_steady_csv(thousand_records, path)
        assert path.read_bytes() == steady_reference(thousand_records)

    @pytest.mark.parametrize("line", [1, 2, 3000])
    def test_not_utf8_names_line(self, tmp_path, line):
        # the decoder fails on a whole chunk of the file, so line 3000 lies
        # past the first chunk and line 2 within it
        lines = [",".join(STEADY_COLUMNS)] + [STEADY_ROW.replace("s0", f"s{i}") for i in range(3000)]
        lines[line - 1] = lines[line - 1].replace("c", "c\udcff", 1)
        path = tmp_path / "steady.csv"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: line {line}: not UTF-8: byte 0xff$"):
            read_steady_csv(path)

    @pytest.mark.parametrize(
        "line, old, new, message",
        [
            (2, ",1.0,0.05,1e-4,2000.0", "", "row 2: expected 11 cells, got 7"),
            (40, "0.01", "0.0", "row 40, column distance_m: must be positive"),
            (52, "3.0", "x", "row 52, column voltage_v: could not parse 'x'"),
            (1, ",distance_m", "", "missing column: distance_m"),
            (2, "", "", "line 53: not UTF-8: byte 0xff"),
        ],
        ids=["short-row", "bad-value", "bad-cell", "bad-header", "byte-only"],
    )
    def test_not_utf8_named_after_the_rows_above_it(self, tmp_path, line, old, new, message):
        # the decoder rejects the whole chunk that holds line 53, with the rows above it
        lines = [",".join(STEADY_COLUMNS)] + [STEADY_ROW.replace("s0", f"s{i}") for i in range(60)]
        lines[line - 1] = lines[line - 1].replace(old, new, 1)
        lines[52] = lines[52].replace("c", "c\udcff", 1)
        path = tmp_path / "steady.csv"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            read_steady_csv(path)

    @pytest.mark.parametrize("line", [1, 2, 3000])
    def test_not_utf8_names_crlf_line(self, tmp_path, line):
        # a CRLF ends one line, as an LF does
        lines = [",".join(STEADY_COLUMNS)] + [STEADY_ROW.replace("s0", f"s{i}") for i in range(3000)]
        lines[line - 1] = lines[line - 1].replace("c", "c\udcff", 1)
        path = tmp_path / "steady.csv"
        path.write_bytes("\r\n".join(lines).encode("utf-8", "surrogateescape") + b"\r\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: line {line}: not UTF-8: byte 0xff$"):
            read_steady_csv(path)

    def test_not_utf8_in_a_quoted_cell_names_its_line(self, tmp_path):
        # row 2's setpoint spans lines 2 and 3, and the bad byte lies on line 3
        path = tmp_path / "steady.csv"
        row = STEADY_ROW.replace("s0", '"s\n0\udcff"')
        path.write_bytes(f"{','.join(STEADY_COLUMNS)}\n{row}\n".encode("utf-8", "surrogateescape"))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: line 3: not UTF-8: byte 0xff$"):
            read_steady_csv(path)

    @pytest.mark.parametrize("line", [1, 2, 3000])
    def test_quoted_cell_not_closed_names_its_row(self, tmp_path, line):
        # more than the csv module's 128-KiB cell limit follows the quote: at the
        # header, at the first row (read alone before the C path), and in the body
        lines = [",".join(STEADY_COLUMNS)] + [STEADY_ROW.replace("s0", f"s{i}") for i in range(8000)]
        lines[line - 1] = '"' + lines[line - 1]
        assert len("\n".join(lines[line - 1 :])) > csv.field_size_limit()
        path = tmp_path / "steady.csv"
        path.write_text("\n".join(lines) + "\n")
        message = f"row {line}: quoted cell not closed, or a cell over {csv.field_size_limit()} characters"
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            read_steady_csv(path)

    @pytest.mark.parametrize("torque", ["\x1c1e-4", "1e-4\x1f"])
    def test_cell_with_separator_byte_named(self, tmp_path, torque):
        # str.strip() removes \x1c-\x1f but float() rejects them
        path = tmp_path / "bad.csv"
        path.write_text(",".join(STEADY_COLUMNS) + "\n" + STEADY_ROW.replace("1e-4", torque) + "\n")
        with pytest.raises(DataFormatError, match="row 2, column torque_nm: could not parse"):
            read_steady_csv(path)


class TestGammaCsv:
    def test_round_trip(self, tmp_path):
        points = [GammaPoint(0.23, 1.0, 0.01, 16), GammaPoint(23.0, 3.9641, 0.05, 16)]
        path = tmp_path / "gamma.csv"
        write_gamma_csv(points, path)
        assert read_gamma_csv(path) == points

    def test_missing_column(self, tmp_path):
        path = tmp_path / "gamma.csv"
        path.write_text("delta,gamma,stderr\n")
        with pytest.raises(DataFormatError, match="missing column: n_points"):
            read_gamma_csv(path)

    def test_fractional_n_points_names_row_and_column(self, tmp_path):
        path = tmp_path / "gamma.csv"
        path.write_text("delta,gamma,stderr,n_points\n0.23,1.0,0.01,16\n0.5,1.1,0.01,1.7\n")
        with pytest.raises(DataFormatError, match="row 3, column n_points: expected an integer"):
            read_gamma_csv(path)

    @pytest.mark.parametrize("column", ["delta", "gamma", "stderr"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_row(self, tmp_path, column, value):
        cells = {"delta": "0.5", "gamma": "1.1", "stderr": "0.01", "n_points": "16"}
        cells[column] = value
        path = tmp_path / "gamma.csv"
        path.write_text("delta,gamma,stderr,n_points\n0.23,1.0,0.01,16\n" + ",".join(cells.values()) + "\n")
        with pytest.raises(DataFormatError, match=f"row 3: {column} must be finite"):
            read_gamma_csv(path)

    @pytest.mark.parametrize("count", [0, 1])
    def test_too_few_points_names_row(self, tmp_path, count):
        path = tmp_path / "gamma.csv"
        path.write_text(f"delta,gamma,stderr,n_points\n0.23,1.0,0.01,16\n0.5,1.1,0.01,{count}\n")
        message = f"row 3: n_points must be an integer >= 2 for a slope fit, got {count}$"
        with pytest.raises(DataFormatError, match=message):
            read_gamma_csv(path)

    def test_ceiling_factor_named_before_n_points_of_its_row(self, tmp_path):
        path = tmp_path / "gamma.csv"
        path.write_text("delta,gamma,stderr,n_points\n0.23,-1.0,0.01,1\n")
        with pytest.raises(DataFormatError, match="row 2: ceiling factor must be positive, got -1.0$"):
            read_gamma_csv(path)

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "gamma.csv"
        write_gamma_csv([GammaPoint(0.23, 1.0, 0.01, 16)], path)
        before = path.read_bytes()

        def points():
            yield GammaPoint(0.5, 1.1, 0.01, 16)
            raise RuntimeError("acquisition stopped")

        with pytest.raises(RuntimeError):
            write_gamma_csv(points(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["gamma.csv"]

    def test_first_bad_row_named_whatever_its_fault(self, tmp_path):
        path = tmp_path / "gamma.csv"
        path.write_text("delta,gamma,stderr,n_points\n0.23,1.0,0.01,16\n0.5,-1.1,0.01,16\n1.0,x,0.01,16\n")
        with pytest.raises(DataFormatError, match="row 3: ceiling factor must be positive"):
            read_gamma_csv(path)

    @pytest.mark.parametrize("bad", ["1.0,1.1", "1.0,1.1,0.01,16,9"], ids=["short", "long"])
    def test_bad_value_named_before_a_later_cell_count(self, tmp_path, bad):
        path = tmp_path / "gamma.csv"
        path.write_text(f"delta,gamma,stderr,n_points\n0.23,-1.0,0.01,16\n0.5,1.1,0.01,16\n{bad}\n")
        with pytest.raises(DataFormatError, match="row 2: ceiling factor must be positive, got -1.0$"):
            read_gamma_csv(path)

    def test_symlink_target_written_link_kept(self, tmp_path):
        target = tmp_path / "gamma.csv"
        target.write_text("old\n")
        link = tmp_path / "latest.csv"
        link.symlink_to(target)
        write_gamma_csv([GammaPoint(0.23, 1.0, 0.01, 16)], link)
        assert link.is_symlink()
        assert target.read_bytes() == b"delta,gamma,stderr,n_points\n0.23,1.0,0.01,16\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gamma.csv", "latest.csv"]

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "gamma.csv"
        write_gamma_csv([GammaPoint(0.23, 1.0, 0.01, 16)], path)
        os.chmod(path, 0o640)
        write_gamma_csv([GammaPoint(0.5, 1.1, 0.01, 16)], path)
        assert os.stat(path).st_mode & 0o777 == 0o640
        assert read_gamma_csv(path) == [GammaPoint(0.5, 1.1, 0.01, 16)]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_target_written_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        fd = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_gamma_csv([GammaPoint(0.23, 1.0, 0.01, 16)], pipe)
            assert os.read(fd, 4096) == b"delta,gamma,stderr,n_points\n0.23,1.0,0.01,16\n"
        finally:
            os.close(fd)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_not_utf8_named(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        body = b"delta,gamma,stderr,n_points\n0.23,1.0,0.01,16\xff\n"
        writer = threading.Thread(target=pipe.write_bytes, args=(body,), daemon=True)
        writer.start()
        try:
            with pytest.raises(DataFormatError, match=f"^{re.escape(str(pipe))}: line 2: not UTF-8: byte 0xff$"):
                read_gamma_csv(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    @PROPERTY
    @given(
        st.lists(
            st.builds(
                GammaPoint, delta=FINITE, gamma=POSITIVE, stderr=FINITE, n_points=st.integers(2, 10**6)
            ),
            max_size=4,
        )
    )
    @example([GammaPoint(-0.0, 5e-324, -0.0, 2)])
    def test_round_trip_property(self, tmp_path, points):
        path = tmp_path / "gamma.csv"
        write_gamma_csv(points, path)
        assert repr(read_gamma_csv(path)) == repr(points)


READERS = {
    "steady": (read_steady_csv, ",".join(STEADY_COLUMNS), STEADY_ROW),
    "gamma": (read_gamma_csv, ",".join(GAMMA_COLUMNS), "0.23,1.0,0.01,16"),
    "raw": (lambda path: read_raw_csv(path, radius=0.023, distance=0.01), RAW_HEADER, "0.0,a,3.0,1.0,0.05,1e-4,2000.0"),
}


@pytest.mark.parametrize("reader, header, row", READERS.values(), ids=READERS)
@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_row_cell_count_checked(tmp_path, reader, header, row, extra):
    cells = row.split(",")
    bad = ",".join(cells[:-1] if extra < 0 else cells + ["9"])
    path = tmp_path / "table.csv"
    path.write_text(f"{header}\n{row}\n\n{bad}\n")
    with pytest.raises(DataFormatError, match=f"row 4: expected {len(cells)} cells, got {len(cells) + extra}"):
        reader(path)


# (column index, cell) of each injected fault that keeps the cell count
BAD_CELLS = {
    ("steady", "unparsable"): [(1, "x"), (2, "1.5"), (9, "1e-4x"), (10, "")],
    ("steady", "bad value"): [(4, "0.0"), (1, "-0.023"), (6, "nan"), (8, "-0.05"), (9, "inf"), (10, "0.0"), (2, "0")],
    ("raw", "unparsable"): [(0, "x"), (3, "1.0.0"), (5, "0.0001x"), (6, "")],
    ("raw", "bad value"): [(0, "nan"), (2, "nan"), (3, "inf"), (4, "-inf"), (5, "nan"), (6, "inf")],
}


@st.composite
def faulty_tables(draw):
    """A valid steady or raw table with 1 to 3 of its rows made bad, each by
    a fault of a random kind, and blank rows as noise: (reader name, text,
    file row of the first bad row)."""
    kind = draw(st.sampled_from(["steady", "raw"]))
    n = draw(st.integers(2, 12))
    if kind == "steady":
        header, rows = ",".join(STEADY_COLUMNS), [STEADY_ROW.replace("s0", f"s{i}").split(",") for i in range(n)]
    else:
        header, rows = RAW_HEADER, [f"{i / 1000.0},a,3.0,1.0,0.05,0.0001,2000.0".split(",") for i in range(n)]
    kinds = ["short", "long", "unparsable", "bad value"] + (["not rising"] if kind == "raw" else [])
    bad = draw(
        st.dictionaries(st.integers(0, n - 1), st.sampled_from(kinds), min_size=1, max_size=3).filter(
            lambda bad: bad.get(0) != "not rising"  # the first row has no time before it
        )
    )
    for i, fault in sorted(bad.items()):
        if fault == "short":
            rows[i] = rows[i][:-1]
        elif fault == "long":
            rows[i] = rows[i] + ["9"]
        elif fault == "not rising":
            rows[i][0] = rows[i - 1][0]
        else:
            column, cell = draw(st.sampled_from(BAD_CELLS[kind, fault]))
            rows[i][column] = cell
    blanks = draw(st.lists(st.integers(0, n), max_size=3))  # a blank row before row k, or at the end
    lines = [header]
    for k in range(n + 1):
        lines += [""] * blanks.count(k)
        if k < n:
            lines.append(",".join(rows[k]))
            if k == min(bad):
                first = len(lines)
    return kind, "\n".join(lines) + "\n", first


@settings(PROPERTY, max_examples=200)
@given(faulty_tables())
@example(("steady", ",".join(STEADY_COLUMNS) + f"\n{STEADY_ROW}\n{STEADY_ROW.replace('0.01', '0.0', 1)}\n1,2\n", 3))
@example(("raw", RAW_HEADER + "\n0.0,a,3.0,1.0,0.05,1e-4,2.0\n\n0.0,a,3.0,1.0,0.05,1e-4,2.0\n0.0,a\n", 4))
def test_first_faulty_row_named(tmp_path, table):
    kind, text, first = table
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: row {first}[,:]"):
        READERS[kind][0](path)


def make_stream(time, setpoint, channels, torque=True, **config):
    kwargs = dict(radius=0.023, distance=0.01, config_id="run")
    kwargs.update(config)
    return RawSampleStream(
        time=np.asarray(time, dtype=float),
        setpoint=np.asarray(setpoint),
        voltage=np.asarray(channels["voltage"], dtype=float),
        current=np.asarray(channels["current"], dtype=float),
        thrust=np.asarray(channels["thrust"], dtype=float),
        torque=np.asarray(channels["torque"], dtype=float) if torque else None,
        omega=np.asarray(channels["omega"], dtype=float),
        **kwargs,
    )


def constant_channels(n, voltage=3.0, current=1.0, thrust=0.05, torque=1e-4, omega=2000.0):
    return dict(
        voltage=np.full(n, voltage),
        current=np.full(n, current),
        thrust=np.full(n, thrust),
        torque=np.full(n, torque),
        omega=np.full(n, omega),
    )


# the kinds of segment that the extraction property draws
SEGMENT_KINDS = ("ramp", "wobble", "one channel unsteady", "steady only early", "one window")


@st.composite
def segmented_streams(draw):
    """(stream, window, stability_tol): a 1 kHz stream of segments of
    SEGMENT_KINDS, each of noisy levels: a ramp onto a plateau, a wobble
    throughout, one channel wobbling throughout, a plateau followed by a long
    wobble (so that its last steady window lies before the windows tested
    first), and a plateau exactly one window long."""
    width = draw(st.integers(20, 150))
    kinds = draw(st.lists(st.sampled_from(SEGMENT_KINDS), min_size=2, max_size=4))
    torque = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = np.array([3.0, 1.0, 0.05, 1e-4, 2000.0]) * rng.uniform(0.5, 2.0, 5)
    noise = rng.uniform(0.0005, 0.01)
    blocks, labels = [], []
    for i, kind in enumerate(kinds):
        n = width if kind == "one window" else width + int(rng.integers(1, 2500))
        t = np.arange(n)
        shape = np.ones((5, n))
        if kind == "ramp":
            shape -= rng.uniform(0.2, 0.8) * np.exp(-t / (rng.uniform(0.05, 0.5) * n))
        wobble = 1.0 + rng.uniform(0.05, 0.2) * np.sin(2.0 * np.pi * t / rng.uniform(20.0, 400.0))
        if kind == "wobble":
            shape *= wobble
        elif kind == "one channel unsteady":
            shape[rng.integers(5)] *= wobble
        elif kind == "steady only early":
            shape[:, width + 300 :] *= wobble[width + 300 :]
        blocks.append(levels[:, None] * shape * (1.0 + noise * rng.standard_normal((5, n))))
        labels += [f"s{i}"] * n
    stream = make_stream(np.arange(len(labels)) / 1000.0, labels, dict(zip(CHANNELS, np.hstack(blocks))), torque=torque)
    if draw(st.booleans()):
        return stream, width / 1000.0, draw(st.floats(0.002, 0.05))
    # a tolerance at, or one ulp above, the smallest ratio of a segment's windows
    # from some window on, so that a window with that ratio is steady by one ulp
    # or not at all, and a ratio computed otherwise may flip it
    seg = np.flatnonzero(np.array(labels) == f"s{draw(st.integers(0, len(kinds) - 1))}")
    ratios = window_ratios(stream, seg[0], seg[-1] + 1, width).max(axis=0)
    least = ratios[draw(st.integers(0, len(ratios) - 1)) :].min()
    return stream, width / 1000.0, float(np.nextafter(least, np.inf) if draw(st.booleans()) else least)


class TestSteadyStateExtract:
    RATE = 1000.0  # [Hz]

    @PROPERTY
    @given(segmented_streams())
    def test_records_equal_the_all_windows_oracle(self, case):
        stream, window, tol = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # skipped segments
            records = steady_state_extract(stream, window=window, stability_tol=tol)
        names = [name for name in CHANNELS if getattr(stream, name) is not None]
        got = [(r.setpoint, [getattr(r, name) for name in names]) for r in records]
        assert repr(got) == repr(extract_oracle(stream, window, tol))

    def test_constant_stream_one_record_per_setpoint(self):
        n = 3000
        time = np.arange(2 * n) / self.RATE
        setpoint = np.array(["a"] * n + ["b"] * n)
        ch = constant_channels(2 * n)
        ch["thrust"][n:] = 0.09
        stream = make_stream(time, setpoint, ch)
        records = steady_state_extract(stream)
        assert len(records) == 2
        assert records[0].setpoint == "a" and records[0].thrust == pytest.approx(0.05, rel=1e-12)
        assert records[1].setpoint == "b" and records[1].thrust == pytest.approx(0.09, rel=1e-12)
        assert records[0].voltage == pytest.approx(3.0, rel=1e-12)

    def test_ramp_then_plateau_takes_plateau_mean(self):
        n_ramp, n_flat = 2500, 2500
        time = np.arange(n_ramp + n_flat) / self.RATE
        thrust = np.concatenate([np.linspace(0.0, 0.05, n_ramp), np.full(n_flat, 0.05)])
        ch = constant_channels(n_ramp + n_flat)
        ch["thrust"] = thrust
        stream = make_stream(time, ["a"] * (n_ramp + n_flat), ch)
        records = steady_state_extract(stream)
        assert len(records) == 1
        assert records[0].thrust == pytest.approx(0.05, rel=1e-9)

    def test_all_noise_stream_yields_nothing(self):
        rng = np.random.default_rng(2)
        n = 4000
        time = np.arange(n) / self.RATE
        ch = constant_channels(n)
        ch["thrust"] = 0.05 * (1.0 + 0.2 * rng.standard_normal(n)).clip(0.01)
        stream = make_stream(time, ["a"] * n, ch)
        with pytest.warns(UserWarning, match="no steady window"):
            records = steady_state_extract(stream)
        assert records == []

    def test_recovers_means_within_noise_floor(self):
        rng = np.random.default_rng(9)
        n = 4000
        sigma = 0.01
        time = np.arange(n) / self.RATE
        ch = constant_channels(n)
        for name in ch:
            ch[name] = ch[name] * (1.0 + sigma * rng.standard_normal(n))
        stream = make_stream(time, ["a"] * n, ch)
        (record,) = steady_state_extract(stream)
        width = int(round(2.0 * self.RATE))
        tolerance = 5.0 * sigma / np.sqrt(width)
        assert record.thrust == pytest.approx(0.05, rel=tolerance)
        assert record.omega == pytest.approx(2000.0, rel=tolerance)

    def test_window_std_keeps_precision_on_large_level(self):
        # a 1e-3 ripple on a level of 3000: raw cumulative sums cancel and
        # read window stds anywhere from 0 to 3.8e-3
        rng = np.random.default_rng(0)
        values = 3000.0 + 1e-3 * rng.standard_normal(200_000)
        mean, std = _moving_stats(values, 2000, 0, len(values) - 1999)
        assert np.all(np.abs(std - 1e-3) < 0.1e-3)
        starts = range(0, len(mean), 997)
        assert mean[::997] == pytest.approx([np.mean(values[i : i + 2000]) for i in starts], rel=1e-12)

    def test_short_stream_rejected(self):
        n = 500  # 0.5 s at 1 kHz
        stream = make_stream(np.arange(n) / self.RATE, ["a"] * n, constant_channels(n))
        with pytest.raises(ValueError, match="shorter than"):
            steady_state_extract(stream)

    def test_segment_shorter_than_window_skipped(self):
        sizes = {"a": 3000, "b": 500, "c": 3000}
        n = sum(sizes.values())
        setpoint = np.concatenate([[label] * size for label, size in sizes.items()])
        stream = make_stream(np.arange(n) / self.RATE, setpoint, constant_channels(n))
        with pytest.warns(UserWarning, match="setpoint b: segment shorter than the averaging window; skipped"):
            records = steady_state_extract(stream)
        assert [r.setpoint for r in records] == ["a", "c"]

    def test_torqueless_stream_gives_torqueless_records(self):
        n = 3000
        stream = make_stream(np.arange(n) / self.RATE, ["a"] * n, constant_channels(n), torque=False)
        (record,) = steady_state_extract(stream)
        assert record.torque is None

    def test_unsettled_torque_skips_its_segment(self):
        # the other four channels are flat; torque wobbles by 20% throughout setpoint b
        n = 3000
        ch = constant_channels(2 * n)
        ch["torque"][n:] *= 1.0 + 0.2 * np.sin(2.0 * np.pi * 2.5 * np.arange(n) / self.RATE)
        stream = make_stream(np.arange(2 * n) / self.RATE, ["a"] * n + ["b"] * n, ch)
        with pytest.warns(UserWarning, match="setpoint b: no steady window found; skipped"):
            records = steady_state_extract(stream)
        assert [r.setpoint for r in records] == ["a"]

    def test_kept_window_starts_after_the_last_channel_settles(self):
        # omega, the last channel, steps from 1000 to 2000 rad/s after every other
        # channel is flat: at sample 300 of setpoint a, whose last window starts at
        # 600, and at sample 1000 of setpoint b, after the start of its last window
        n = 2600
        ch = constant_channels(2 * n)
        ch["omega"][:300] = ch["omega"][n : n + 1000] = 1000.0
        stream = make_stream(np.arange(2 * n) / self.RATE, ["a"] * n + ["b"] * n, ch)
        with pytest.warns(UserWarning, match="setpoint b: no steady window found; skipped"):
            (record,) = steady_state_extract(stream)
        means = (record.voltage, record.current, record.thrust, record.torque, record.omega)
        assert record.setpoint == "a" and means == pytest.approx((3.0, 1.0, 0.05, 1e-4, 2000.0), rel=1e-12)

    def test_decreasing_timestamps_rejected(self):
        n = 3000
        time = np.arange(n) / self.RATE
        time[100] = time[99]
        with pytest.raises(ValueError, match="strictly increase"):
            make_stream(time, ["a"] * n, constant_channels(n))

    def test_gaps_flagged(self):
        n = 3000
        time = np.arange(n) / self.RATE
        time[1500:] += 0.25
        with pytest.warns(UserWarning, match="sampling gaps"):
            make_stream(time, ["a"] * n, constant_channels(n))


class TestRawSampleStream:
    N = 3000

    @pytest.mark.parametrize("channel", ["time", "voltage", "current", "thrust", "torque", "omega"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_sample_names_channel_and_index(self, channel, value):
        time, channels = np.arange(self.N) / 1000.0, constant_channels(self.N)
        (time if channel == "time" else channels[channel])[1234] = value
        with pytest.raises(ValueError, match=rf"^{channel}\[1234\]: sample must be finite, got {re.escape(str(value))}$"):
            make_stream(time, ["a"] * self.N, channels)

    def test_repeated_timestamp_names_index(self):
        time = np.arange(self.N) / 1000.0
        time[100] = time[99]
        with pytest.raises(ValueError, match=r"^time\[100\]: timestamps must strictly increase, got 0.099 after 0.099$"):
            make_stream(time, ["a"] * self.N, constant_channels(self.N))

    def test_first_bad_sample_in_row_then_channel_order(self):
        time, channels = np.arange(self.N) / 1000.0, constant_channels(self.N)
        channels["thrust"][900], channels["omega"][700], channels["voltage"][700] = np.nan, np.inf, -np.inf
        time[800] = time[799]
        with pytest.raises(ValueError, match=r"^voltage\[700\]: sample must be finite, got -inf$"):
            make_stream(time, ["a"] * self.N, channels)


@pytest.mark.parametrize("reader, header, row", READERS.values(), ids=READERS)
def test_repeated_column_named(tmp_path, reader, header, row):
    repeated = header.split(",")[1]
    path = tmp_path / "table.csv"
    path.write_text(f"{header},{repeated}\n{row},{row.split(',')[1]}\n")
    with pytest.raises(DataFormatError, match=f"repeated column: {repeated}$"):
        reader(path)


class TestRawCsv:
    def test_read_and_extract(self, tmp_path):
        n = 2500
        lines = ["time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s"]
        for i in range(n):
            lines.append(f"{i / 1000.0},a,3.0,1.0,0.05,0.0001,2000.0")
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        stream = read_raw_csv(path, radius=0.023, distance=0.01)
        (record,) = steady_state_extract(stream)
        assert record.thrust == pytest.approx(0.05)
        assert record.distance == 0.01

    def test_empty_torque_column_means_no_torque(self, tmp_path):
        lines = ["time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s"]
        for i in range(2500):
            lines.append(f"{i / 1000.0},a,3.0,1.0,0.05,,2000.0")
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        stream = read_raw_csv(path, radius=0.023, distance=0.01)
        assert stream.torque is None

    def test_partly_empty_torque_names_row(self, tmp_path):
        lines = raw_lines()
        lines[101] = lines[101].replace("0.0001", "")
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="row 102, column torque_nm: could not parse ''"):
            read_raw_csv(path, radius=0.023, distance=0.01)

    @pytest.mark.parametrize(
        "column, value",
        [("thrust_n", "nan"), ("time_s", "nan"), ("omega_rad_s", "inf"), ("torque_nm", "-inf"), ("voltage_v", "NaN")],
    )
    def test_non_finite_sample_names_row_and_column(self, tmp_path, column, value):
        lines = raw_lines()
        cells = lines[101].split(",")
        cells[RAW_HEADER.split(",").index(column)] = value
        lines[101] = ",".join(cells)
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=f"row 102, column {column}: sample must be finite"):
            read_raw_csv(path, radius=0.023, distance=0.01)

    def test_first_non_finite_sample_in_file_order_named(self, tmp_path):
        lines = raw_lines()
        lines[300] = lines[300].replace(",2000.0", ",nan")
        lines[200] = lines[200].replace(",0.05,", ",inf,")
        lines[250] = lines[250].replace(",3.0,", ",nan,")
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="row 201, column thrust_n: sample must be finite, got inf"):
            read_raw_csv(path, radius=0.023, distance=0.01)

    @pytest.mark.parametrize("torque", ["\x1c0.0001", "0.0001\x1f"])
    def test_cell_with_separator_byte_named(self, tmp_path, torque):
        lines = raw_lines()
        lines[1] = lines[1].replace("0.0001", torque)
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="row 2, column torque_nm: could not parse"):
            read_raw_csv(path, radius=0.023, distance=0.01)

    @pytest.mark.parametrize(
        "times, message",
        [
            ({101: "0.099"}, "row 102, column time_s: timestamps must strictly increase, got 0.099 after 0.099"),
            ({201: "0.201", 202: "0.2"}, "row 203, column time_s: timestamps must strictly increase, got 0.2 after 0.201"),
        ],
        ids=["repeated", "out-of-order"],
    )
    def test_timestamp_not_increasing_names_row(self, tmp_path, times, message):
        lines = raw_lines()
        for line, time in times.items():
            lines[line] = time + lines[line][lines[line].index(","):]
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=message):
            read_raw_csv(path, radius=0.023, distance=0.01)

    @pytest.mark.parametrize(
        "bad, message",
        [
            # (line index, old cell, new cell) of each fault; the first bad row is named
            ([(4, ",3.0,", ",nan,"), (8, ",2000.0", ",x")], "row 5, column voltage_v: sample must be finite"),
            ([(5, ",0.0001,", ",,"), (3, ",1.0,", ",x,")], "row 4, column current_a: could not parse 'x'"),
            ([(6, ",0.0001,", ",,"), (7, ",0.05,", ",nan,")], "row 7, column torque_nm: could not parse ''"),
            ([(7, ",0.0001,", ",,"), (6, ",0.05,", ",nan,")], "row 7, column thrust_n: sample must be finite"),
            ([(5, "0.004,", "0.003,"), (7, ",1.0,", ",x,")], "row 6, column time_s: timestamps must strictly increase"),
            ([(7, "0.006,", "0.005,"), (4, ",1.0,", ",x,")], "row 5, column current_a: could not parse 'x'"),
            ([(6, "0.005,", "0.004,"), (6, ",0.05,", ",nan,")], "row 7, column time_s: timestamps must strictly increase"),
            ([(6, "0.005,", "0.006,"), (5, ",0.05,", ",nan,")], "row 6, column thrust_n: sample must be finite"),
            ([(2, ",3.0,", ",nan,"), (3, ",0.05,0.0001,2000.0", "")], "row 3, column voltage_v: sample must be finite"),
            ([(2, ",3.0,", ",nan,"), (3, ",2000.0", ",2000.0,9")], "row 3, column voltage_v: sample must be finite"),
            ([(1, ",0.0001,", ",,")], "row 2, column torque_nm: could not parse ''"),
        ],
    )
    def test_first_bad_row_named_whatever_its_fault(self, tmp_path, bad, message):
        lines = raw_lines()
        for line, old, new in bad:
            lines[line] = lines[line].replace(old, new)
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=message):
            read_raw_csv(path, radius=0.023, distance=0.01)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([], "row 501: quoted cell not closed"),
            ([(300, ",3.0,", ",x,")], "row 301, column voltage_v: could not parse 'x'"),
            ([(300, ",0.05,", ",nan,")], "row 301, column thrust_n: sample must be finite"),
        ],
        ids=["alone", "bad-cell-above", "bad-value-above"],
    )
    def test_quoted_cell_not_closed_is_one_more_bad_row(self, tmp_path, bad, message):
        # the rows above the one that opens the cell are judged first
        lines = raw_lines(20000)
        for line, old, new in bad + [(500, "", '"')]:
            lines[line] = new + lines[line] if old == "" else lines[line].replace(old, new)
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            read_raw_csv(path, radius=0.023, distance=0.01)

    def test_rows_above_a_fault_warn_of_no_gap(self, tmp_path):
        # they are read only to be judged, as the log is rejected
        lines = raw_lines()
        lines[1000:] = [f"{float(line.split(',')[0]) + 0.5}{line[line.index(','):]}" for line in lines[1000:]]
        lines.append("9.0,a,3.0")
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="row 2502: expected 7 cells, got 3"):
                read_raw_csv(path, radius=0.023, distance=0.01)
        path.write_text("\n".join(lines[:-1]) + "\n")  # the same log without its fault
        with pytest.warns(UserWarning, match="1 sampling gaps"):
            read_raw_csv(path, radius=0.023, distance=0.01)


# cells of a raw log: shortest-repr floats, a number in spaces, and cells
# that float() reads but numpy's tokenizer does not
RAW_NUMBERS = st.one_of(FINITE.map(repr), st.sampled_from([" 1.5 ", "1_0", "\u0661"]))
RAW_COLUMNS = RAW_HEADER.split(",")


# setpoints around the C path's 16-byte label field: 5, 15 and 16 bytes, two
# sharing their first 8 bytes, longer ones, and non-ASCII letters; a label
# that fills the field or is not ASCII sends a log to the csv path
LONG_SETPOINTS = st.sampled_from(
    ["sp-01", "sp-0123456789ab", "sp-0123456789ac", "sp-0123456789abc", "setpoint-0123456789", "é", "sp€"]
)


@st.composite
def raw_logs(draw):
    """The text of a raw log, written by csv.writer (so setpoints holding a
    comma, quote or line break are quoted) with LF or CRLF line ends.  Half
    the logs are plain: they hold no blank row, line break in a setpoint,
    empty torque column or cell such as '1_0', which send a log to the csv
    path; a long or non-ASCII setpoint may still send a plain log there."""
    plain = draw(st.booleans())
    numbers = st.one_of(FINITE.map(repr), st.just(" 1.5 ")) if plain else RAW_NUMBERS
    short = st.text(alphabet=st.sampled_from('ab ,"' if plain else 'ab ,"\n'), max_size=4)
    setpoints = st.one_of(short, LONG_SETPOINTS)
    n = draw(st.integers(1, 5))
    no_torque = not plain and draw(st.booleans())
    blank = set() if plain else draw(st.sets(st.integers(0, n), max_size=2))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=terminator)
    writer.writerow(RAW_COLUMNS)
    for i in range(n + 1):
        if i in blank:
            out.write(terminator)
        if i < n:
            voltage, current, thrust, torque, omega = draw(st.lists(numbers, min_size=5, max_size=5))
            setpoint = draw(setpoints)
            writer.writerow([repr(i / 1000.0), setpoint, voltage, current, thrust, "" if no_torque else torque, omega])
    return out.getvalue()


def raw_oracle(text):
    # csv.reader and float(), cell by cell: {column name: values}
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row][1:]
    columns = dict(zip(RAW_COLUMNS, map(list, zip(*rows))))
    if all(cell == "" for cell in columns["torque_nm"]):
        del columns["torque_nm"]
    out = {name: np.array([float(cell) for cell in cells]) for name, cells in columns.items() if name != "setpoint"}
    out["setpoint"] = np.array(columns["setpoint"])
    return out


def campaign_log(path, torque=True):
    """Write a log shaped like a bench campaign's to path: 64k rows at 1 kHz,
    16 setpoints, 7-digit samples, and every torque cell empty unless torque."""
    n = 64_000
    rng = np.random.default_rng(3)
    channels = np.array([3.0, 1.0, 0.05, 1e-4, 2000.0]) * (1.0 + 0.005 * rng.standard_normal((n, 5)))
    table = np.column_stack([np.arange(n) / 1000.0, np.arange(n) * 16 // n, channels])
    fmt = "%.3f,sp%02d,%.7g,%.7g,%.7g,%.7g,%.7g" if torque else "%.3f,sp%02d,%.7g,%.7g,%.7g,,%.7g"
    np.savetxt(path, table if torque else np.delete(table, 5, axis=1), fmt=fmt, header=RAW_HEADER, comments="")
    return path


class TestRawCsvParsers:
    @PROPERTY
    @given(raw_logs())
    @example(RAW_HEADER + "\n0.0,a,3.0,1.0,0.05,0.0001,2000.0\n")
    @example(RAW_HEADER + '\r\n0.0,"a,b", 1.5 ,1.0,0.05,0.0,5e-324\r\n')
    @example(RAW_HEADER + "\n0.0,a,1_0,\u0661,0.05,,2.0\n\n0.001,b,3.0,1.0,0.05,,2.0\n")
    @example(RAW_HEADER + '\n0.0,"a\nb",3.0,1.0,0.05,0.0001,2000.0\n')
    @example(RAW_HEADER + "".join(f"\n{i / 1000.0},{s},3.0,1.0,0.05,0.0001,2000.0" for i, s in enumerate(
        ["sp-0123456789ab", "sp-0123456789ab", "sp-0123456789ac", "sp-01", "sp-01", "", "b"])) + "\n")
    @example(RAW_HEADER + "".join(f"\n{i / 1000.0},{s},3.0,1.0,0.05,0.0001,2000.0" for i, s in enumerate(
        ["sp-0123456789ab", "sp-0123456789abc", "setpoint-0123456789"])) + "\n")
    @example(RAW_HEADER + "\n0.0,a,3.0,1.0,0.05,0.0001,2000.0\n0.001,é,3.0,1.0,0.05,0.0001,2000.0\n")
    @example(RAW_HEADER + "\n0.0,sp€,3.0,1.0,0.05,0.0001,2000.0\n")
    def test_read_equals_csv_reader_and_float(self, tmp_path, text):
        path = tmp_path / "raw.csv"
        path.write_bytes(text.encode("utf-8"))
        stream = read_raw_csv(path, radius=0.023, distance=0.01)
        got = dict(
            time_s=stream.time, setpoint=stream.setpoint, voltage_v=stream.voltage, current_a=stream.current,
            thrust_n=stream.thrust, torque_nm=stream.torque, omega_rad_s=stream.omega,
        )
        if stream.torque is None:
            del got["torque_nm"]
        want = raw_oracle(text)
        assert got.keys() == want.keys()
        for name, values in want.items():
            assert got[name].dtype == values.dtype, name
            assert repr(got[name].tolist()) == repr(values.tolist()), name  # repr also tells -0.0 from 0.0

    def test_read_memory_stays_near_file_size(self, tmp_path):
        # holding every row as a list of strings before parsing peaked at
        # about ten times the file
        for torque in (True, False):
            path = campaign_log(tmp_path / "raw.csv", torque)
            n = 64_000
            tracemalloc.start()
            try:
                stream = read_raw_csv(path, radius=0.023, distance=0.01)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(stream.time) == n and stream.setpoint[-1] == "sp15" and (stream.torque is None) != torque
            assert stream.setpoint.dtype.kind == "U"  # labels are str, not the bytes of numpy 1.x converters
            assert peak < 3 * path.stat().st_size, torque

    @pytest.mark.parametrize(
        "kind", ["campaign log", "bundled steady table", "campaign log without torque", "bundled steady table without torque"]
    )
    def test_plain_files_skip_the_csv_path(self, tmp_path, monkeypatch, kind):
        # a file that falls back to the csv path reads the same values, only
        # slower, so the path taken is checked here
        def csv_path(cells, kind):
            raise AssertionError("body read by the csv path")

        torque = not kind.endswith("without torque")
        steady = DATA / "steady_23mm_synthetic.csv"
        if not torque:  # the bundled table with every torque cell emptied
            rows = [line.split(",") for line in steady.read_text().splitlines()]
            column = rows[0].index("torque_nm")
            for row in rows[1:]:
                row[column] = ""
            steady = tmp_path / "steady.csv"
            steady.write_text("\n".join(map(",".join, rows)) + "\n")
        monkeypatch.setattr(ceilprop.io, "_parse_column", csv_path)
        if kind.startswith("campaign log"):
            stream = read_raw_csv(campaign_log(tmp_path / "raw.csv", torque), radius=0.023, distance=0.01)
            assert stream.setpoint[-1] == "sp15" and (stream.torque is None) != torque
        else:
            table = read_steady_csv(steady)
            assert len(table) == 1088 and table.config_id[0] == "synth-23mm"
            assert np.isnan(table.torque).all() != torque

    def test_crlf_log_reads_as_its_lf_copy_on_the_c_path(self, tmp_path, monkeypatch):
        lf = campaign_log(tmp_path / "raw.csv")
        crlf = tmp_path / "raw_crlf.csv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        want = read_raw_csv(lf, radius=0.023, distance=0.01)
        monkeypatch.setattr(ceilprop.io, "_parse_column", lambda cells, kind: pytest.fail("body read by the csv path"))
        assert_same_stream(read_raw_csv(crlf, radius=0.023, distance=0.01), want)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_log_named_as_compressed_reads_as_text(self, tmp_path, suffix):
        # np.loadtxt decompresses a file by such a name, so it takes the csv path
        plain = tmp_path / "raw.csv"
        plain.write_text("\n".join(raw_lines()) + "\n")
        named = tmp_path / f"raw.csv{suffix}"
        named.write_bytes(plain.read_bytes())
        assert_same_stream(read_raw_csv(named, radius=0.023, distance=0.01),
                           read_raw_csv(plain, radius=0.023, distance=0.01))

    def test_compressed_log_is_not_utf8(self, tmp_path):
        path = tmp_path / "raw.csv.gz"
        path.write_bytes(gzip.compress(("\n".join(raw_lines()) + "\n").encode()))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: line 1: not UTF-8: byte 0x8b$"):
            read_raw_csv(path, radius=0.023, distance=0.01)

    def test_not_utf8_in_a_plain_log_names_its_line(self, tmp_path):
        # numpy decodes the body strictly and declines it; the csv path names the line
        lines = raw_lines()
        lines[1999] = lines[1999].replace(",a,", ",a\udcff,")
        path = tmp_path / "raw.csv"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: line 2000: not UTF-8: byte 0xff$"):
            read_raw_csv(path, radius=0.023, distance=0.01)


def assert_same_stream(got, want):
    for name in ("time", "setpoint", *CHANNELS):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and repr(a.tolist()) == repr(b.tolist()), name


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


class TestParamFiles:
    @PROPERTY
    @given(
        st.builds(
            ParamSet,
            geometry=st.none() | st.builds(
                PropellerGeometry,
                radius=POSITIVE,
                figure_of_merit=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
                blade_coeffs=st.none() | st.tuples(POSITIVE, POSITIVE, st.floats(0.0, allow_infinity=False)),
            ),
            ceiling=st.none() | st.builds(
                CeilingParams,
                asymmetry=st.floats(1.0, allow_infinity=False),
                recirculation=st.floats(0.0, allow_infinity=False),
            ),
            motor=st.none() | st.builds(MotorParams, resistance=POSITIVE, back_emf=POSITIVE),
            provenance=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4),
        )
    )
    def test_round_trip_property(self, tmp_path, params):
        path = tmp_path / "fit.json"
        write_params(params, path)
        back = read_params(path)
        assert back == params
        assert repr([back.geometry, back.ceiling, back.motor]) == repr([params.geometry, params.ceiling, params.motor])

    def test_full_round_trip(self, tmp_path, geom_23mm, single_prop_ceiling, bench_motor):
        params = ParamSet(
            geometry=geom_23mm,
            ceiling=single_prop_ceiling,
            motor=bench_motor,
            provenance={"dataset_sha256": "00" * 32, "n_obs": 1088},
        )
        path = tmp_path / "fit.json"
        write_params(params, path)
        back = read_params(path)
        assert back.geometry == geom_23mm
        assert back.ceiling == single_prop_ceiling
        assert back.motor == bench_motor
        assert back.provenance["n_obs"] == 1088

    def test_partial_sections(self, tmp_path):
        path = tmp_path / "fit.json"
        write_params(ParamSet(geometry=PropellerGeometry(radius=0.023, figure_of_merit=0.5)), path)
        back = read_params(path)
        assert back.geometry.blade_coeffs is None
        assert back.ceiling is None and back.motor is None

    def test_deterministic_bytes(self, tmp_path, geom_23mm):
        params = ParamSet(geometry=geom_23mm, ceiling=CeilingParams(1.6), motor=MotorParams(1.58, 1.1e-3))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_params(params, a)
        write_params(params, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_schema_version_rejected(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text('{"schema_version": 99}\n')
        with pytest.raises(DataFormatError, match="schema_version"):
            read_params(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            read_params(path)

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200_000 + "]" * 200_000,
            '{"schema_version": 1, "motor": {"resistance_ohm": ' + "1" * 5001 + ', "back_emf_v_s_per_rad": 0.001}}',
        ],
        ids=["nested-too-deep", "int-over-digit-limit"],
    )
    def test_json_the_decoder_refuses_names_file(self, tmp_path, text):
        path = tmp_path / "fit.json"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: invalid JSON: "):
            read_params(path)

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, geom_23mm):
        path = tmp_path / "fit.json"
        write_params(ParamSet(geometry=geom_23mm), path)
        before = path.read_bytes()

        def interrupted_dump(doc, fh, **kwargs):
            fh.write('{"schema_version": 1, "geom')
            raise OSError("No space left on device")

        monkeypatch.setattr(json, "dump", interrupted_dump)
        with pytest.raises(OSError, match="No space left"):
            write_params(ParamSet(geometry=geom_23mm, ceiling=CeilingParams(2.0)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["fit.json"]

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[]", "top level"),
            ('{"schema_version": 1, "geometry": []}', "geometry"),
            ('{"schema_version": 1, "provenance": []}', "provenance"),
            ('{"schema_version": 1, "geometry": null}', "geometry"),
        ],
    )
    def test_section_not_an_object_named(self, tmp_path, text, key):
        path = tmp_path / "fit.json"
        path.write_text(text + "\n")
        with pytest.raises(DataFormatError, match=f"{key}: expected a JSON object"):
            read_params(path)

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text('{"schema_version": 1, "ceiling": {"asymmetry": 0.5, "recirculation": 0.0}}\n')
        with pytest.raises(DataFormatError, match="invalid parameter file"):
            read_params(path)

    @pytest.mark.parametrize(
        "section, body, message",
        [
            ("geometry", '{"radius_m": true, "figure_of_merit": 0.5}', "radius_m: expected a number, got true"),
            ("geometry", '{"radius_m": "0.023", "figure_of_merit": 0.5}', 'radius_m: expected a number, got "0.023"'),
            ("geometry", '{"radius_m": 0.023}', "figure_of_merit: missing"),
            ("geometry", '{"radius_m": 0.023, "figure_of_merit": 0.5, "blade_coeffs": [0.1, 0.8]}',
             r"blade_coeffs: expected null or a list of three numbers, got \[0.1, 0.8\]"),
            ("geometry", '{"radius_m": 0.023, "figure_of_merit": 0.5, "blade_coeffs": [0.1, 0.8, false]}',
             "blade_coeffs: expected null or a list of three numbers"),
            ("geometry", '{"radius_m": 0.023, "figure_of_merit": 0.5, "blade_coeffs": 0.1}',
             "blade_coeffs: expected null or a list of three numbers, got 0.1"),
            ("ceiling", '{"asymmetry": true, "recirculation": false}', "asymmetry: expected a number, got true"),
            ("ceiling", '{"asymmetry": 1.6, "recirculation": null}', "recirculation: expected a number, got null"),
            ("ceiling", '{"asymmetry": 1.6}', "recirculation: missing"),
            ("motor", '{"resistance_ohm": [1.58], "back_emf_v_s_per_rad": 1.1e-3}', r"resistance_ohm: expected a number"),
            ("motor", '{"resistance_ohm": 1.58}', "back_emf_v_s_per_rad: missing"),
            # a name the file format does not declare would be dropped when a fit writes the file back
            ("geometry", '{"radius_m": 0.023, "figure_of_merit": 0.5, "blade_coefs": null}',
             "blade_coefs: unknown key"),
            ("ceiling", '{"asymmetry": 1.6, "recirculation": 0.0, "a1": 0.0}', "a1: unknown key"),
            ("motors", "{}", "unknown section"),
        ],
    )
    def test_bad_value_names_section_and_key(self, tmp_path, section, body, message):
        path = tmp_path / "fit.json"
        path.write_text(f'{{"schema_version": 1, "{section}": {body}}}\n')
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: {section}: {message}"):
            read_params(path)

    @pytest.mark.parametrize(
        "section, body",
        [
            ("geometry", '{"radius_m": 0.023, "figure_of_merit": 0.5, "blade_coeffs": [NaN, 0.8, 0.0]}'),
            ("geometry", '{"radius_m": 0.023, "figure_of_merit": 0.5, "blade_coeffs": [0.1, Infinity, 0.0]}'),
            ("motor", '{"resistance_ohm": 1%s, "back_emf_v_s_per_rad": 1.1e-3}' % ("0" * 400)),
        ],
        ids=["nan-blade-coeff", "infinite-blade-coeff", "int-beyond-float"],
    )
    def test_out_of_range_number_is_invalid_parameter_file(self, tmp_path, section, body):
        path = tmp_path / "fit.json"
        path.write_text(f'{{"schema_version": 1, "{section}": {body}}}\n')
        with pytest.raises(DataFormatError, match="invalid parameter file"):
            read_params(path)
