"""Dataset and parameter-file I/O plus steady-state extraction from raw logs.

Every CSV table (UTF-8, LF, '.' decimal) is declared once, as a column spec
mapping each column name to the kind of its cells, and is read by
_read_table and written by _write_table.  _read_table parses a body with
one np.loadtxt into a table allocated once, a text cell into a 16-byte field
that is decoded once per run of equal cells, and falls back to the csv module
for a body that this C path might read differently.  The steady-state table
holds one row per setpoint:

    config_id,radius_m,prop_count,spacing_m,distance_m,setpoint,
    voltage_v,current_a,thrust_n,torque_nm,omega_rad_s

torque_nm may be empty (rigs with counter-rotating pairs measure no net
torque).  _write_table writes columns a block of rows at a time, each row
joined by "," and ended by LF: floats as repr (shortest round-trip, so
write-then-read reproduces records exactly), ints as str, an empty cell as
nothing, and a text cell holding a comma, quote, CR or LF in quotes with its
quotes doubled, as the csv module quotes.  Every file is written beside its
target and renamed over it, so a failed write leaves the old file as it was.

Parameter files are schema-versioned JSON holding geometry, ceiling, and
motor sections (all SI) plus free-form fit provenance.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import stat
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bemt import PropellerGeometry
from .core import CeilingParams
from .fitting import GammaPoint, SteadyTable, _columns, _RowError
from .motor import MotorParams

__all__ = [
    "DataFormatError",
    "STEADY_COLUMNS",
    "GAMMA_COLUMNS",
    "read_steady_csv",
    "write_steady_csv",
    "read_gamma_csv",
    "write_gamma_csv",
    "RawSampleStream",
    "read_raw_csv",
    "steady_state_extract",
    "ParamSet",
    "read_params",
    "write_params",
    "dataset_sha256",
]

SCHEMA_VERSION = 1

# kinds of cell in a column spec
TEXT, FLOAT, INT, FLOAT_OR_EMPTY = "text", "float", "int", "float-or-empty"

STEADY_SPEC = {
    "config_id": TEXT,
    "radius_m": FLOAT,
    "prop_count": INT,
    "spacing_m": FLOAT,
    "distance_m": FLOAT,
    "setpoint": TEXT,
    "voltage_v": FLOAT,
    "current_a": FLOAT,
    "thrust_n": FLOAT,
    "torque_nm": FLOAT_OR_EMPTY,
    "omega_rad_s": FLOAT,
}
GAMMA_SPEC = {
    "delta": FLOAT,
    "gamma": FLOAT,
    "stderr": FLOAT,
    "n_points": INT,
}
RAW_SPEC = {
    "time_s": FLOAT,
    "setpoint": TEXT,
    "voltage_v": FLOAT,
    "current_a": FLOAT,
    "thrust_n": FLOAT,
    "torque_nm": FLOAT_OR_EMPTY,
    "omega_rad_s": FLOAT,
}
STEADY_COLUMNS = tuple(STEADY_SPEC)
GAMMA_COLUMNS = tuple(GAMMA_SPEC)

# the parameter file: each section's model class and {JSON key: field name}
_SECTIONS = {
    "geometry": (PropellerGeometry, {"radius_m": "radius", "figure_of_merit": "figure_of_merit",
                                     "blade_coeffs": "blade_coeffs"}),
    "ceiling": (CeilingParams, {"asymmetry": "asymmetry", "recirculation": "recirculation"}),
    "motor": (MotorParams, {"resistance_ohm": "resistance", "back_emf_v_s_per_rad": "back_emf"}),
}


class DataFormatError(ValueError):
    """A file does not match the expected schema; the message names row and column."""


def _check_header(header, expected, path):
    for name in expected:
        if name not in header:
            raise DataFormatError(f"{path}: missing column: {name}")
    for j, name in enumerate(header):
        if name not in expected:
            raise DataFormatError(f"{path}: unexpected column: {name}")
        if name in header[:j]:
            raise DataFormatError(f"{path}: repeated column: {name}")


def _integers(values):
    # float cell values as ints; ValueError if one is not integral
    if not all(map(float.is_integer, values)):
        raise ValueError("non-integral cell")
    return list(map(int, values))


def _parse_column(cells, kind):
    # the whole column at once, with float()'s semantics; ValueError on any bad cell
    if kind == TEXT:
        return cells
    if kind == FLOAT:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells))
    if kind == FLOAT_OR_EMPTY:
        return [float(c) if c.strip() else None for c in cells]
    return _integers(list(map(float, cells)))


def _check_cell(raw: str, kind: str, row: int, column: str, path) -> None:
    # one cell, tested as _parse_column tests it; raises the DataFormatError that names it
    if kind == TEXT or (kind == FLOAT_OR_EMPTY and not raw.strip()):
        return
    try:
        value = float(raw)
    except ValueError:
        raise DataFormatError(f"{path}: row {row}, column {column}: could not parse {raw!r}") from None
    if kind == INT and not value.is_integer():
        raise DataFormatError(f"{path}: row {row}, column {column}: expected an integer, got {raw!r}")


_SCAN_BYTES = 1 << 16  # larger chunks raise the peak memory of a read
# a NUL ends numpy's text cell, and its float parser strips \x1c-\x1f around
# a number as whitespace where float() rejects the cell
_DECLINED_BYTES = (b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_LABEL_BYTES = 16  # the bytes field of a text cell on the C path


def _plain_body_lines(path):
    # the number of lines below the header, or None when the file is not a
    # regular one or holds a byte of _DECLINED_BYTES, a CR outside a CRLF or a
    # blank line (numpy's tokenizer skips it, so its row numbers would shift,
    # and loadtxt warns of it when given max_rows)
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    lines, last, tail = 0, -2, b""  # last: the previous LF's offset from the chunk's start
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_BYTES):
            window = tail + chunk  # the last two bytes before the chunk, for a pattern across the seam
            ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == 10)
            if any(byte in chunk for byte in _DECLINED_BYTES) or np.any(np.diff(ends, prepend=last) == 1):
                return None
            if b"\r" in window and (
                b"\n\r\n" in window or window.count(b"\r") != window.count(b"\r\n") + window.endswith(b"\r")
            ):
                return None
            last = (ends[-1] if ends.size else last) - len(chunk)
            lines += ends.size
            tail = window[-2:]
    if tail.endswith(b"\r"):
        return None
    return lines - tail.endswith(b"\n")


def _labels(table, name):
    # the bytes field name of table as a str array, decoding only the first
    # cell of each run of equal cells (compared as 8-byte words).  Labels that
    # fit are written over the field itself, so no second array is allocated.
    # ValueError if a cell fills the field (it may have been cut) or is not ASCII
    n, offset = len(table), table.dtype.fields[name][1]
    lo, hi = np.ndarray((2, n), np.uint64, table, offset, (8, table.itemsize))  # the field's two words
    head = np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])]
    labels = [cell.decode("ascii") for cell in table[name][head].tolist()]
    width = max(map(len, labels)) or 1  # np.array([""]) is U1
    if width == _LABEL_BYTES:
        raise ValueError(f"a cell of column {name} may have been cut")
    labels = np.array(labels, f"U{width}")
    fits = 4 * width <= _LABEL_BYTES  # a str character takes four bytes
    out = np.ndarray(n, labels.dtype, table, offset, (table.itemsize,)) if fits else np.empty(n, labels.dtype)
    run = np.cumsum(head)  # each cell's run, counted from 1
    run -= 1
    for start in range(0, n, _BLOCK):  # np.take buffers a strided out whole, so a block at a time
        np.take(labels, run[start : start + _BLOCK], out=out[start : start + _BLOCK])
    return out


def _parse_plain(fh, header, spec, lines):
    # the body through numpy's C tokenizer in one pass, into a table allocated
    # once: a text cell into a bytes field, every other cell as a float.  None
    # if the tokenizer rejects a cell (float() may read it), does not find one
    # row per line and one cell per header column, or _labels rejects a cell
    dtype = [(name, f"S{_LABEL_BYTES}" if spec[name] == TEXT else "f8") for name in header]
    try:
        table = np.loadtxt(
            fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, skiprows=1, max_rows=lines, ndmin=1
        )
        if table.shape != (lines,):
            return None
        columns = {}
        for name, kind in spec.items():
            if kind == TEXT:
                columns[name] = _labels(table, name)
            elif kind == INT:
                columns[name] = _integers(table[name].tolist())
            else:
                columns[name] = table[name]
    except ValueError:
        return None
    return columns


def _not_utf8(path, reason):
    # the DataFormatError for a CSV file that is not UTF-8, naming the line of
    # its first bad byte: the decoder placed it only within the chunk it was
    # decoding, so a regular file is read again to find it
    data = b""
    if stat.S_ISREG(os.stat(path).st_mode):
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return DataFormatError(f"{path}: line {line}: not UTF-8: byte {data[exc.start]:#04x}")
    return DataFormatError(f"{path}: not UTF-8: {reason}")


def _read_table(path, spec):
    """Read the CSV table that spec declares, checking header, cell counts and cells.

    Returns ({column name: cells}, file row number of each row, fault).  FLOAT
    columns come back as float64 arrays and INT columns as lists of int.
    FLOAT_OR_EMPTY and TEXT columns come back as float64 and str arrays from
    the C path, and as lists from the csv path (None for an empty
    FLOAT_OR_EMPTY cell).  Blank rows are skipped; a bad header or cell count
    raises DataFormatError naming the row, and a file that is not UTF-8 one
    naming the line of its first bad byte.  fault is None, or the
    DataFormatError naming the first cell in file order that does not parse,
    and then the columns hold only the rows before that cell's row: the caller
    checks their values first and raises fault if they pass, so the first bad
    row of the file is the one named.

    The C path parses the body with numpy's C tokenizer.  The csv path
    (csv.reader, then float() on each cell) reads it instead wherever the
    tokenizer might not read the same: an empty body; a file that is not a
    regular one, or holds a NUL, a byte from \x1c to \x1f, a CR outside a
    CRLF or a blank line; a cell the tokenizer rejects (a bad or empty cell,
    or one that only float() reads, such as '1_0'); a text cell of 16 bytes
    or more, or one that is not ASCII; or a row count or cell count that
    differs from the line count and the header (a quoted line break, a short
    or long row).  Only the csv path names a faulty cell.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: empty file, expected a header row") from None
            _check_header(header, spec, path)
            lines = _plain_body_lines(path)
            if lines:
                fh.seek(0)
                columns = _parse_plain(fh, header, spec, lines)
                if columns is not None:
                    return columns, range(2, 2 + lines), None
                fh.seek(0)
                next(reader)
            width = len(header)
            rows, blank = [], []
            for row_num, row in enumerate(reader, start=2):
                if not row:
                    blank.append(row_num)
                elif len(row) != width:
                    raise DataFormatError(f"{path}: row {row_num}: expected {width} cells, got {len(row)}")
                else:
                    rows.append(row)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc.reason) from None
    numbers = range(2, 2 + len(rows) + len(blank))
    if blank:
        numbers = np.setdiff1d(numbers, blank)
    index = {name: header.index(name) for name in spec}

    def parse(rows):
        return {name: _parse_column([row[index[name]] for row in rows], kind) for name, kind in spec.items()}

    try:
        return parse(rows), numbers, None
    except ValueError:
        # parse cell by cell only now, to name the first bad one
        for i, row in enumerate(rows):
            try:
                for name, kind in spec.items():
                    _check_cell(row[index[name]], kind, numbers[i], name, path)
            except DataFormatError as fault:
                return parse(rows[:i]), numbers[:i], fault
        raise


def _is_stdout(path) -> bool:
    # whether path names the file open as fd 1
    try:
        return os.path.samestat(os.fstat(1), os.stat(path))
    except OSError:
        return False


@contextlib.contextmanager
def _replacing(path):
    # write a temporary file beside the target and rename it over the target,
    # so a failed write leaves the old file whole; a symlink (such as
    # /dev/stdout), pipe or device is written in place, so the link and what
    # it points to stay as they are.  The file open as fd 1 is written through
    # fd 1 itself, at its offset, so what the program prints next follows it
    # instead of overwriting it
    if _is_stdout(path):
        sys.stdout.flush()
        with open(1, "w", newline="", encoding="utf-8", closefd=False) as fh:
            yield fh
        return
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


_BLOCK = 4096  # rows formatted or copied at a time, which bounds the memory a write or read takes


def _quote(cell) -> str:
    # csv's minimal quoting: a cell holding a comma, a quote or a line break is
    # quoted, with each quote doubled
    cell = str(cell)
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(kind, block):
    # one block of one column as str cells: floats in shortest round-trip form, nan as an empty cell
    if kind == FLOAT:
        return map(repr, np.asarray(block, dtype=float).tolist())
    if kind == FLOAT_OR_EMPTY:
        return ["" if math.isnan(v) else repr(v) for v in np.asarray(block, dtype=float).tolist()]
    return map(str if kind == INT else _quote, block)


def _write_table(path, spec, columns) -> None:
    """Write columns, one sequence of cells per column of spec, under the
    header of spec: a column spec or, for an all-float table, its column names."""
    kinds = list(spec.values()) if isinstance(spec, dict) else [FLOAT] * len(spec)
    (n,) = {len(column) for column in columns}
    with _replacing(path) as fh:
        fh.write(",".join(map(_quote, spec)) + "\n")
        for start in range(0, n, _BLOCK):
            rows = zip(*(_cells(kind, column[start : start + _BLOCK]) for kind, column in zip(kinds, columns)))
            fh.write("\n".join(map(",".join, rows)) + "\n")


def _records(cls, path, columns, numbers, fault=None) -> list:
    # one cls(*row) per row (the spec lists its columns in cls's field order);
    # a value that cls rejects names its row, and fault, the fault of the row
    # after the last one given, is raised if every given row passes
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    out = []
    for row_num, *values in zip(numbers, *cells):
        try:
            out.append(cls(*values))
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {row_num}: {exc}") from None
    if fault is not None:
        raise fault
    return out


def write_steady_csv(records, path) -> None:
    """Write steady records (a SteadyTable or SteadyRecords) to CSV; lossless against read_steady_csv."""
    _write_table(path, STEADY_SPEC, SteadyTable.of(records).columns.values())


def read_steady_csv(path) -> SteadyTable:
    """Read steady records as a SteadyTable; raises DataFormatError naming the first bad row.

    Rows are checked in file order; within a row, a cell that does not parse
    is named before a distance that is not positive, and that before a value
    that SteadyRecord rejects.
    """
    columns, numbers, fault = _read_table(path, STEADY_SPEC)
    distance = columns["distance_m"]
    bad = np.flatnonzero(~(np.isfinite(distance) & (distance > 0.0)))
    if bad.size:
        i = bad[0]
        columns = {name: cells[:i] for name, cells in columns.items()}
        fault = DataFormatError(f"{path}: row {numbers[i]}, column distance_m: must be positive")
    try:
        table = SteadyTable(*columns.values())  # the spec lists its columns in SteadyRecord's field order
    except _RowError as exc:
        raise DataFormatError(f"{path}: row {numbers[exc.row]}: {exc}") from None
    if fault is not None:
        raise fault
    return table


def write_gamma_csv(points, path) -> None:
    """Write empirical ceiling-factor points to CSV."""
    _write_table(path, GAMMA_SPEC, _columns(GammaPoint, points))


def read_gamma_csv(path) -> list[GammaPoint]:
    """Read ceiling-factor points written by write_gamma_csv."""
    return _records(GammaPoint, path, *_read_table(path, GAMMA_SPEC))


@dataclass(frozen=True)
class RawSampleStream:
    """Synchronized raw time series from one bench run at one ceiling distance.

    Timestamps must strictly increase; sampling gaps larger than twice the
    median interval are tolerated but flagged with a warning.
    """

    time: np.ndarray  # [s]
    setpoint: np.ndarray  # label per sample
    voltage: np.ndarray
    current: np.ndarray
    thrust: np.ndarray
    torque: np.ndarray | None
    omega: np.ndarray
    radius: float
    distance: float
    config_id: str = "raw"
    prop_count: int = 1
    spacing: float = 0.0

    def __post_init__(self):
        n = len(self.time)
        for name in ("setpoint", "voltage", "current", "thrust", "omega"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"channel {name} length does not match timestamps")
        if self.torque is not None and len(self.torque) != n:
            raise ValueError("channel torque length does not match timestamps")
        dt = np.diff(self.time)
        if n >= 2 and np.any(dt <= 0.0):
            raise ValueError("timestamps must strictly increase")
        if n >= 3:
            gaps = int(np.sum(dt > 2.0 * np.median(dt)))
            if gaps:
                warnings.warn(f"{gaps} sampling gaps exceed twice the median interval")


def read_raw_csv(path, radius, distance, config_id="raw", prop_count=1, spacing=0.0) -> RawSampleStream:
    """Read a raw acquisition CSV (time_s, setpoint, channels) into a stream.

    An all-empty torque_nm column means the rig measured no torque.  A
    non-finite sample, or a time_s not above the one before it, raises
    DataFormatError naming its row and column; of several bad cells, the
    first in row order, then column order, is named.
    """
    columns, numbers, fault = _read_table(path, RAW_SPEC)
    setpoint = np.asarray(columns.pop("setpoint"))
    torque = columns["torque_nm"]
    if isinstance(torque, list):  # cells read by the csv path, None where empty
        if all(v is None for v in torque):
            del columns["torque_nm"]
        else:
            columns["torque_nm"] = np.array(torque, dtype=float)  # an empty cell reads nan, caught below
    time = columns["time_s"]
    rising = np.r_[True, time[1:] > time[:-1]]  # each time above the one before it
    first = {}  # column name: index of its first bad row; one mask at a time, as a log may be large
    for name, values in columns.items():
        ok = np.isfinite(values) & rising if name == "time_s" else np.isfinite(values)
        if not ok.all():
            first[name] = int(np.argmin(ok))
    if first:
        name = min(first, key=first.get)  # the first in row order, then in column order
        i = first[name]
        if name == "torque_nm" and torque[i] is None:
            raise DataFormatError(f"{path}: row {numbers[i]}, column torque_nm: could not parse ''")
        if name == "time_s" and np.isfinite(time[i]):
            detail = f"timestamps must strictly increase, got {time[i]} after {time[i - 1]}"
            raise DataFormatError(f"{path}: row {numbers[i]}, column time_s: {detail}")
        raise DataFormatError(f"{path}: row {numbers[i]}, column {name}: sample must be finite, got {columns[name][i]}")
    if fault is not None:
        raise fault
    return RawSampleStream(
        time=columns["time_s"],
        setpoint=setpoint,
        voltage=columns["voltage_v"],
        current=columns["current_a"],
        thrust=columns["thrust_n"],
        torque=columns.get("torque_nm"),
        omega=columns["omega_rad_s"],
        radius=radius,
        distance=distance,
        config_id=config_id,
        prop_count=prop_count,
        spacing=spacing,
    )


def _moving_stats(values: np.ndarray, width: int):
    # windowed mean and population std via cumulative sums, O(n); centring on
    # the segment mean first keeps the sums small, so the variance of a small
    # ripple on a large level does not cancel away
    offset = np.mean(values)
    centred = values - offset
    cs = np.concatenate([[0.0], np.cumsum(centred)])
    cs2 = np.concatenate([[0.0], np.cumsum(centred * centred)])
    mean = (cs[width:] - cs[:-width]) / width
    var = (cs2[width:] - cs2[:-width]) / width - mean * mean
    return mean + offset, np.sqrt(np.maximum(var, 0.0))


def steady_state_extract(stream: RawSampleStream, window: float = 2.0, stability_tol: float = 0.05) -> SteadyTable:
    """Average the last steady window of each setpoint into one record of a SteadyTable.

    A window is steady when every channel satisfies std/|mean| below
    stability_tol.  Setpoints with no steady window are skipped with a
    warning.  The stream must span at least one window.
    """
    if window <= 0.0:
        raise ValueError(f"window must be positive, got {window}")
    duration = float(stream.time[-1] - stream.time[0]) if len(stream.time) >= 2 else 0.0
    if duration < window:
        raise ValueError(f"stream spans {duration:.3g} s, shorter than the {window:.3g} s window")
    dt = float(np.median(np.diff(stream.time)))
    width = max(2, int(round(window / dt)))

    channels = {
        "voltage": stream.voltage,
        "current": stream.current,
        "thrust": stream.thrust,
        "omega": stream.omega,
    }
    if stream.torque is not None:
        channels["torque"] = stream.torque

    # contiguous runs of one setpoint label are treated as one segment
    labels = np.asarray(stream.setpoint)
    boundaries = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [len(labels)]])
    kept, windows = [], []  # label and window start of each segment with a steady window
    for seg_start, seg_stop in zip(starts, stops):
        label = str(labels[seg_start])
        n = seg_stop - seg_start
        if n < width:
            warnings.warn(f"setpoint {label}: segment shorter than the averaging window; skipped")
            continue
        steady = np.ones(n - width + 1, dtype=bool)
        for values in channels.values():
            mean, std = _moving_stats(np.asarray(values[seg_start:seg_stop], dtype=float), width)
            steady &= std / np.maximum(np.abs(mean), 1e-300) < stability_tol
        if not np.any(steady):
            warnings.warn(f"setpoint {label}: no steady window found; skipped")
            continue
        kept.append(label)
        windows.append(int(np.flatnonzero(steady)[-1]) + seg_start)

    def means(values):
        return np.array([np.mean(values[start : start + width]) for start in windows])

    n = len(kept)
    return SteadyTable(
        [stream.config_id] * n,
        np.full(n, stream.radius),
        [stream.prop_count] * n,
        np.full(n, stream.spacing),
        np.full(n, stream.distance),
        kept,
        means(stream.voltage),
        means(stream.current),
        means(stream.thrust),
        [None] * n if stream.torque is None else means(stream.torque),
        means(stream.omega),
    )


@dataclass
class ParamSet:
    """Fitted model parameters with provenance, as stored in a parameter file."""

    geometry: PropellerGeometry | None = None
    ceiling: CeilingParams | None = None
    motor: MotorParams | None = None
    provenance: dict = field(default_factory=dict)


def write_params(params: ParamSet, path) -> None:
    """Write a parameter set as schema-versioned JSON (deterministic bytes)."""
    doc = {"schema_version": SCHEMA_VERSION}
    for section, (_, keys) in _SECTIONS.items():
        model = getattr(params, section)
        if model is not None:
            doc[section] = {key: getattr(model, name) for key, name in keys.items()}
    if params.provenance:
        doc["provenance"] = params.provenance
    with _replacing(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_params(path) -> ParamSet:
    """Read a parameter file written by write_params.

    A section or key the file format does not declare, or a file that is not
    UTF-8, raises DataFormatError naming it; provenance is free-form.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise DataFormatError(f"{path}: not UTF-8: byte {byte:#04x} at offset {exc.start}") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: top level: expected a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DataFormatError(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    for section in doc:
        if section not in (*_SECTIONS, "provenance", "schema_version"):
            raise DataFormatError(f"{path}: {section}: unknown section")
        if section != "schema_version" and not isinstance(doc[section], dict):
            raise DataFormatError(f"{path}: {section}: expected a JSON object")
    params = ParamSet(provenance=doc.get("provenance", {}))
    for section, (model, keys) in _SECTIONS.items():
        if section in doc:
            for key in doc[section]:
                if key not in keys:
                    raise DataFormatError(f"{path}: {section}: {key}: unknown key")
            values = {name: _param_value(path, section, doc[section], key) for key, name in keys.items()}
            try:
                setattr(params, section, model(**values))
            except (OverflowError, ValueError) as exc:
                raise DataFormatError(f"{path}: invalid parameter file: {exc}") from None
    return params


def _param_value(path, section, values, key):
    # values[key], checked: a number is an int or a float, not a bool.  Each
    # key holds one number, but blade_coeffs, the one optional key (fit-gamma
    # writes a geometry before fit-blade fits it), holds null or three numbers
    value = values.get(key)
    if key == "blade_coeffs":
        if value is None:
            return None
        if type(value) is list and len(value) == 3 and all(type(c) in (int, float) for c in value):
            return tuple(value)
        expected = "null or a list of three numbers"
    elif key not in values:
        raise DataFormatError(f"{path}: {section}: {key}: missing")
    elif type(value) in (int, float):
        return value
    else:
        expected = "a number"
    raise DataFormatError(f"{path}: {section}: {key}: expected {expected}, got {json.dumps(value)}")


def dataset_sha256(path) -> str:
    """Content hash of an input file, for fit provenance."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
