"""Dataset and parameter-file I/O plus steady-state extraction from raw logs.

Every CSV table (UTF-8, LF, '.' decimal) is declared once, as a column spec
mapping each column name to the kind of its cells, and is read by
_read_table and written by _write_table.  _read_table parses a body with
one np.loadtxt, which reads the file by path in blocks, into a table
allocated once, a text cell into a 16-byte field decoded once per run of
equal cells, and falls back to the csv module for a body that this C path
might read differently.  The steady-state table holds one row per setpoint:

    config_id,radius_m,prop_count,spacing_m,distance_m,setpoint,
    voltage_v,current_a,thrust_n,torque_nm,omega_rad_s

torque_nm may be empty (rigs with counter-rotating pairs measure no net
torque).  _write_table writes columns a block of rows at a time, each row
joined by "," and ended by LF: floats as repr's bytes (shortest round-trip,
so write-then-read reproduces records exactly), made for every float column
of a block at once by the numpy kernel _shortest.float_text in about 0.55
times repr's time, ints as str, an empty cell as nothing, and a text cell
holding a comma, quote, CR or LF in quotes with its quotes doubled, as the
csv module quotes.  Every file is written beside its target and renamed over
it, so a failed write leaves the old file as it was.

Parameter files are schema-versioned JSON holding geometry, ceiling, and
motor sections (all SI) plus free-form fit provenance.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import shutil
import stat
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._shortest import float_text
from .bemt import PropellerGeometry
from .core import CeilingParams
from .fitting import GammaPoint, SteadyTable, _columns, _points, _RowError
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
        return np.array(cells, dtype=str)
    if kind == FLOAT:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells))
    if kind == FLOAT_OR_EMPTY:
        return [float(c) if c.strip() else None for c in cells]
    return _integers(list(map(float, cells)))


def _parses(cell, kind) -> bool:
    # whether _parse_column reads cell as a cell of kind
    try:
        _parse_column([cell], kind)
    except ValueError:
        return False
    return True


_SCAN_BYTES = 1 << 16  # larger chunks raise the peak memory of a read
# a NUL ends numpy's text cell, and its float parser strips \x1c-\x1f around
# a number as whitespace where float() rejects the cell
_DECLINED_BYTES = (b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_LABEL_BYTES = 16  # the bytes field of a text cell on the C path


def _plain_body_lines(path):
    # the number of lines below the header, or None when the file is not a
    # regular one, has a real name that np.loadtxt decompresses, or holds a
    # byte of _DECLINED_BYTES or a CR outside a CRLF
    if not stat.S_ISREG(os.stat(path).st_mode) or os.path.realpath(path).endswith((".gz", ".bz2", ".xz", ".lzma")):
        return None
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_BYTES):
            if chunk.endswith(b"\r"):
                chunk += fh.read(1)  # so that no CRLF is split between chunks
            if any(byte in chunk for byte in _DECLINED_BYTES) or (
                b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n")
            ):
                return None
            # numpy counts the LFs several times faster than bytes.count
            lines, last = lines + np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10), chunk[-1:]
    return lines - (last == b"\n")


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


def _parse_plain(path, header, spec, lines, first):
    # the body through numpy's C tokenizer in one pass, into a table allocated
    # once: a text cell into a bytes field, every other cell as a float, but a
    # FLOAT_OR_EMPTY column empty in first (the first body row) into a 1-byte
    # field, returned as [None] * lines.  None if the body is not UTF-8, the
    # tokenizer rejects a cell (float() may read it), does not find one row per
    # line (it skips a blank line) and one cell per header column, a column
    # empty in the first row is not empty in every row, or _labels rejects a cell
    empty = {name for name, cell in zip(header, first) if spec[name] == FLOAT_OR_EMPTY and cell == ""}
    dtype = [(name, "S1" if name in empty else f"S{_LABEL_BYTES}" if spec[name] == TEXT else "f8") for name in header]
    try:
        path = os.path.realpath(path)  # which numpy cannot take for a URL; it reads a path in blocks
        table = np.loadtxt(path, dtype, delimiter=",", quotechar='"', comments=None, skiprows=1, ndmin=1, encoding="utf-8")
        if table.shape != (lines,) or any((table[name] != b"").any() for name in empty):
            return None
        columns = {}
        for name, kind in spec.items():
            if name in empty:
                columns[name] = [None] * lines
            elif kind == TEXT:
                columns[name] = _labels(table, name)
            elif kind == INT:
                columns[name] = _integers(table[name].tolist())
            else:
                columns[name] = table[name]
    except ValueError:
        return None
    return columns


def _utf8_blocks(fh, path):
    # the lines of fh, a file opened with errors="surrogateescape", a block at
    # a time, as a generator resumed once per line adds about 5% to a csv-path
    # read; the first line alone, so that a C-path read holds no block of the
    # body.  The decoder turns a byte that is not UTF-8 into a lone surrogate
    # (U+DC80-U+DCFF): the first line holding one raises DataFormatError, once
    # the lines above it are yielded
    n, hint = 0, 1  # the lines above the block, and the size hint of the next
    while block := fh.readlines(hint):
        if not all(map(str.isascii, block)):  # O(1) a line: CPython keeps the flag with the str
            for i, line in enumerate(block):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    yield block[:i]
                    byte = ord(line[exc.start]) - 0xDC00
                    raise DataFormatError(f"{path}: line {n + i + 1}: not UTF-8: byte {byte:#04x}") from None
        n, hint = n + len(block), _SCAN_BYTES
        yield block


def _cell_over_limit(path, row_num) -> DataFormatError:
    # the one csv.Error of the default dialect, a cell over the field limit,
    # named by the row that opens the cell; a quoted cell left open gives it
    limit = csv.field_size_limit()
    return DataFormatError(f"{path}: row {row_num}: quoted cell not closed, or a cell over {limit} characters")


def _read_table(path, spec, build):
    """Read the CSV table that spec declares and return build(columns).

    columns maps each column of spec, in its order, to its cells: FLOAT
    columns as float64 arrays, INT columns as lists of int, TEXT columns as
    str arrays, and FLOAT_OR_EMPTY columns as float64 arrays or as lists
    with None for an empty cell.  build raises
    _RowError(i, message[, column]) for the first value it rejects, i the
    index of its row in columns.  A bad header, or a non-UTF-8 byte in the
    header line, raises DataFormatError at once.  Blank rows are skipped but
    counted.  Of the other rows, the first bad one is named, whatever its
    fault: a wrong cell count, a line holding a byte that is not UTF-8
    (named by its line, even inside a quoted cell), a quoted cell not closed
    (named by its row once the csv module's field limit is passed), a cell
    that does not parse or a value that build rejects; build is given only
    the rows above the first row that does not read.  A line ends at an LF,
    a CRLF or a lone CR, as a row does for the csv module.

    The C path parses the body with numpy's C tokenizer.  The csv path
    (csv.reader, then float() on each cell) reads it instead wherever the
    tokenizer might not read the same: an empty body; a file that is not a
    regular one, or holds a NUL, a byte from \x1c to \x1f or a CR outside a
    CRLF; a real name ending in .gz, .bz2, .xz or .lzma, which numpy would
    decompress; a body that is not UTF-8; a cell the tokenizer rejects (a
    bad cell, or one that only float() reads, such as '1_0'); a
    FLOAT_OR_EMPTY column that holds both empty and other cells; a text
    cell of 16 bytes or more, or one that is not ASCII; or a row count or
    cell count that differs from the line count and the header (a blank
    line, which the tokenizer skips, a quoted line break, a short or long
    row).  Only the csv path names a faulty cell.
    """
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(itertools.chain.from_iterable(_utf8_blocks(fh, path)))
        try:
            header = next(reader, None)
        except csv.Error:
            raise _cell_over_limit(path, 1) from None
        if header is None:
            raise DataFormatError(f"{path}: empty file, expected a header row")
        _check_header(header, spec, path)
        lines = _plain_body_lines(path)
        columns, fault, numbers = None, None, range(2, 2 + (lines or 0))
        if lines:
            try:
                first = next(reader, [])
            except csv.Error:
                raise _cell_over_limit(path, 2) from None
            columns = _parse_plain(path, header, spec, lines, first)
            reader = itertools.chain([first], reader)  # for the csv path, should the C path decline
        if columns is None:
            rows, numbers, row_num = [], [], 1  # the rows above the first that does not read, each one's file row
            try:
                for row_num, row in enumerate(reader, start=2):
                    if row:
                        numbers.append(row_num)
                        if len(row) != len(header):
                            fault = _RowError(len(rows), f"expected {len(header)} cells, got {len(row)}")
                            break
                        rows.append(row)
            except DataFormatError as exc:  # a byte that is not UTF-8
                fault = exc
            except csv.Error:
                fault = _cell_over_limit(path, row_num + 1)
            index = {name: header.index(name) for name in spec}

            def parse(rows):
                return {name: _parse_column([row[index[name]] for row in rows], kind) for name, kind in spec.items()}

            try:
                columns = parse(rows)
            except ValueError:  # parse cell by cell only now, to name the first bad one
                i, name = next(
                    (i, name) for i, row in enumerate(rows) for name in spec if not _parses(row[index[name]], spec[name])
                )
                cell = rows[i][index[name]]
                problem = "expected an integer, got" if _parses(cell, FLOAT) else "could not parse"
                fault, rows = _RowError(i, f"{problem} {cell!r}", name), rows[:i]
                columns = parse(rows)
    try:
        if fault is None:
            return build(columns)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the rows are only judged, as the file is rejected
            build(columns)
    except _RowError as exc:
        fault = exc
    if isinstance(fault, _RowError):
        column = "" if fault.column is None else f", column {fault.column}"
        fault = DataFormatError(f"{path}: row {numbers[fault.row]}{column}: {fault.message}")
    raise fault


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
_WINDOW_BLOCK = 256  # the last windows of a segment, tested for steadiness before all the windows before them


def _quote(cell) -> str:
    # csv's minimal quoting: a cell holding a comma, a quote or a line break is
    # quoted, with each quote doubled
    cell = str(cell)
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_table(path, spec, columns) -> None:
    """Write columns, one sequence of cells per column of spec, under the
    header of spec: a column spec or, for an all-float table, its column names."""
    kinds = list(spec.values()) if isinstance(spec, dict) else [FLOAT] * len(spec)
    floats = [j for j, kind in enumerate(kinds) if kind in (FLOAT, FLOAT_OR_EMPTY)]
    (n,) = {len(column) for column in columns}
    with _replacing(path) as fh:
        fh.write(",".join(map(_quote, spec)) + "\n")
        for start in range(0, n, _BLOCK):
            block = [column[start : start + _BLOCK] for column in columns]
            cells = [map(str if kind == INT else _quote, column) for kind, column in zip(kinds, block)]
            texts = float_text([block[j] for j in floats], [kinds[j] == FLOAT_OR_EMPTY for j in floats]) if floats else ()
            for j, text in zip(floats, texts):  # nan is an empty cell in a FLOAT_OR_EMPTY column
                cells[j] = text
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_steady_csv(records, path) -> None:
    """Write steady records (a SteadyTable or SteadyRecords) to CSV; lossless against read_steady_csv."""
    _write_table(path, STEADY_SPEC, SteadyTable.of(records).columns.values())


def read_steady_csv(path) -> SteadyTable:
    """Read steady records as a SteadyTable; raises DataFormatError naming the first bad row.

    Rows are checked in file order; within a row, a cell that does not parse
    is named before a distance that is not positive, and that before a value
    that SteadyRecord rejects.
    """

    def build(columns):
        # the spec lists its columns in SteadyRecord's field order, which checks distance first
        try:
            return SteadyTable(*columns.values())
        except _RowError as exc:
            if 0.0 < columns["distance_m"][exc.row] < math.inf:
                raise
            raise _RowError(exc.row, "must be positive", "distance_m") from None

    return _read_table(path, STEADY_SPEC, build)


def write_gamma_csv(points, path) -> None:
    """Write empirical ceiling-factor points to CSV."""
    _write_table(path, GAMMA_SPEC, _columns(GammaPoint, points))


def read_gamma_csv(path) -> list[GammaPoint]:
    """Read ceiling-factor points written by write_gamma_csv."""
    return _read_table(path, GAMMA_SPEC, _points)  # the spec's columns are GammaPoint's fields


_CHANNELS = ("time", "setpoint", "voltage", "current", "thrust", "torque", "omega")  # RawSampleStream's, per sample


@dataclass(frozen=True)
class RawSampleStream:
    """Synchronized raw time series from one bench run at one ceiling distance.

    Samples must be finite and timestamps strictly increase, or a ValueError
    names the channel and index of the first bad sample; sampling gaps larger
    than twice the median interval are tolerated but flagged with a warning.
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
        dt = np.diff(self.time)
        first = {}  # channel: index of its first bad sample; one mask at a time, as a log may be large
        for name in _CHANNELS:
            channel = getattr(self, name)
            if channel is not None and len(channel) != len(self.time):
                raise ValueError(f"channel {name} length does not match timestamps")
            if name == "setpoint" or channel is None:
                continue
            ok = np.isfinite(channel)
            if name == "time":
                ok[1:] &= dt > 0.0
            if not ok.all():
                first[name] = int(np.argmin(ok))
        if first:
            name = min(first, key=first.get)  # the first in row order, then in channel order
            i = first[name]
            value = getattr(self, name)[i]
            if name == "time" and np.isfinite(value):
                raise _RowError(i, f"timestamps must strictly increase, got {value} after {self.time[i - 1]}", name)
            raise _RowError(i, f"sample must be finite, got {value}", name)
        # the median sampling interval, which steady_state_extract reads too
        object.__setattr__(self, "_interval", float(np.median(dt, overwrite_input=True)) if len(dt) else math.nan)
        if len(dt) >= 2:
            gaps = int(np.sum(dt > 2.0 * self._interval))  # the count ignores dt's order
            if gaps:
                warnings.warn(f"{gaps} sampling gaps exceed twice the median interval")


def read_raw_csv(path, radius, distance, config_id="raw", prop_count=1, spacing=0.0) -> RawSampleStream:
    """Read a raw acquisition CSV (time_s, setpoint, channels) into a stream.

    An all-empty torque_nm column means the rig measured no torque.  An
    empty cell in a torque_nm column that is not all empty, or a sample that
    RawSampleStream rejects, raises DataFormatError naming its row and
    column; of several bad cells, the first in row order, then column order,
    is named.
    """

    def build(columns):
        # the spec lists its columns in RawSampleStream's field order
        torque = columns["torque_nm"]
        if isinstance(torque, list):  # None where empty
            columns["torque_nm"] = None if all(v is None for v in torque) else np.array(torque, dtype=float)
        try:
            return RawSampleStream(*columns.values(), radius, distance, config_id, prop_count, spacing)
        except _RowError as exc:  # an empty torque cell reads nan, and is named as empty
            message = "could not parse ''" if exc.column == "torque" and torque[exc.row] is None else exc.message
            raise _RowError(exc.row, message, dict(zip(_CHANNELS, RAW_SPEC))[exc.column]) from None

    return _read_table(path, RAW_SPEC, build)


def _moving_stats(values: np.ndarray, width: int, start: int, stop: int):
    # the mean and population std of windows start..stop-1 of values (window k
    # is values[k : k + width]) by sums from values[0], so a window's figures do
    # not depend on start and stop; centring on the mean of values keeps the
    # sums small, so the variance of a small ripple on a large level survives
    offset = np.mean(values)
    centred = values[: stop + width - 1] - offset
    sums = np.zeros((2, len(centred) + 1))  # the cumulative sums of centred and of its square
    np.cumsum(centred, out=sums[0, 1:])
    np.cumsum(np.multiply(centred, centred, out=centred), out=sums[1, 1:])
    mean, square = (sums[:, start + width :] - sums[:, start:stop]) / width
    return mean + offset, np.sqrt(np.maximum(square - mean * mean, 0.0))


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
    width = max(2, int(round(window / stream._interval)))
    names = [name for name in _CHANNELS[2:] if getattr(stream, name) is not None]  # torque may be missing

    # contiguous runs of one setpoint label are treated as one segment
    labels = np.asarray(stream.setpoint)
    edges = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(labels)]
    kept, means = [], []  # label and channel means of each segment with a steady window
    for seg_start, seg_stop in itertools.pairwise(edges):
        label = str(labels[seg_start])
        n = seg_stop - seg_start
        if n < width:
            warnings.warn(f"setpoint {label}: segment shorter than the averaging window; skipped")
            continue
        cut = max(n - width + 1 - _WINDOW_BLOCK, 0)
        for start, stop in ((cut, n - width + 1), (0, cut)):  # the last windows, then all the windows before them
            steady = np.ones(stop - start, dtype=bool)
            for name in names:  # one channel at a time, as stacking them raises the peak memory several times
                values = np.asarray(getattr(stream, name)[seg_start:seg_stop], dtype=float)
                mean, std = _moving_stats(values, width, start, stop)
                steady &= std / np.maximum(np.abs(mean), 1e-300) < stability_tol
                if not steady.any():  # on to the block before this one
                    break
            else:  # a window of this block is steady in every channel
                break
        else:
            warnings.warn(f"setpoint {label}: no steady window found; skipped")
            continue
        kept.append(label)
        start += int(np.flatnonzero(steady)[-1]) + seg_start
        means.append([np.mean(getattr(stream, name)[start : start + width]) for name in names])

    n = len(kept)
    columns = dict(zip(names, np.reshape(means, (n, len(names))).T))
    return SteadyTable(
        [stream.config_id] * n,
        np.full(n, stream.radius),
        [stream.prop_count] * n,
        np.full(n, stream.spacing),
        np.full(n, stream.distance),
        kept,
        *(columns.get(name, [None] * n) for name in _CHANNELS[2:]),
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
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise DataFormatError(f"{path}: not UTF-8: byte {byte:#04x} at offset {exc.start}") from None
        except (RecursionError, ValueError) as exc:  # bad syntax, deep nesting, an int over the digit limit
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
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
