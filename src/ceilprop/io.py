"""Dataset and parameter-file I/O plus steady-state extraction from raw logs.

Steady-state CSV schema (one row per setpoint, UTF-8, LF, '.' decimal):

    config_id,radius_m,prop_count,spacing_m,distance_m,setpoint,
    voltage_v,current_a,thrust_n,torque_nm,omega_rad_s

torque_nm may be empty (rigs with counter-rotating pairs measure no net
torque).  Floats are written in shortest round-trip form, so write-then-read
reproduces records exactly.

Parameter files are schema-versioned JSON holding geometry, ceiling, and
motor sections (all SI) plus free-form fit provenance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bemt import PropellerGeometry
from .core import CeilingParams
from .fitting import SteadyRecord
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

STEADY_COLUMNS = (
    "config_id",
    "radius_m",
    "prop_count",
    "spacing_m",
    "distance_m",
    "setpoint",
    "voltage_v",
    "current_a",
    "thrust_n",
    "torque_nm",
    "omega_rad_s",
)

RAW_COLUMNS = (
    "time_s",
    "setpoint",
    "voltage_v",
    "current_a",
    "thrust_n",
    "torque_nm",
    "omega_rad_s",
)


class DataFormatError(ValueError):
    """A file does not match the expected schema; the message names row and column."""


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _check_header(header, expected, path):
    for name in expected:
        if name not in header:
            raise DataFormatError(f"{path}: missing column: {name}")
    for name in header:
        if name not in expected:
            raise DataFormatError(f"{path}: unexpected column: {name}")


def _parse_float(raw: str, row: int, column: str, path) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DataFormatError(f"{path}: row {row}, column {column}: could not parse {raw!r}") from None


def _parse_int(raw: str, row: int, column: str, path) -> int:
    value = _parse_float(raw, row, column, path)
    if not value.is_integer():
        raise DataFormatError(f"{path}: row {row}, column {column}: expected an integer, got {raw!r}")
    return int(value)


def write_steady_csv(records, path) -> None:
    """Write steady records to CSV; lossless against read_steady_csv."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STEADY_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.config_id,
                    _fmt(r.radius),
                    r.prop_count,
                    _fmt(r.spacing),
                    _fmt(r.distance),
                    r.setpoint,
                    _fmt(r.voltage),
                    _fmt(r.current),
                    _fmt(r.thrust),
                    _fmt(r.torque),
                    _fmt(r.omega),
                ]
            )


def read_steady_csv(path) -> list[SteadyRecord]:
    """Read steady records; raises DataFormatError naming the offending cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected a header row") from None
        _check_header(header, STEADY_COLUMNS, path)
        col = {name: header.index(name) for name in STEADY_COLUMNS}

        records = []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(f"{path}: row {row_num}: expected {len(header)} cells, got {len(row)}")

            def cell(name):
                return row[col[name]]

            distance = _parse_float(cell("distance_m"), row_num, "distance_m", path)
            if distance <= 0.0 or not math.isfinite(distance):
                raise DataFormatError(f"{path}: row {row_num}, column distance_m: must be positive")
            torque_raw = cell("torque_nm").strip()
            try:
                records.append(
                    SteadyRecord(
                        config_id=cell("config_id"),
                        radius=_parse_float(cell("radius_m"), row_num, "radius_m", path),
                        prop_count=_parse_int(cell("prop_count"), row_num, "prop_count", path),
                        spacing=_parse_float(cell("spacing_m"), row_num, "spacing_m", path),
                        distance=distance,
                        setpoint=cell("setpoint"),
                        voltage=_parse_float(cell("voltage_v"), row_num, "voltage_v", path),
                        current=_parse_float(cell("current_a"), row_num, "current_a", path),
                        thrust=_parse_float(cell("thrust_n"), row_num, "thrust_n", path),
                        torque=None if torque_raw == "" else _parse_float(torque_raw, row_num, "torque_nm", path),
                        omega=_parse_float(cell("omega_rad_s"), row_num, "omega_rad_s", path),
                    )
                )
            except ValueError as exc:
                if isinstance(exc, DataFormatError):
                    raise
                raise DataFormatError(f"{path}: row {row_num}: {exc}") from None
    return records


GAMMA_COLUMNS = ("delta", "gamma", "stderr", "n_points")


def write_gamma_csv(points, path) -> None:
    """Write empirical ceiling-factor points to CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(GAMMA_COLUMNS)
        for p in points:
            writer.writerow([_fmt(p.delta), _fmt(p.gamma), _fmt(p.stderr), p.n_points])


def read_gamma_csv(path):
    """Read ceiling-factor points written by write_gamma_csv."""
    from .fitting import GammaPoint

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected a header row") from None
        _check_header(header, GAMMA_COLUMNS, path)
        col = {name: header.index(name) for name in GAMMA_COLUMNS}
        points = []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                points.append(
                    GammaPoint(
                        delta=_parse_float(row[col["delta"]], row_num, "delta", path),
                        gamma=_parse_float(row[col["gamma"]], row_num, "gamma", path),
                        stderr=_parse_float(row[col["stderr"]], row_num, "stderr", path),
                        n_points=_parse_int(row[col["n_points"]], row_num, "n_points", path),
                    )
                )
            except ValueError as exc:
                if isinstance(exc, DataFormatError):
                    raise
                raise DataFormatError(f"{path}: row {row_num}: {exc}") from None
    return points


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
    """Read a raw acquisition CSV (time_s, setpoint, channels) into a stream."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected a header row") from None
        _check_header(header, RAW_COLUMNS, path)
        col = {name: header.index(name) for name in RAW_COLUMNS}
        rows = []
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(f"{path}: row {row_num}: expected {len(header)} cells, got {len(row)}")
            rows.append(row)

    def column(name, parse=True):
        out = []
        for i, row in enumerate(rows, start=2):
            raw = row[col[name]]
            out.append(_parse_float(raw, i, name, path) if parse else raw)
        return out

    torque_raw = [row[col["torque_nm"]].strip() for row in rows]
    if all(v == "" for v in torque_raw):
        torque = None
    else:
        torque = np.array([_parse_float(v, i, "torque_nm", path) for i, v in enumerate(torque_raw, start=2)])
    return RawSampleStream(
        time=np.array(column("time_s")),
        setpoint=np.array(column("setpoint", parse=False)),
        voltage=np.array(column("voltage_v")),
        current=np.array(column("current_a")),
        thrust=np.array(column("thrust_n")),
        torque=torque,
        omega=np.array(column("omega_rad_s")),
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


def steady_state_extract(stream: RawSampleStream, window: float = 2.0, stability_tol: float = 0.05) -> list[SteadyRecord]:
    """Average the last steady window of each setpoint into one record.

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

    records = []
    # contiguous runs of one setpoint label are treated as one segment
    labels = np.asarray(stream.setpoint)
    boundaries = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [len(labels)]])
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
        last = int(np.flatnonzero(steady)[-1]) + seg_start
        sl = slice(last, last + width)
        records.append(
            SteadyRecord(
                config_id=stream.config_id,
                radius=stream.radius,
                prop_count=stream.prop_count,
                spacing=stream.spacing,
                distance=stream.distance,
                setpoint=label,
                voltage=float(np.mean(stream.voltage[sl])),
                current=float(np.mean(stream.current[sl])),
                thrust=float(np.mean(stream.thrust[sl])),
                torque=None if stream.torque is None else float(np.mean(stream.torque[sl])),
                omega=float(np.mean(stream.omega[sl])),
            )
        )
    return records


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
    if params.geometry is not None:
        g = params.geometry
        doc["geometry"] = {
            "radius_m": g.radius,
            "figure_of_merit": g.figure_of_merit,
            "blade_coeffs": list(g.blade_coeffs) if g.blade_coeffs is not None else None,
        }
    if params.ceiling is not None:
        doc["ceiling"] = {
            "asymmetry": params.ceiling.asymmetry,
            "recirculation": params.ceiling.recirculation,
        }
    if params.motor is not None:
        doc["motor"] = {
            "resistance_ohm": params.motor.resistance,
            "back_emf_v_s_per_rad": params.motor.back_emf,
        }
    if params.provenance:
        doc["provenance"] = params.provenance
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_params(path) -> ParamSet:
    """Read a parameter file written by write_params."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DataFormatError(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    params = ParamSet(provenance=doc.get("provenance", {}))
    try:
        if "geometry" in doc:
            g = doc["geometry"]
            coeffs = g.get("blade_coeffs")
            params.geometry = PropellerGeometry(
                radius=g["radius_m"],
                figure_of_merit=g["figure_of_merit"],
                blade_coeffs=tuple(coeffs) if coeffs is not None else None,
            )
        if "ceiling" in doc:
            params.ceiling = CeilingParams(
                asymmetry=doc["ceiling"]["asymmetry"],
                recirculation=doc["ceiling"]["recirculation"],
            )
        if "motor" in doc:
            params.motor = MotorParams(
                resistance=doc["motor"]["resistance_ohm"],
                back_emf=doc["motor"]["back_emf_v_s_per_rad"],
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: invalid parameter file: {exc}") from None
    return params


def dataset_sha256(path) -> str:
    """Content hash of an input file, for fit provenance."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
