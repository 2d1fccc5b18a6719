"""Shared builders for synthetic motor bench records, a brute-force grid
reference for checking iterative fits, an all-windows reference for
checking steady-state extraction, and a repr table writer for checking the
float-cell kernel."""

import math
import warnings

import numpy as np

from ceilprop import SteadyRecord
from ceilprop.io import FLOAT, FLOAT_OR_EMPTY, INT, _quote


def make_record(voltage, current, torque, omega):
    return SteadyRecord(
        config_id="bench",
        radius=0.023,
        prop_count=1,
        spacing=0.0,
        distance=0.1,
        setpoint="sp",
        voltage=voltage,
        current=current,
        thrust=0.05,
        torque=torque,
        omega=omega,
    )


def synth_motor_records(motor, omegas, c_tau=1.75e-10, rng=None, noise=0.0):
    """Records exactly satisfying the first-order motor model with torque = c_tau*omega^2."""
    records = []
    for omega in omegas:
        torque = c_tau * omega**2
        current = torque * omega / (motor.back_emf * omega)
        voltage = current * motor.resistance + motor.back_emf * omega
        if rng is not None and noise > 0.0:
            voltage *= 1.0 + noise * rng.standard_normal()
            current *= 1.0 + noise * rng.standard_normal()
        records.append(make_record(voltage, current, torque, omega))
    return records


def grid_oracle(objective, bounds, resolution: int = 100):
    """Exhaustive grid minimization of a scalar objective over box bounds.

    Brute-force reference for checking iterative fits: evaluates the
    objective on a full cartesian grid (up to 3 axes) and returns
    (best_params, best_value).  The objective takes a 1-d parameter vector;
    if it also accepts an (n, d) batch and returns (n,) values, the batch
    path is used.
    """
    if len(bounds) == 0:
        raise ValueError("bounds must not be empty")
    if len(bounds) > 3:
        raise ValueError("grid oracle supports at most 3 parameters")
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)

    values = None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scalar-only objectives may complain at the batch probe
            batch = np.asarray(objective(points), dtype=float)
        if batch.shape == (len(points),):
            values = batch
    except Exception:
        values = None
    if values is None:
        values = np.array([float(objective(p)) for p in points])

    best = int(np.argmin(values))
    return points[best].copy(), float(values[best])


CHANNELS = ("voltage", "current", "thrust", "torque", "omega")  # a raw stream's channels, torque maybe None


def window_ratios(stream, start, stop, width):
    """std/|mean| of every window of samples start..stop-1 of stream, one row
    per channel measured, all computed at once by cumulative sums of the
    samples centred on their mean."""
    rows = []
    for name in CHANNELS:
        if getattr(stream, name) is not None:
            values = np.asarray(getattr(stream, name)[start:stop], dtype=float)
            offset = np.mean(values)
            centred = values - offset
            cs = np.concatenate([[0.0], np.cumsum(centred)])
            cs2 = np.concatenate([[0.0], np.cumsum(centred * centred)])
            mean = (cs[width:] - cs[:-width]) / width
            var = (cs2[width:] - cs2[:-width]) / width - mean * mean
            mean, std = mean + offset, np.sqrt(np.maximum(var, 0.0))
            rows.append(std / np.maximum(np.abs(mean), 1e-300))
    return np.array(rows)


def extract_oracle(stream, window=2.0, stability_tol=0.05):
    """The (setpoint, channel means) pairs that steady_state_extract should
    give, found by testing every window of each segment in every channel at
    once and averaging the last window steady in all of them."""
    width = max(2, int(round(window / float(np.median(np.diff(stream.time))))))
    labels = np.asarray(stream.setpoint)
    edges = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(labels)]
    found = []
    for start, stop in zip(edges[:-1], edges[1:]):
        if stop - start < width:
            continue
        steady = (window_ratios(stream, start, stop, width) < stability_tol).all(axis=0)
        if steady.any():
            first = start + int(np.flatnonzero(steady)[-1])
            channels = [getattr(stream, name) for name in CHANNELS]
            found.append((str(labels[start]), [float(np.mean(c[first : first + width])) for c in channels if c is not None]))
    return found


def repr_table(spec, columns) -> str:
    """The text io._write_table writes for columns under spec, made as it
    was before float cells came from a numpy kernel: a FLOAT cell is repr of
    the float, a FLOAT_OR_EMPTY cell too or "" for nan, an INT cell str and
    a TEXT cell quoted as the csv module quotes."""
    kinds = list(spec.values()) if isinstance(spec, dict) else [FLOAT] * len(spec)

    def cells(kind, column):
        if kind == FLOAT:
            return map(repr, np.asarray(column, dtype=float).tolist())
        if kind == FLOAT_OR_EMPTY:
            return ["" if math.isnan(v) else repr(v) for v in np.asarray(column, dtype=float).tolist()]
        return map(str if kind == INT else _quote, column)

    rows = zip(*(cells(kind, column) for kind, column in zip(kinds, columns)))
    return "\n".join([",".join(map(_quote, spec)), *map(",".join, rows)]) + "\n"
