"""Shared builders for synthetic motor bench records, and a brute-force grid
reference for checking iterative fits."""

import warnings

import numpy as np

from ceilprop import SteadyRecord


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
