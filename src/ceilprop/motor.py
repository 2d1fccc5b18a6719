"""First-order brushed-motor model and its identification from bench data.

The power functions accept scalars or numpy arrays, which broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _scalar_or_array
from .leastsq import FitReport, IdentifiabilityError, slope_through_origin

__all__ = [
    "MotorParams",
    "mechanical_power_from_torque",
    "mechanical_power_from_motor",
    "identify_motor",
    "input_power_from_mechanical",
]


@dataclass(frozen=True)
class MotorParams:
    """Steady-state constants of a brushed DC motor."""

    resistance: float  # internal resistance [ohm]
    back_emf: float  # back-EMF constant [V s/rad]

    def __post_init__(self):
        if not (math.isfinite(self.resistance) and self.resistance > 0.0):
            raise ValueError(f"resistance must be positive, got {self.resistance}")
        if not (math.isfinite(self.back_emf) and self.back_emf > 0.0):
            raise ValueError(f"back-EMF constant must be positive, got {self.back_emf}")


def mechanical_power_from_torque(torque, omega):
    """Shaft power [W] as torque times angular rate."""
    torque, omega = np.asarray(torque, dtype=float), np.asarray(omega, dtype=float)
    if np.any(torque < 0.0) or np.any(omega < 0.0):
        raise ValueError("torque and rotation rate must be >= 0")
    return _scalar_or_array(torque * omega)


def mechanical_power_from_motor(current, omega, motor: MotorParams):
    """Shaft power [W] from the motor model: electrical power minus resistive loss."""
    current, omega = np.asarray(current, dtype=float), np.asarray(omega, dtype=float)
    if np.any(current < 0.0) or np.any(omega < 0.0):
        raise ValueError("current and rotation rate must be >= 0")
    return _scalar_or_array(current * motor.back_emf * omega)


def identify_motor(records) -> tuple[MotorParams, FitReport]:
    """Identify (resistance, back-EMF constant) from steady bench records.

    Two linear stages, both through the origin as the model has no offsets:
      1. resistance from input power = I^2 * R + shaft power, with the shaft
         power computed from measured torque;
      2. back-EMF constant from voltage = I * R + k * omega.

    records are a SteadyTable or SteadyRecords of one propeller in one
    configuration: records that mix radius or config_id raise ValueError.
    Raises IdentifiabilityError for fewer than 2 records, a record without
    torque, or degenerate data (all currents equal, or all rotation rates
    equal).
    """
    from .fitting import _one_rig  # fitting imports this module

    table = _one_rig(records)
    if len(table) < 2:
        raise IdentifiabilityError("need at least 2 records to identify the motor")
    current, voltage, torque, omega = table.current, table.voltage, table.torque, table.omega
    if np.isnan(torque).any():
        raise IdentifiabilityError("motor identification needs torque on every record")
    if np.ptp(current) <= 1e-12 * max(1.0, float(np.max(np.abs(current)))):
        raise IdentifiabilityError("all currents are equal; resistance is not identifiable")
    if np.ptp(omega) <= 1e-12 * max(1.0, float(np.max(np.abs(omega)))):
        raise IdentifiabilityError("all rotation rates are equal; back-EMF is not identifiable")

    p_in = current * voltage
    p_mech = mechanical_power_from_torque(torque, omega)

    # stage 1: (P_in - P_mech) = I^2 * R
    i_sq = current * current
    resistance, _ = slope_through_origin(i_sq, p_in - p_mech)
    res1 = (p_in - p_mech) - resistance * i_sq
    if resistance <= 0.0:
        raise IdentifiabilityError(f"identified resistance is not positive ({resistance:.3g} ohm)")

    # stage 2: (V - I*R) = k * omega
    emf = voltage - current * resistance
    back_emf, _ = slope_through_origin(omega, emf)
    res2 = emf - back_emf * omega
    if back_emf <= 0.0:
        raise IdentifiabilityError(f"identified back-EMF constant is not positive ({back_emf:.3g} V s/rad)")

    n = len(table)
    report = FitReport(
        parameters={
            "resistance": resistance,
            "back_emf": back_emf,
            "power_stage_rms": float(np.sqrt(res1 @ res1 / n)),
            "voltage_stage_rms": float(np.sqrt(res2 @ res2 / n)),
        },
        residual_rms=float(np.sqrt(res2 @ res2 / n)),
        n_obs=n,
        converged=True,
        iterations=0,
    )
    return MotorParams(resistance=resistance, back_emf=back_emf), report


def input_power_from_mechanical(p_mech, c_tau, motor: MotorParams):
    """Electrical input power [W] needed to deliver a shaft power.

    With torque = c_tau * omega^2 the resistive loss I^2*R becomes a power-law
    in the shaft power:  P_in = c_tau^(2/3) k^-2 R P_mech^(4/3) + P_mech.
    c_tau is treated as a constant of the operating regime.
    """
    p_mech, c_tau = np.asarray(p_mech, dtype=float), np.asarray(c_tau, dtype=float)
    if np.any(p_mech <= 0.0) or np.any(c_tau <= 0.0):
        raise ValueError("shaft power and torque coefficient must be positive")
    loss = c_tau ** (2.0 / 3.0) / motor.back_emf**2 * motor.resistance * p_mech ** (4.0 / 3.0)
    return _scalar_or_array(loss + p_mech)
