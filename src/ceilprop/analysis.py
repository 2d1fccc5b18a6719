"""Derived studies on fitted models: hover power vs ceiling distance, thrust
amplification, flow-resonance scaling, and anomaly flagging."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bemt import PropellerGeometry, inflow_ratio
from .core import CeilingParams, Environment, aerodynamic_power, ceiling_coefficient
from .motor import MotorParams, input_power_from_mechanical

__all__ = [
    "PowerCurvePoint",
    "ResonanceScan",
    "power_saving_curve",
    "thrust_amplification",
    "resonance_metric",
    "resonance_scan",
    "anomaly_scan",
]


@dataclass(frozen=True)
class PowerCurvePoint:
    """Hover power requirement at one propeller-to-ceiling distance."""

    distance: float  # [m]
    delta: float
    gamma: float
    mechanical_power: float  # [W]
    input_power: float  # [W]

    def __post_init__(self):
        if not (self.input_power >= self.mechanical_power > 0.0):
            raise ValueError("powers must satisfy input >= mechanical > 0")


def _power_columns(thrust_req, geom, ceiling, motor, c_tau_const, distances, env):
    # power_saving_curve's columns as arrays: distance, delta, gamma, mechanical and input power
    if thrust_req <= 0.0:
        raise ValueError(f"required thrust must be positive, got {thrust_req}")
    distance = np.atleast_1d(np.asarray(distances, dtype=float))
    bad = ~(np.isfinite(distance) & (distance > 0.0))
    if np.any(bad):
        raise ValueError(f"gap distance must be positive, got {distance[bad][0]}")
    delta = geom.radius / distance
    gamma = ceiling_coefficient(delta, ceiling)
    p_mech = aerodynamic_power(thrust_req, gamma, env, geom.disc_area) / geom.figure_of_merit
    p_in = input_power_from_mechanical(p_mech, c_tau_const, motor)
    if not np.all((p_in >= p_mech) & (p_mech > 0.0)):  # a NaN fails too
        raise ValueError("powers must satisfy input >= mechanical > 0")
    return distance, delta, gamma, p_mech, p_in


def power_saving_curve(
    thrust_req: float,
    geom: PropellerGeometry,
    ceiling: CeilingParams,
    motor: MotorParams,
    c_tau_const: float,
    distances,
    env: Environment,
) -> list[PowerCurvePoint]:
    """Shaft and input power needed to hold a fixed per-propeller thrust.

    For each ceiling distance: the induced power falls by the ceiling factor,
    the shaft power is induced power / figure of merit, and the electrical
    input power follows from the motor model with a constant torque
    coefficient c_tau_const for the regime.
    """
    columns = _power_columns(thrust_req, geom, ceiling, motor, c_tau_const, distances, env)
    return [PowerCurvePoint(*row) for row in zip(*(c.tolist() for c in columns))]


def thrust_amplification(gamma: float) -> float:
    """Equal-power thrust multiplication factor gamma**(2/3).

    At fixed aerodynamic power, thrust scales with the 2/3 power of the
    ceiling factor.
    """
    if gamma < 1.0:
        raise ValueError(f"ceiling factor must be >= 1, got {gamma}")
    return gamma ** (2.0 / 3.0)


def resonance_metric(geom: PropellerGeometry, ceiling: CeilingParams, delta: float) -> float:
    """Stationary-wave scaling product delta * (v_i / (omega R)) at one gap ratio.

    Flow-driven standing waves in the gap occur where this product crosses a
    rig-dependent constant, so dips in efficiency measured on different
    propellers should line up at similar values of the product.
    """
    gamma = ceiling_coefficient(delta, ceiling)
    return float(delta) * inflow_ratio(geom, gamma, delta)


@dataclass(frozen=True)
class ResonanceScan:
    """Resonance-scaling diagnostic over a grid of gap ratios."""

    deltas: np.ndarray
    inflow_ratios: np.ndarray  # v_i / (omega R) per grid point
    products: np.ndarray  # delta * inflow ratio

    def __post_init__(self):
        if np.any(self.inflow_ratios <= 0.0):
            raise ValueError("inflow ratio must stay positive over the scan")


def resonance_scan(geom: PropellerGeometry, ceiling: CeilingParams, deltas) -> ResonanceScan:
    """Evaluate the resonance product over a grid of gap ratios."""
    d = np.asarray(deltas, dtype=float)
    gamma = ceiling_coefficient(d, ceiling)
    ratios = inflow_ratio(geom, gamma, d)
    return ResonanceScan(deltas=d, inflow_ratios=np.asarray(ratios), products=d * ratios)


def anomaly_scan(points, fitted: CeilingParams, threshold: float = 0.10) -> list[float]:
    """Gap ratios where the measured ceiling factor dips below the fitted model.

    One-sided: only model-over-data residuals count, since the physical
    anomaly is an unmodeled efficiency loss.  A point is flagged when
    (model - measured) / model exceeds threshold.
    """
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    pts = list(points)
    delta = np.array([p.delta for p in pts], dtype=float)
    measured = np.array([p.gamma for p in pts], dtype=float)
    model = ceiling_coefficient(delta, fitted)
    return delta[(model - measured) / model > threshold].tolist()
