"""Momentum theory for a propeller spinning close beneath a ceiling.

A nearby ceiling forces the upstream air to enter the rotor disc radially,
which lowers the pressure on the ceiling and lets the propeller produce the
same thrust with less induced power.  The strength of the effect is captured
by a dimensionless ceiling factor (>= 1 for a single rotor) that depends on
the propeller-to-ceiling ratio delta = radius / gap distance.

All quantities are SI.  Functions are pure and accept scalars or numpy
arrays for ``delta`` (and, in ``aerodynamic_power``, for every argument);
delta = 0 encodes "no ceiling".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Environment",
    "CeilingParams",
    "FlowState",
    "ceiling_coefficient",
    "induced_velocity",
    "aerodynamic_power",
    "momentum_residual",
    "radial_velocity",
    "holding_force",
    "flow_state",
]


@dataclass(frozen=True)
class Environment:
    """Ambient air properties."""

    air_density: float = 1.2  # [kg/m^3]

    def __post_init__(self):
        if not (math.isfinite(self.air_density) and self.air_density > 0.0):
            raise ValueError(f"air_density must be positive, got {self.air_density}")


@dataclass(frozen=True)
class CeilingParams:
    """Lumped coefficients of the ceiling-factor model.

    asymmetry amplifies the ceiling pressure through non-axisymmetric inflow
    (1.0 recovers the ideal axisymmetric case); recirculation removes a
    fraction of the terminal wake momentum, scaled by delta**2, and models
    wake re-entry near the ceiling.
    """

    asymmetry: float
    recirculation: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.asymmetry) and self.asymmetry >= 1.0):
            raise ValueError(f"asymmetry must be >= 1, got {self.asymmetry}")
        if not (math.isfinite(self.recirculation) and self.recirculation >= 0.0):
            raise ValueError(f"recirculation must be >= 0, got {self.recirculation}")


def _delta_value(delta):
    """Accept a float or array of ratios; validate >= 0."""
    d = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d < 0.0):
        raise ValueError("gap ratio must be finite and >= 0")
    return float(d) if d.ndim == 0 else d


def _scalar_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _ceiling_coefficient(delta, asymmetry, recirculation):
    # Unvalidated ceiling factor; the arguments broadcast, so fits call it with parameter columns
    b = 1.0 - recirculation * delta * delta
    return 0.5 * b + 0.5 * np.sqrt(b * b + asymmetry * delta * delta / 8.0)


def ceiling_coefficient(delta, params: CeilingParams):
    """Ceiling factor gamma >= power-reduction ratio at fixed thrust.

    gamma = (1 - a1*d^2)/2 + sqrt((1 - a1*d^2)^2 + a0*d^2/8)/2 with
    a0 = asymmetry and a1 = recirculation.  Equals 1 exactly at delta = 0.
    """
    g = _ceiling_coefficient(_delta_value(delta), params.asymmetry, params.recirculation)
    if np.any(g <= 0.0):
        raise ValueError("ceiling coefficient must stay positive over the requested range")
    return _scalar_or_array(g)


def induced_velocity(thrust: float, gamma: float, env: Environment, disc_area: float) -> float:
    """Uniform induced flow speed [m/s] through the disc for a given thrust."""
    _check_thrust(thrust)
    _check_gamma(gamma)
    _check_area(disc_area)
    return math.sqrt(thrust / (2.0 * env.air_density * disc_area * gamma * gamma))


def aerodynamic_power(thrust, gamma, env: Environment, disc_area):
    """Induced aerodynamic power [W]: thrust times induced velocity.

    Near a ceiling (gamma > 1) the same thrust costs a factor gamma less power.
    """
    _check_thrust(thrust)
    _check_gamma(gamma)
    _check_area(disc_area)
    return _scalar_or_array(thrust * np.sqrt(thrust / (2.0 * env.air_density * disc_area)) / gamma)


def momentum_residual(v_i: float, v_inf: float, delta, params: CeilingParams) -> float:
    """Vertical momentum balance residual [m^2/s^2], zero at v_inf = 2*gamma*v_i.

    Balances the terminal wake momentum (reduced by recirculation) against the
    thrust and the ceiling pressure force, per unit rho*A.
    """
    if v_i < 0.0 or v_inf < 0.0:
        raise ValueError("flow speeds must be >= 0")
    d = _delta_value(delta)
    b = 1.0 - params.recirculation * d * d
    return 0.5 * v_inf * v_inf - b * v_i * v_inf - params.asymmetry / 16.0 * v_i * v_i * d * d


def radial_velocity(r: float, distance: float, v_i: float) -> float:
    """Radial inflow speed [m/s] at radius r below a ceiling a gap `distance` away.

    Mass conservation in the gap: air entering the side of an imaginary
    cylinder of radius r must leave axially through the disc.
    """
    if distance <= 0.0 or not math.isfinite(distance):
        raise ValueError(f"gap distance must be positive, got {distance}")
    if r < 0.0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return r / (2.0 * distance) * v_i


def holding_force(v_i: float, delta, asymmetry: float, env: Environment, disc_area: float) -> float:
    """Net suction force [N] pulling the propeller toward the ceiling."""
    if v_i < 0.0:
        raise ValueError("induced velocity must be >= 0")
    if asymmetry < 1.0:
        raise ValueError(f"asymmetry must be >= 1, got {asymmetry}")
    d = _delta_value(delta)
    return asymmetry / 16.0 * env.air_density * disc_area * v_i * v_i * d * d


@dataclass(frozen=True)
class FlowState:
    """Momentum-theory flow solution around the disc."""

    induced_velocity: float  # [m/s]
    terminal_velocity: float  # [m/s]
    upstream_pressure: float  # [Pa], just above the disc
    downstream_pressure: float  # [Pa], just below the disc
    ambient_pressure: float  # [Pa]

    def __post_init__(self):
        if self.induced_velocity < 0.0 or self.terminal_velocity < 0.0:
            raise ValueError("flow speeds must be >= 0")


def flow_state(
    thrust: float,
    delta,
    params: CeilingParams,
    env: Environment,
    disc_area: float,
    ambient_pressure: float = 101325.0,
) -> FlowState:
    """Solve the full flow state (speeds and disc pressures) for a thrust level."""
    g = ceiling_coefficient(delta, params)
    v_i = induced_velocity(thrust, g, env, disc_area)
    # Bernoulli above the disc: ambient = upstream + rho*v_i^2/2
    p_minus = ambient_pressure - 0.5 * env.air_density * v_i * v_i
    p_plus = p_minus + thrust / disc_area
    return FlowState(
        induced_velocity=v_i,
        terminal_velocity=2.0 * g * v_i,
        upstream_pressure=p_minus,
        downstream_pressure=p_plus,
        ambient_pressure=ambient_pressure,
    )


def _check_thrust(thrust):
    if not np.all(np.isfinite(thrust) & (np.asarray(thrust) >= 0.0)):
        raise ValueError(f"thrust must be finite and >= 0, got {thrust}")


def _check_gamma(gamma):
    if not np.all(np.isfinite(gamma) & (np.asarray(gamma) > 0.0)):
        raise ValueError(f"ceiling coefficient must be positive, got {gamma}")


def _check_area(area):
    if not np.all(np.isfinite(area) & (np.asarray(area) > 0.0)):
        raise ValueError(f"disc area must be positive, got {area}")
