"""Blade-element relations between thrust, torque, and rotation rate.

Ties the rotor's lumped blade constants (c0, c1, c2) and the ceiling factor
to the dimensional flight coefficients used for control:

    thrust = c_T * omega^2,    torque = c_tau * omega^2

Radial inflow induced by the ceiling contributes the c2 term, which vanishes
far from the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CeilingParams, Environment, _check_gamma, _delta_value, _scalar_or_array, ceiling_coefficient

__all__ = [
    "PropellerGeometry",
    "BladeProfile",
    "inflow_ratio",
    "bem_thrust",
    "thrust_coefficient",
    "torque_coefficient",
    "blade_integrals",
]


@dataclass(frozen=True)
class PropellerGeometry:
    """Rotor constants needed by the flight-coefficient models.

    blade_coeffs are the lumped blade constants (c0, c1, c2); they may be
    left as None until fitted.  figure_of_merit is the aerodynamic-to-shaft
    power ratio, assumed independent of the rotation rate.
    """

    radius: float  # [m]
    figure_of_merit: float
    blade_coeffs: tuple[float, float, float] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not (0.0 < self.figure_of_merit <= 1.0):
            raise ValueError(f"figure of merit must be in (0, 1], got {self.figure_of_merit}")
        if self.blade_coeffs is not None:
            c0, c1, c2 = self.blade_coeffs
            if not (0.0 < c0 < math.inf and 0.0 < c1 < math.inf and 0.0 <= c2 < math.inf):
                raise ValueError(f"blade coefficients must be finite, c0 > 0, c1 > 0, c2 >= 0, got {self.blade_coeffs}")
            object.__setattr__(self, "blade_coeffs", (float(c0), float(c1), float(c2)))

    @property
    def disc_area(self) -> float:
        """Disc area pi * radius^2 [m^2]."""
        return math.pi * self.radius * self.radius

    def _coeffs(self) -> tuple[float, float, float]:
        if self.blade_coeffs is None:
            raise ValueError("geometry has no blade coefficients; fit or supply (c0, c1, c2) first")
        return self.blade_coeffs


def inflow_ratio(geom: PropellerGeometry, gamma, delta):
    """Induced-velocity-to-tip-speed ratio x = v_i / (omega * R).

    Positive root of 4*gamma^2*x^2 + (c1 - c2*delta)*x - c0 = 0, obtained by
    equating the blade-element thrust with the momentum-theory thrust.
    """
    c0, c1, c2 = geom._coeffs()
    d = _delta_value(delta)
    g = np.asarray(gamma, dtype=float)
    _check_gamma(g)
    b = c1 - c2 * d
    return _scalar_or_array((-b + np.sqrt(b * b + 16.0 * g * g * c0)) / (8.0 * g * g))


def bem_thrust(
    geom: PropellerGeometry,
    v_i: float,
    omega: float,
    delta,
    env: Environment,
) -> float:
    """Blade-element thrust [N] at rotation rate omega with induced flow v_i.

    T = rho*A*R^2 * (c0 - c1*x + c2*x*delta) * omega^2 / 2, x = v_i/(omega*R).
    """
    if omega <= 0.0 or not math.isfinite(omega):
        raise ValueError(f"rotation rate must be positive, got {omega}")
    c0, c1, c2 = geom._coeffs()
    d = _delta_value(delta)
    x = v_i / (omega * geom.radius)
    return 0.5 * env.air_density * geom.disc_area * geom.radius**2 * (c0 - c1 * x + c2 * x * d) * omega**2


def _thrust_coefficient(delta, gamma, c0, c1, c2, radius, air_density):
    # Unvalidated c_T, rationalized as 2c0/(b + sqrt(b^2 + 16c0g^2)); the arguments broadcast
    b = c1 - c2 * delta
    denom = b + np.sqrt(b * b + 16.0 * c0 * gamma * gamma)
    return 2.0 * air_density * (math.pi * radius * radius) * (2.0 * c0 * radius * gamma / denom) ** 2


def _torque_coefficient(c_t, gamma, figure_of_merit, radius, air_density):
    # Unvalidated c_tau = c_T^(3/2) / (eta gamma sqrt(2 rho A)); the arguments broadcast
    return c_t**1.5 / (figure_of_merit * gamma * np.sqrt(2.0 * air_density * (math.pi * radius * radius)))


def thrust_coefficient(geom: PropellerGeometry, delta, params: CeilingParams, env: Environment):
    """Thrust coefficient c_T [N s^2 / rad^2] at gap ratio delta.

    Dimensional, per the convention of aerial-vehicle control (T = c_T omega^2).
    """
    c0, c1, c2 = geom._coeffs()
    d = _delta_value(delta)
    g = ceiling_coefficient(d, params)
    return _scalar_or_array(_thrust_coefficient(d, g, c0, c1, c2, geom.radius, env.air_density))


def torque_coefficient(c_t, geom: PropellerGeometry, env: Environment, gamma=1.0):
    """Torque coefficient c_tau [N m s^2 / rad^2] from a thrust coefficient.

    c_tau = c_T^(3/2) / (eta * gamma * sqrt(2 rho A)).  The shaft power is the
    induced power divided by eta*gamma, so the ceiling factor of the operating
    point enters here; gamma = 1 gives the free-air relation.
    """
    ct = np.asarray(c_t, dtype=float)
    if not np.all(np.isfinite(ct) & (ct >= 0.0)):
        raise ValueError("thrust coefficient must be finite and >= 0")
    g = np.asarray(gamma, dtype=float)
    _check_gamma(g)
    return _scalar_or_array(_torque_coefficient(ct, g, geom.figure_of_merit, geom.radius, env.air_density))


@dataclass(frozen=True)
class BladeProfile:
    """Blade shape description for computing the lumped constants.

    chord, pitch_twist, and radial_twist are either callables of radius or
    arrays sampled at the stations in ``radii``.  pitch_twist is the local
    pitch angle; radial_twist is the surface tilt seen by radial inflow.
    Angles are small (|theta| < 0.5 rad) by assumption of the model.
    """

    lift_slope: float  # dC_L/dalpha [1/rad]
    chord: Callable[[np.ndarray], np.ndarray] | np.ndarray
    pitch_twist: Callable[[np.ndarray], np.ndarray] | np.ndarray
    radial_twist: Callable[[np.ndarray], np.ndarray] | np.ndarray
    radii: np.ndarray | None = None  # [m], required when arrays are given


def blade_integrals(profile: BladeProfile, radius: float, samples: int = 1001) -> tuple[float, float, float]:
    """Lumped blade constants (c0, c1, c2) by trapezoidal quadrature.

    c0 weighs the pitch term, c1 the axial-inflow term, and c2 the
    radial-inflow term of the blade-element thrust.  Closed-form profiles are
    sampled at ``samples`` points; sampled profiles use their own stations.
    """
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if profile.radii is not None:
        r = np.asarray(profile.radii, dtype=float)
        if r.ndim != 1 or len(r) < 3:
            raise ValueError("sampled profiles need at least 3 stations")
        if np.any(np.diff(r) <= 0.0) or r[0] < 0.0 or r[-1] > radius * (1.0 + 1e-12):
            raise ValueError("stations must increase within [0, radius]")
        chord, pitch, radial = (np.asarray(v, dtype=float) for v in (profile.chord, profile.pitch_twist, profile.radial_twist))
        for name, v in (("chord", chord), ("pitch_twist", pitch), ("radial_twist", radial)):
            if v.shape != r.shape:
                raise ValueError(f"{name} must match the station array, got {v.shape} vs {r.shape}")
    else:
        if samples < 3:
            raise ValueError("need at least 3 quadrature samples")
        r = np.linspace(0.0, radius, samples)
        chord = np.asarray(profile.chord(r), dtype=float)
        pitch = np.asarray(profile.pitch_twist(r), dtype=float)
        radial = np.asarray(profile.radial_twist(r), dtype=float)
    if np.any(chord < 0.0):
        raise ValueError("chord must be >= 0 everywhere")
    if np.max(np.abs(pitch), initial=0.0) >= 0.5 or np.max(np.abs(radial), initial=0.0) >= 0.5:
        raise ValueError("blade angles must stay below 0.5 rad for the small-angle model")

    area = math.pi * radius * radius
    scale = profile.lift_slope / (area * radius * radius)
    c0 = scale * np.trapezoid(chord * pitch * r * r, r)
    c1 = scale * np.trapezoid(radius * chord * r, r)
    c2 = scale * np.trapezoid(0.5 * chord * radial * r * r, r)
    return float(c0), float(c1), float(c2)
