"""Bench-data pipeline: slope fits per ceiling distance, ceiling-factor and
blade-constant estimation, and a synthetic-data generator for validating the
whole chain round-trip.

The pipeline mirrors how the bench data is reduced:

1. For each propeller-to-ceiling distance, the shaft power is linear in
   T*sqrt(T / (2 rho A)) through the origin; the slope equals
   1 / (figure_of_merit * ceiling_factor).
2. The largest-distance group anchors the figure of merit (its ceiling
   factor is taken as 1), which turns every other slope into an empirical
   ceiling-factor point.
3. The ceiling-factor points determine (asymmetry, recirculation); the
   per-distance thrust/torque-vs-omega^2 slopes determine (c0, c1, c2).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bemt import PropellerGeometry, _thrust_coefficient, thrust_coefficient, torque_coefficient
from .core import CeilingParams, Environment, _ceiling_coefficient, aerodynamic_power, ceiling_coefficient
from .leastsq import FitReport, IdentifiabilityError, gauss_newton, slope_through_origin
from .motor import MotorParams, mechanical_power_from_motor, mechanical_power_from_torque

__all__ = [
    "SteadyRecord",
    "GammaPoint",
    "fit_eta_gamma",
    "fit_ceiling_params",
    "flight_coefficient_points",
    "fit_blade_coefficients",
    "synthesize_dataset",
    "NOISE_CHANNELS",
]

NOISE_CHANNELS = ("voltage", "current", "thrust", "torque", "omega")


@dataclass(frozen=True)
class SteadyRecord:
    """One steady-state bench measurement at a fixed drive setpoint.

    Values for multi-propeller rigs are stored per propeller; prop_count and
    spacing are kept as configuration metadata.  torque is None when the rig
    cannot measure it (counter-rotating pairs cancel).
    """

    config_id: str
    radius: float  # [m]
    prop_count: int
    spacing: float  # [m], 0 for a single propeller
    distance: float  # propeller-to-ceiling distance [m]
    setpoint: str
    voltage: float  # [V]
    current: float  # [A]
    thrust: float  # [N] per propeller
    torque: float | None  # [N m], optional
    omega: float  # [rad/s]
    delta: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.distance) and self.distance > 0.0):
            raise ValueError(f"distance must be positive, got {self.distance}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        for name in ("voltage", "current", "thrust", "torque"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.thrust < 0.0:
            raise ValueError(f"thrust must be >= 0, got {self.thrust}")
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.prop_count < 1:
            raise ValueError(f"prop_count must be >= 1, got {self.prop_count}")
        object.__setattr__(self, "delta", self.radius / self.distance)


@dataclass(frozen=True)
class GammaPoint:
    """Empirical ceiling factor at one gap ratio."""

    delta: float
    gamma: float
    stderr: float
    n_points: int

    def __post_init__(self):
        for name in ("delta", "gamma", "stderr"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gamma <= 0.0:
            raise ValueError(f"ceiling factor must be positive, got {self.gamma}")
        if self.n_points < 2:
            raise ValueError(f"a slope fit needs at least 2 points, got {self.n_points}")


def _shaft_power(rows, motor: MotorParams | None) -> np.ndarray:
    # from torque where it was measured, else from the motor model
    omega = np.array([r.omega for r in rows])
    measured = np.array([r.torque is not None for r in rows])
    p_mech = np.empty(len(rows))
    p_mech[measured] = mechanical_power_from_torque([r.torque for r in rows if r.torque is not None], omega[measured])
    if not measured.all():
        if motor is None:
            raise ValueError("records without torque need motor parameters to compute the shaft power")
        current = np.array([r.current for r in rows if r.torque is None])
        p_mech[~measured] = mechanical_power_from_motor(current, omega[~measured], motor)
    return p_mech


def _group_by_distance(records):
    groups: dict[float, list[SteadyRecord]] = {}
    for rec in records:
        groups.setdefault(rec.distance, []).append(rec)
    return dict(sorted(groups.items()))


def fit_eta_gamma(
    records,
    env: Environment,
    motor: MotorParams | None = None,
    max_anchor_delta: float = 0.5,
) -> tuple[float, list[GammaPoint]]:
    """Per-distance slope fits yielding the figure of merit and ceiling factors.

    For each distance group the through-origin slope of shaft power against
    T*sqrt(T/(2 rho A)) is 1/(eta*gamma).  The figure of merit eta is anchored
    on the largest-distance group, whose ceiling factor is taken as exactly 1;
    that group must sit at delta < max_anchor_delta so the approximation error
    stays below measurement noise.  Shaft power comes from torque when
    present, else from the motor model (current * back_emf * omega); a
    negative torque or current raises ValueError.

    Returns (eta, points) with points sorted by increasing delta.  Groups with
    fewer than 2 records or a non-positive slope are skipped with a warning.
    """
    groups = _group_by_distance(records)
    if not groups:
        raise ValueError("no records given")

    slopes = []  # (distance, delta, slope, stderr, n)
    for distance, rows in groups.items():
        if len(rows) < 2:
            warnings.warn(f"skipping distance {distance} m: fewer than 2 setpoints")
            continue
        thrust = np.array([r.thrust for r in rows])
        area = np.array([math.pi * r.radius**2 for r in rows])
        slope, stderr = slope_through_origin(aerodynamic_power(thrust, 1.0, env, area), _shaft_power(rows, motor))
        if slope <= 0.0:
            warnings.warn(f"skipping distance {distance} m: non-positive power slope")
            continue
        slopes.append((distance, rows[0].delta, slope, stderr, len(rows)))

    if not slopes:
        raise ValueError("no distance group has enough usable records")
    anchor = max(slopes, key=lambda t: t[0])
    if anchor[1] >= max_anchor_delta:
        raise IdentifiabilityError(
            f"largest-distance group sits at delta = {anchor[1]:.3g} >= {max_anchor_delta}; "
            "the no-ceiling anchor needs a farther measurement"
        )
    eta = 1.0 / anchor[2]

    points = []
    for _, delta, slope, stderr, n in slopes:
        gamma = 1.0 / (eta * slope)
        points.append(
            GammaPoint(delta=delta, gamma=gamma, stderr=stderr / (eta * slope * slope), n_points=n)
        )
    points.sort(key=lambda p: p.delta)
    return eta, points


def _point_weights(stderr: np.ndarray) -> np.ndarray:
    # inverse-variance weights, normalized to mean 1; unit weights when any
    # stderr is missing or degenerate (exact synthetic data has stderr 0)
    if np.all(np.isfinite(stderr)) and np.all(stderr > 0.0):
        w = 1.0 / stderr**2
        return w / np.mean(w)
    return np.ones_like(stderr)


def fit_ceiling_params(points, reduced: bool = False) -> tuple[CeilingParams, FitReport]:
    """Fit (asymmetry, recirculation) to empirical ceiling-factor points.

    Minimizes the stderr-weighted SSE of the ceiling-factor model.  Bounds:
    asymmetry in [1, 100], recirculation in [0, 1].  reduced pins
    recirculation to exactly 0 (the single-rotor model).  Needs at least
    2 distinct gap ratios (3 for the full model).
    """
    pts = list(points)
    delta = np.array([p.delta for p in pts])
    gamma = np.array([p.gamma for p in pts])
    stderr = np.array([p.stderr for p in pts])
    n_distinct = len(np.unique(delta))
    needed = 2 if reduced else 3
    if n_distinct < needed:
        raise ValueError(f"need at least {needed} distinct gap ratios, got {n_distinct}")

    sqrt_w = np.sqrt(_point_weights(stderr))
    names = ("asymmetry",) if reduced else ("asymmetry", "recirculation")
    residual = lambda x: sqrt_w * (_ceiling_coefficient(delta, x[0], 0.0 if reduced else x[1]) - gamma)
    x0 = _coarse_start(residual, [np.geomspace(1.0, 100.0, 24), np.linspace(0.0, 0.1, 12)][: len(names)])
    x, gn = gauss_newton(residual, x0, bounds=[(1.0, 100.0), (0.0, 1.0)][: len(names)])
    params = CeilingParams(*(float(v) for v in x))

    report = FitReport(
        parameters={name: float(v) for name, v in zip(names, x)},
        residual_rms=gn.residual_rms,
        n_obs=len(pts),
        converged=gn.converged,
        iterations=gn.iterations,
        notes=tuple(note.replace("x0", "asymmetry").replace("x1", "recirculation") for note in gn.notes),
    )
    return params, report


def _coarse_start(residual, axes) -> np.ndarray:
    # cheap grid scan for a sane Gauss-Newton starting point: each residual
    # call scores a block of n < 256 candidates, passed as parameter columns
    # of shape (k, n, 1); blocks keep the temporaries under 1 MiB
    candidates = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), -1)
    blocks = np.array_split(candidates, max(1, candidates.shape[1] // 128), axis=1)
    sse = np.concatenate([np.sum(residual(block[..., None]) ** 2, axis=-1) for block in blocks])
    return candidates[:, int(np.argmin(sse))]


def flight_coefficient_points(records) -> tuple[list, list]:
    """Per-distance thrust and torque coefficients from omega^2 slopes.

    Returns (ct_points, ctau_points), each a list of (delta, value) sorted by
    delta.  Torque points are produced only for groups where every record has
    a torque measurement.  Groups with fewer than 2 records are skipped with
    a warning.
    """
    ct_points = []
    ctau_points = []
    for distance, rows in _group_by_distance(records).items():
        if len(rows) < 2:
            warnings.warn(f"skipping distance {distance} m: fewer than 2 setpoints")
            continue
        omega_sq = np.array([r.omega**2 for r in rows])
        thrust = np.array([r.thrust for r in rows])
        delta = rows[0].delta
        ct_points.append((delta, slope_through_origin(omega_sq, thrust)[0]))
        if all(r.torque is not None for r in rows):
            torque = np.array([r.torque for r in rows])
            ctau_points.append((delta, slope_through_origin(omega_sq, torque)[0]))
    ct_points.sort()
    ctau_points.sort()
    return ct_points, ctau_points


def fit_blade_coefficients(
    ct_points,
    ctau_points,
    radius: float,
    figure_of_merit: float,
    ceiling: CeilingParams,
    env: Environment,
) -> tuple[tuple[float, float, float], FitReport]:
    """Fit the lumped blade constants (c0, c1, c2) to coefficient-vs-delta data.

    Joint SSE over the thrust-coefficient and torque-coefficient series, each
    scaled by its smallest-delta (closest to no ceiling) value so that the two
    series contribute comparably despite differing magnitudes.  The ceiling
    factors come from the supplied fitted ceiling model.  Bounds: c0, c1 in
    (0, 10], c2 in [0, 1].
    """
    ct = np.array(sorted(ct_points), dtype=float).reshape(-1, 2)
    if len(ct) == 0:
        raise ValueError("need thrust-coefficient points")
    ctau = np.array(sorted(ctau_points), dtype=float).reshape(-1, 2)
    if len(np.unique(np.concatenate([ct[:, 0], ctau[:, 0]]))) < 3:
        raise ValueError("need at least 3 distinct gap ratios")
    if len(ctau) == 0:
        warnings.warn("no torque-coefficient points; fitting thrust series only")

    (d_ct, v_ct), (d_cq, v_cq) = ct.T, ctau.T
    g_ct, g_cq = ceiling_coefficient(d_ct, ceiling), ceiling_coefficient(d_cq, ceiling)
    norm_ct = v_ct[np.argmin(d_ct)]
    norm_cq = v_cq[np.argmin(d_cq)] if len(ctau) else 1.0  # an empty series needs no scale
    rotor = PropellerGeometry(radius=radius, figure_of_merit=figure_of_merit)

    def residual(x):
        c0, c1, c2 = x
        r_ct = (_thrust_coefficient(d_ct, g_ct, c0, c1, c2, radius, env.air_density) - v_ct) / norm_ct
        c_t = _thrust_coefficient(d_cq, g_cq, c0, c1, c2, radius, env.air_density)
        r_cq = (torque_coefficient(c_t, rotor, env, gamma=g_cq) - v_cq) / norm_cq
        return np.concatenate([r_ct, r_cq], axis=-1)

    x0 = _coarse_start(
        residual,
        [np.geomspace(0.005, 2.0, 12), np.geomspace(0.005, 5.0, 12), np.linspace(0.0, 0.2, 6)],
    )
    x, gn = gauss_newton(residual, x0, bounds=[(1e-9, 10.0), (1e-9, 10.0), (0.0, 1.0)])
    coeffs = (float(x[0]), float(x[1]), float(x[2]))
    report = FitReport(
        parameters={"c0": coeffs[0], "c1": coeffs[1], "c2": coeffs[2]},
        residual_rms=gn.residual_rms,
        n_obs=gn.n_obs,
        converged=gn.converged,
        iterations=gn.iterations,
        notes=tuple(n.replace("x0", "c0").replace("x1", "c1").replace("x2", "c2") for n in gn.notes),
    )
    return coeffs, report


def _noise_sigmas(noise) -> np.ndarray:
    if isinstance(noise, dict):
        unknown = set(noise) - set(NOISE_CHANNELS)
        if unknown:
            raise ValueError(f"unknown noise channels: {sorted(unknown)}")
        sigmas = np.array([float(noise.get(ch, 0.0)) for ch in NOISE_CHANNELS])
    else:
        sigmas = np.full(len(NOISE_CHANNELS), float(noise))
    if np.any(sigmas < 0.0):
        raise ValueError("noise levels must be >= 0")
    return sigmas


def synthesize_dataset(
    geometry: PropellerGeometry,
    ceiling: CeilingParams,
    motor: MotorParams,
    distances,
    setpoints,
    *,
    env: Environment = Environment(),
    noise=0.0,
    seed: int = 0,
    config_id: str = "synth",
    prop_count: int = 1,
    spacing: float = 0.0,
) -> list[SteadyRecord]:
    """Generate steady records from a known model (inverse of the fit pipeline).

    For each (distance, setpoint) pair the commanded rotation rate is the
    setpoint value [rad/s]; thrust and torque follow from the coefficient
    models at that gap ratio, shaft power from torque, and the electrical
    channels from the motor model.  Multiplicative Gaussian noise with the
    given relative sigma is applied per channel (scalar, or a mapping over
    "voltage", "current", "thrust", "torque", "omega").  Output is
    deterministic for a fixed seed.
    """
    distances = np.asarray(distances, dtype=float)
    setpoints = np.asarray(setpoints, dtype=float)
    if np.any(distances <= 0.0) or not np.all(np.isfinite(distances)):
        raise ValueError("distances must be positive and finite")
    if np.any(setpoints <= 0.0) or not np.all(np.isfinite(setpoints)):
        raise ValueError("setpoints must be positive rotation rates [rad/s]")
    sigmas = _noise_sigmas(noise)

    # one row per (distance, setpoint) pair, distances outermost
    delta = geometry.radius / distances[:, None]
    gamma = ceiling_coefficient(delta, ceiling)
    c_t = thrust_coefficient(geometry, delta, ceiling, env)
    c_tau = torque_coefficient(c_t, geometry, env, gamma=gamma)
    omega = np.broadcast_to(setpoints, (len(distances), len(setpoints)))
    thrust = c_t * omega**2
    torque = c_tau * omega**2
    current = mechanical_power_from_torque(torque, omega) / (motor.back_emf * omega)
    voltage = current * motor.resistance + motor.back_emf * omega
    values = np.stack([voltage, current, thrust, torque, omega], axis=-1).reshape(-1, len(NOISE_CHANNELS))
    if np.any(sigmas > 0.0):
        values = values * (1.0 + sigmas * np.random.default_rng(seed).standard_normal(values.shape))
    return [
        SteadyRecord(
            config_id=config_id,
            radius=geometry.radius,
            prop_count=prop_count,
            spacing=spacing,
            distance=distance,
            setpoint=f"sp{idx:02d}",
            **dict(zip(NOISE_CHANNELS, row)),
        )
        for (distance, idx), row in zip(itertools.product(distances.tolist(), range(len(setpoints))), values.tolist())
    ]
