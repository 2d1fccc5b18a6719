"""Bench-data pipeline: slope fits per ceiling distance, ceiling-factor and
blade-constant estimation, and a synthetic-data generator for validating the
whole chain round-trip.

The pipeline mirrors how the bench data is reduced:

1. For each propeller-to-ceiling distance, the shaft power is linear in
   T*sqrt(T / (2 rho A)) through the origin; the slope equals
   1 / (figure_of_merit * ceiling_factor).  One fit is for one propeller in
   one configuration, so records that mix radius or config_id are rejected.
2. The largest-distance group anchors the figure of merit (its ceiling
   factor is taken as 1), which turns every other slope into an empirical
   ceiling-factor point.
3. The ceiling-factor points determine (asymmetry, recirculation); the
   per-distance thrust/torque-vs-omega^2 slopes determine (c0, c1, c2).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from . import leastsq
from .bemt import PropellerGeometry, _thrust_coefficient, _torque_coefficient, thrust_coefficient, torque_coefficient
from .core import CeilingParams, Environment, _ceiling_coefficient, aerodynamic_power, ceiling_coefficient
from .leastsq import FitReport, IdentifiabilityError, _group_slopes
from .motor import MotorParams, mechanical_power_from_motor, mechanical_power_from_torque

__all__ = [
    "SteadyRecord",
    "SteadyTable",
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
        _check_steady({name: (getattr(self, name),) for name in _FIELDS})
        object.__setattr__(self, "delta", self.radius / self.distance)


_FIELDS = tuple(f.name for f in fields(SteadyRecord) if f.init)


class _RowError(ValueError):
    """A value a table's model rejects, at index row of the columns checked, in column if given."""

    def __init__(self, row: int, message: str, column: str | None = None):
        super().__init__(message if column is None else f"{column}[{row}]: {message}")
        self.row, self.message, self.column = row, message, column


# (field, rule) in the order SteadyRecord checks them: the numbers, then the labels
_CHECKS = (
    ("distance", "must be positive"),
    ("radius", "must be positive"),
    ("spacing", "must be finite"),
    ("voltage", "must be finite"),
    ("current", "must be finite"),
    ("thrust", "must be finite"),
    ("torque", "must be finite"),
    ("thrust", "must be >= 0"),
    ("omega", "must be positive"),
    ("prop_count", "must be an integer >= 1"),
    ("config_id", "must be a str"),
    ("setpoint", "must be a str"),
)
_POSITIVE = np.array([[rule == "must be positive"] for _, rule in _CHECKS])
_LABELS = ("config_id", "setpoint")


def _read(column, kind=(int, float, np.integer, np.floating)) -> np.ndarray:
    # a checked field as floats: a value of kind that is not a bool as its float (a str as 0), any other nan
    if kind is not str and isinstance(column, np.ndarray) and column.dtype.kind in "fiu":  # numbers throughout
        return column.astype(float)
    wrong = {t for t in set(map(type, column)) if issubclass(t, bool) or not issubclass(t, kind)}
    if kind is str:
        return np.array([math.nan if type(v) in wrong else 0.0 for v in column]) if wrong else np.zeros(len(column))
    column = [math.nan if type(v) in wrong else v for v in column] if wrong else column
    try:
        return np.array(column, dtype=float)
    except OverflowError:  # an int beyond float range reads nan
        return np.array([v if abs(v) <= sys.float_info.max else math.nan for v in column], dtype=float)


def _shown(value) -> str:
    try:
        return repr(value.item() if isinstance(value, np.generic) else value)
    except ValueError:  # an int beyond Python's digit limit for str(), shown by its size
        return f"an int of {value.bit_length()} bits"


def _check_steady(columns) -> dict:
    # columns (one sequence per field, torque None where not measured) read as floats, by field name;
    # _RowError for the first value SteadyRecord rejects, first in row order, then in the order of _CHECKS
    floats = {name: _read(column, str) if name in _LABELS else _read(column) for name, column in columns.items()}
    values = np.array([floats[name] for name, _ in _CHECKS])
    bad = ~np.isfinite(values) | (_POSITIVE & (values <= 0.0))
    bad[7] = values[7] < 0.0  # the row of the thrust sign
    bad[9] |= (values[9] < 1.0) | (values[9] != np.round(values[9]))
    for i in np.flatnonzero(np.isfinite(values[9]) & (values[9] >= 2.0**53)):  # an int must equal its float
        bad[9, i] |= int(columns["prop_count"][i]) != int(values[9, i])  # as Python ints: numpy compares them as floats
    if not isinstance(torque := columns["torque"], np.ndarray) or torque.dtype == object:  # None: not measured
        bad[6] &= np.array([v is not None for v in torque], dtype=bool)
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        name, rule = _CHECKS[int(np.argmax(bad[:, i]))]
        raise _RowError(i, f"{name} {rule}, got {_shown(columns[name][i])}")
    return floats


class SteadyTable:
    """Steady records held as columns, one per SteadyRecord field, that
    reads as a list of SteadyRecord.

    Every column is a numpy array of float, torque with nan where it was not
    measured, except prop_count, an object array of the counts as given, and
    config_id and setpoint, lists of str.  The constructor takes one sequence
    per field, in SteadyRecord's order, with None for a torque not measured,
    and checks them as SteadyRecord checks one record: of several bad values,
    the first in row order, then in field order, raises SteadyRecord's
    ValueError.

    The table is read as a list: len(t) and iteration behave as for one,
    t[i] is a SteadyRecord with plain float, int and str fields, t[a:b] is a
    table (a copy), and t == records compares row by row with a table or a
    list.  Rows are edited or joined on list(t).
    """

    __slots__ = _FIELDS

    def __init__(
        self, config_id, radius, prop_count, spacing, distance, setpoint, voltage, current, thrust, torque, omega
    ):
        args = locals()
        given = {name: args[name] for name in _FIELDS}
        if len({len(column) for column in given.values()}) > 1:
            raise ValueError("steady columns differ in length")
        floats = _check_steady(given)
        for name, column in given.items():
            if name in _LABELS:
                floats[name] = column.tolist() if isinstance(column, np.ndarray) else list(column)
            setattr(self, name, np.array(column, dtype=object) if name == "prop_count" else floats[name])

    @classmethod
    def of(cls, records) -> SteadyTable:
        """records as a table: a table as it is, any other iterable of SteadyRecord transposed once."""
        return records if isinstance(records, cls) else cls(*_columns(SteadyRecord, records))

    @property
    def columns(self) -> dict:
        """The columns themselves, by field name in SteadyRecord's order."""
        return {name: getattr(self, name) for name in _FIELDS}

    def __len__(self) -> int:
        return len(self.config_id)

    def __iter__(self):
        columns = {name: c if isinstance(c, list) else c.tolist() for name, c in self.columns.items()}
        columns["torque"] = [None if math.isnan(v) else v for v in columns["torque"]]
        with np.errstate(over="ignore"):  # as float division, which gives inf
            delta = (self.radius / self.distance).tolist()
        for values in zip(*columns.values(), delta):
            record = object.__new__(SteadyRecord)  # from checked columns, so not checked again
            vars(record).update(zip(_FIELDS + ("delta",), values))
            yield record

    def __getitem__(self, index):
        if isinstance(index, slice):  # a copy, as a list slice is
            part = object.__new__(SteadyTable)
            for name, c in self.columns.items():
                setattr(part, name, c[index] if isinstance(c, list) else c[index].copy())
            return part
        i = range(len(self))[index]
        return next(iter(self[i : i + 1]))

    def __eq__(self, other):
        if isinstance(other, SteadyTable):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(frozen=True)
class GammaPoint:
    """Empirical ceiling factor at one gap ratio."""

    delta: float
    gamma: float
    stderr: float
    n_points: int

    def __post_init__(self):
        # read as SteadyRecord's fields are, and n_points as its prop_count, so that every point reads back
        *values, n = _read([self.delta, self.gamma, self.stderr, self.n_points]).tolist()
        for name, value in zip(("delta", "gamma", "stderr"), values):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {_shown(getattr(self, name))}")
        if self.gamma <= 0.0:
            raise ValueError(f"ceiling factor must be positive, got {self.gamma}")
        if not (2.0 <= n and n.is_integer() and int(self.n_points) == int(n)):
            raise ValueError(f"n_points must be an integer >= 2 for a slope fit, got {_shown(self.n_points)}")


def _columns(cls, objects):
    # the objects' fields as columns, in cls's field order, which is its CSV spec's column order
    names = [f.name for f in fields(cls) if f.init]
    return list(zip(*map(attrgetter(*names), objects))) or [()] * len(names)


def _one_rig(records) -> SteadyTable:
    # records as a table; ValueError if they mix radius or config_id values
    table = SteadyTable.of(records)
    for name, distinct in (("radius", np.unique(table.radius).tolist()), ("config_id", sorted(set(table.config_id)))):
        if len(distinct) > 1:
            raise ValueError(f"records mix several {name} values: {distinct}")
    return table


def _distance_groups(records):
    # one propeller's records (ValueError if they mix radius or config_id) as
    # (float columns, group index of each record, distance and gap ratio of
    # each group by increasing distance); torque reads nan where not measured,
    # and groups of fewer than 2 records are dropped with a warning
    table = _one_rig(records)
    distance, group, counts = np.unique(table.distance, return_inverse=True, return_counts=True)
    kept = counts >= 2
    for lone in distance[~kept].tolist():
        warnings.warn(f"skipping distance {lone} m: fewer than 2 setpoints")
    keep = kept[group]
    columns = {name: getattr(table, name)[keep] for name in ("radius", *NOISE_CHANNELS)}
    distance = distance[kept]
    return columns, (np.cumsum(kept) - 1)[group[keep]], distance, table.radius[:1] / distance  # one rig, one radius


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
    negative torque or current raises ValueError.  The records must be of one
    propeller in one configuration: records that mix radius or config_id
    raise ValueError.

    Returns (eta, points) with points sorted by increasing delta.  Groups with
    fewer than 2 records or a non-positive slope are skipped with a warning.
    """
    columns, group, distance, delta = _distance_groups(records)
    omega = columns["omega"]
    shaft = mechanical_power_from_torque(columns["torque"], omega)  # nan where torque was not measured
    missing = np.isnan(shaft)
    if missing.any():
        if motor is None:
            raise ValueError("records without torque need motor parameters to compute the shaft power")
        shaft[missing] = mechanical_power_from_motor(columns["current"][missing], omega[missing], motor)
    area = np.pi * columns["radius"] ** 2
    slope, stderr = _group_slopes(group, aerodynamic_power(columns["thrust"], 1.0, env, area), shaft)
    usable = slope > 0.0
    for skipped in distance[~usable].tolist():
        warnings.warn(f"skipping distance {skipped} m: non-positive power slope")
    if not usable.any():
        raise ValueError("no distance group has enough usable records")
    slope, stderr, delta, n_points = slope[usable], stderr[usable], delta[usable], np.bincount(group)[usable]
    if delta[-1] >= max_anchor_delta:
        raise IdentifiabilityError(
            f"largest-distance group sits at delta = {delta[-1]:.3g} >= {max_anchor_delta}; "
            "the no-ceiling anchor needs a farther measurement"
        )
    eta = float(1.0 / slope[-1])
    gamma, gamma_stderr = 1.0 / (eta * slope), stderr / (eta * slope * slope)
    points = map(GammaPoint, delta.tolist(), gamma.tolist(), gamma_stderr.tolist(), n_points.tolist())
    return eta, sorted(points, key=lambda p: p.delta)


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

    The start is one weighted linear solve of gamma^2 - gamma =
    (a0/32)*delta^2 - a1*gamma*delta^2, exact on noise-free points, which
    gauss_newton clips to the bounds and refines.
    """
    delta, gamma, stderr = np.array([(p.delta, p.gamma, p.stderr) for p in points], dtype=float).reshape(-1, 3).T
    n_distinct = len(np.unique(delta))
    needed = 2 if reduced else 3
    if n_distinct < needed:
        raise ValueError(f"need at least {needed} distinct gap ratios, got {n_distinct}")

    sqrt_w = np.sqrt(_point_weights(stderr))
    k = 1 if reduced else 2  # free parameters
    residual = lambda x: sqrt_w * (_ceiling_coefficient(delta, x[0], 0.0 if reduced else x[1]) - gamma)
    d2 = delta * delta
    start = np.linalg.lstsq((sqrt_w * np.array([d2 / 32.0, -gamma * d2])[:k]).T, sqrt_w * (gamma * gamma - gamma))[0]
    names, bounds = ("asymmetry", "recirculation")[:k], [(1.0, 100.0), (0.0, 1.0)][:k]
    x, report = leastsq.gauss_newton(residual, start, bounds, names, columns=True)
    return CeilingParams(*(float(v) for v in x)), report


def flight_coefficient_points(records) -> tuple[list, list]:
    """Per-distance thrust and torque coefficients from omega^2 slopes.

    Returns (ct_points, ctau_points), each a list of (delta, value) sorted by
    delta.  Torque points are produced only for groups where every record has
    a torque measurement.  Groups with fewer than 2 records are skipped with
    a warning.  Records that mix radius or config_id raise ValueError.
    """
    columns, group, _, delta = _distance_groups(records)
    omega_sq = columns["omega"] ** 2
    ct = _group_slopes(group, omega_sq, columns["thrust"])[0]
    ctau = _group_slopes(group, omega_sq, columns["torque"])[0]  # nan where a torque is missing
    measured = ~np.isnan(ctau)
    return sorted(zip(delta.tolist(), ct.tolist())), sorted(zip(delta[measured].tolist(), ctau[measured].tolist()))


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

    The start is one linear solve of c0 - c1*x + c2*delta*x = 4*gamma^2*x^2
    over the points with positive slopes, exact on noise-free points, with
    the inflow ratio x = sqrt(c_T/(2 rho A R^2))/gamma and, for a torque
    point, c_T = (c_tau*eta*gamma*sqrt(2 rho A))^(2/3).  gauss_newton clips
    it to the bounds and refines it.
    """
    ct = np.array(sorted(ct_points), dtype=float).reshape(-1, 2)
    if len(ct) == 0:
        raise ValueError("need thrust-coefficient points")
    ctau = np.array(sorted(ctau_points), dtype=float).reshape(-1, 2)
    # c_T is evaluated once over the distinct gap ratios of both series
    delta, inverse = np.unique(np.concatenate([ct[:, 0], ctau[:, 0]]), return_inverse=True)
    if len(delta) < 3:
        raise ValueError("need at least 3 distinct gap ratios")
    if len(ctau) == 0:
        warnings.warn("no torque-coefficient points; fitting thrust series only")

    (d_ct, v_ct), (d_cq, v_cq) = ct.T, ctau.T
    i_ct, i_cq = inverse[: len(ct)], inverse[len(ct) :]
    gamma = ceiling_coefficient(delta, ceiling)
    norm_ct = v_ct[np.argmin(d_ct)]
    norm_cq = v_cq[np.argmin(d_cq)] if len(ctau) else 1.0  # an empty series needs no scale
    rho = env.air_density
    PropellerGeometry(radius=radius, figure_of_merit=figure_of_merit)  # validates both

    def residual(x):
        c0, c1, c2 = x
        c_t = _thrust_coefficient(delta, gamma, c0, c1, c2, radius, rho)
        r_ct = (c_t[..., i_ct] - v_ct) / norm_ct
        r_cq = (_torque_coefficient(c_t[..., i_cq], gamma[i_cq], figure_of_merit, radius, rho) - v_cq) / norm_cq
        return np.concatenate([r_ct, r_cq], axis=-1)

    rho_a = 2.0 * rho * math.pi * radius * radius
    use = np.concatenate([v_ct, v_cq]) > 0.0
    c_t = np.concatenate([v_ct, np.cbrt(v_cq * figure_of_merit * gamma[i_cq] * math.sqrt(rho_a)) ** 2])[use]
    g, d = gamma[inverse][use], delta[inverse][use]
    inflow = np.sqrt(c_t / (rho_a * radius * radius)) / g
    start = np.linalg.lstsq(np.stack([np.ones_like(inflow), -inflow, d * inflow], 1), 4.0 * (g * inflow) ** 2)[0]
    bounds = [(1e-9, 10.0), (1e-9, 10.0), (0.0, 1.0)]
    x, report = leastsq.gauss_newton(residual, start, bounds, ("c0", "c1", "c2"), columns=True)
    return (float(x[0]), float(x[1]), float(x[2])), report


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
) -> SteadyTable:
    """Generate steady records from a known model (inverse of the fit pipeline).

    For each (distance, setpoint) pair the commanded rotation rate is the
    setpoint value [rad/s]; thrust and torque follow from the coefficient
    models at that gap ratio, shaft power from torque, and the electrical
    channels from the motor model.  Multiplicative Gaussian noise with the
    given relative sigma is applied per channel (scalar, or a mapping over
    "voltage", "current", "thrust", "torque", "omega").  Output is
    deterministic for a fixed seed: one row per (distance, setpoint) pair,
    distances outermost.
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
    n = len(values)
    return SteadyTable(
        [config_id] * n,
        np.full(n, geometry.radius),
        [prop_count] * n,
        np.full(n, spacing),
        np.repeat(distances, len(setpoints)),
        [f"sp{idx:02d}" for idx in range(len(setpoints))] * len(distances),
        *values.T,
    )
