"""Ceiling-effect aerodynamics of small propellers.

Models the thrust, torque, and power of a propeller spinning close beneath a
ceiling, fits the model constants to steady-state bench data, and analyzes
the power saved by hovering or perching near the surface.
"""

from .analysis import (
    PowerCurvePoint,
    ResonanceScan,
    anomaly_scan,
    power_saving_curve,
    resonance_metric,
    resonance_scan,
    thrust_amplification,
)
from .bemt import (
    BladeProfile,
    PropellerGeometry,
    bem_thrust,
    blade_integrals,
    inflow_ratio,
    thrust_coefficient,
    torque_coefficient,
)
from .core import (
    NO_CEILING,
    CeilingParams,
    Environment,
    FlowState,
    GapRatio,
    aerodynamic_power,
    ceiling_coefficient,
    flow_state,
    holding_force,
    induced_velocity,
    momentum_residual,
    radial_velocity,
)
from .fitting import (
    GammaPoint,
    SteadyRecord,
    SteadyTable,
    fit_blade_coefficients,
    fit_ceiling_params,
    fit_eta_gamma,
    flight_coefficient_points,
    synthesize_dataset,
)
from .io import (
    DataFormatError,
    ParamSet,
    RawSampleStream,
    read_gamma_csv,
    read_params,
    read_raw_csv,
    read_steady_csv,
    steady_state_extract,
    write_gamma_csv,
    write_params,
    write_steady_csv,
)
from .leastsq import FitReport, IdentifiabilityError, gauss_newton, grid_oracle, slope_through_origin
from .motor import (
    MotorParams,
    PowerBreakdown,
    identify_motor,
    input_power_from_mechanical,
    mechanical_power_from_motor,
    mechanical_power_from_torque,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Environment",
    "CeilingParams",
    "GapRatio",
    "NO_CEILING",
    "FlowState",
    "ceiling_coefficient",
    "induced_velocity",
    "aerodynamic_power",
    "momentum_residual",
    "radial_velocity",
    "holding_force",
    "flow_state",
    # bemt
    "PropellerGeometry",
    "BladeProfile",
    "inflow_ratio",
    "bem_thrust",
    "thrust_coefficient",
    "torque_coefficient",
    "blade_integrals",
    # motor
    "MotorParams",
    "PowerBreakdown",
    "mechanical_power_from_torque",
    "mechanical_power_from_motor",
    "identify_motor",
    "input_power_from_mechanical",
    # least squares
    "FitReport",
    "IdentifiabilityError",
    "slope_through_origin",
    "gauss_newton",
    "grid_oracle",
    # fitting pipeline
    "SteadyRecord",
    "SteadyTable",
    "GammaPoint",
    "fit_eta_gamma",
    "fit_ceiling_params",
    "flight_coefficient_points",
    "fit_blade_coefficients",
    "synthesize_dataset",
    # analysis
    "PowerCurvePoint",
    "ResonanceScan",
    "power_saving_curve",
    "thrust_amplification",
    "resonance_metric",
    "resonance_scan",
    "anomaly_scan",
    # io
    "DataFormatError",
    "ParamSet",
    "RawSampleStream",
    "read_steady_csv",
    "write_steady_csv",
    "read_gamma_csv",
    "write_gamma_csv",
    "read_raw_csv",
    "steady_state_extract",
    "read_params",
    "write_params",
]
