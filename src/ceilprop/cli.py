"""Command-line front end tying the pipeline together.

Subcommands: synth, extract, fit-motor, fit-gamma, fit-ceiling, fit-blade,
predict-coeffs, power-saving, resonance, anomalies.  Exit codes: 0 success,
1 usage error, 2 data error, 3 fit non-convergence.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .analysis import _power_columns, anomaly_scan, resonance_scan
from .bemt import PropellerGeometry, thrust_coefficient, torque_coefficient
from .core import Environment, ceiling_coefficient
from .fitting import (
    fit_blade_coefficients,
    fit_ceiling_params,
    fit_eta_gamma,
    flight_coefficient_points,
    synthesize_dataset,
)
from .io import (
    DataFormatError,
    ParamSet,
    _write_table,
    dataset_sha256,
    read_gamma_csv,
    read_params,
    read_raw_csv,
    read_steady_csv,
    steady_state_extract,
    write_gamma_csv,
    write_params,
    write_steady_csv,
)
from .motor import identify_motor

__all__ = ["cli_dispatch", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _expand_ranges(expr: str, log: bool = False) -> np.ndarray:
    """Parse '0.001:0.1:60' (start:stop:count) or comma-separated values/ranges."""
    values = []
    for part in expr.split(","):
        part = part.strip()
        if ":" in part:
            pieces = part.split(":")
            if len(pieces) != 3:
                raise _UsageError(f"range must be start:stop:count, got {part!r}")
            try:
                start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
            except ValueError:
                raise _UsageError(f"could not parse range {part!r}") from None
            if count < 1:
                raise _UsageError(f"range count must be >= 1, got {count}")
            if count == 1:
                values.append(np.array([start]))
            elif log:
                if start <= 0.0 or stop <= 0.0:
                    raise _UsageError("logarithmic ranges need positive endpoints")
                values.append(np.geomspace(start, stop, count))
            else:
                values.append(np.linspace(start, stop, count))
        else:
            try:
                values.append(np.array([float(part)]))
            except ValueError:
                raise _UsageError(f"could not parse value {part!r}") from None
    return np.concatenate(values)


def _sections(path, *names, blade=False):
    # the parameter file at path, then its sections names; DataFormatError for
    # the first missing, and with blade for a geometry without blade coefficients
    if not os.path.exists(path):
        raise DataFormatError(f"{path}: parameter file not found")
    params = read_params(path)
    sections = [getattr(params, name) for name in names]
    for name, section in zip(names, sections):
        if section is None:
            raise DataFormatError(f"{path}: parameter file has no {name} section")
        if name == "geometry" and blade and section.blade_coeffs is None:
            raise DataFormatError(f"{path}: geometry has no blade coefficients")
    return params, *sections


def _merge_params(path) -> ParamSet:
    return read_params(path) if os.path.exists(path) else ParamSet()


def _fit_provenance(path, report, **extra) -> dict:
    # what the ceiling and blade fits record of themselves in the parameter file
    return {
        "dataset_sha256": dataset_sha256(path),
        "n_obs": report.n_obs,
        "residual_rms": report.residual_rms,
        "converged": report.converged,
        "iterations": report.iterations,
        "notes": list(report.notes),
        **extra,
    }


def _fit_done(command, summary, report) -> int:
    print(f"{command}: {summary} (rms {report.residual_rms:.3g}, converged {report.converged})")
    for note in () if report.converged else report.notes:
        print(f"{command}: {note}", file=sys.stderr)
    return 0 if report.converged else 3


def _cmd_synth(args) -> int:
    _, geometry, ceiling, motor = _sections(args.params, "geometry", "ceiling", "motor", blade=True)
    records = synthesize_dataset(
        geometry,
        ceiling,
        motor,
        distances=_expand_ranges(args.distances, log=args.log),
        setpoints=_expand_ranges(args.setpoints),
        env=Environment(air_density=args.density),
        noise=args.noise,
        seed=args.seed,
        config_id=args.config_id,
        prop_count=args.prop_count,
        spacing=args.spacing,
    )
    write_steady_csv(records, args.out)
    print(f"synth: wrote {len(records)} records to {args.out} (seed {args.seed}, noise {args.noise})")
    return 0


def _cmd_extract(args) -> int:
    stream = read_raw_csv(
        args.input,
        radius=args.radius,
        distance=args.distance,
        config_id=args.config_id,
        prop_count=args.prop_count,
        spacing=args.spacing,
    )
    records = steady_state_extract(stream, window=args.window, stability_tol=args.stability_tol)
    write_steady_csv(records, args.out)
    print(f"extract: {len(records)} steady records from {args.input} to {args.out}")
    return 0


def _cmd_fit_motor(args) -> int:
    records = read_steady_csv(args.input)
    motor, report = identify_motor(records)
    params = _merge_params(args.params)
    params.motor = motor
    params.provenance["motor_fit"] = {
        "dataset_sha256": dataset_sha256(args.input),
        "n_obs": report.n_obs,
        "power_stage_rms_w": report.parameters["power_stage_rms"],
        "voltage_stage_rms_v": report.parameters["voltage_stage_rms"],
    }
    write_params(params, args.params)
    print(
        f"fit-motor: resistance {motor.resistance:.6g} ohm, "
        f"back-EMF {motor.back_emf:.6g} V s/rad ({report.n_obs} records)"
    )
    return 0


def _cmd_fit_gamma(args) -> int:
    records = read_steady_csv(args.input)
    motor = None
    if args.motor_params:
        _, motor = _sections(args.motor_params, "motor")
    eta, points = fit_eta_gamma(
        records,
        Environment(air_density=args.density),
        motor=motor,
        max_anchor_delta=args.max_anchor_delta,
    )
    params = _merge_params(args.params)
    old_coeffs = params.geometry.blade_coeffs if params.geometry is not None else None
    params.geometry = PropellerGeometry(radius=records[0].radius, figure_of_merit=eta, blade_coeffs=old_coeffs)
    params.provenance["gamma_fit"] = {
        "dataset_sha256": dataset_sha256(args.input),
        "n_obs": len(records),
        "n_gamma_points": len(points),
        "figure_of_merit": eta,
    }
    write_gamma_csv(points, args.out)
    write_params(params, args.params)
    print(f"fit-gamma: figure of merit {eta:.6g}, {len(points)} ceiling-factor points to {args.out}")
    return 0


def _cmd_fit_ceiling(args) -> int:
    points = read_gamma_csv(args.input)
    ceiling, report = fit_ceiling_params(points, reduced=args.reduced)
    params = _merge_params(args.params)
    params.ceiling = ceiling
    params.provenance["ceiling_fit"] = _fit_provenance(args.input, report, reduced=args.reduced)
    write_params(params, args.params)
    summary = f"asymmetry {ceiling.asymmetry:.6g}, recirculation {ceiling.recirculation:.6g}"
    return _fit_done("fit-ceiling", summary, report)


def _cmd_fit_blade(args) -> int:
    records = read_steady_csv(args.input)
    params, geometry, ceiling = _sections(args.params, "geometry", "ceiling")
    ct_points, ctau_points = flight_coefficient_points(records)
    coeffs, report = fit_blade_coefficients(
        ct_points,
        ctau_points,
        radius=geometry.radius,
        figure_of_merit=geometry.figure_of_merit,
        ceiling=ceiling,
        env=Environment(air_density=args.density),
    )
    params.geometry = replace(geometry, blade_coeffs=coeffs)
    params.provenance["blade_fit"] = _fit_provenance(args.input, report)
    write_params(params, args.params)
    return _fit_done("fit-blade", f"c0 {coeffs[0]:.6g}, c1 {coeffs[1]:.6g}, c2 {coeffs[2]:.6g}", report)


def _cmd_predict_coeffs(args) -> int:
    _, geometry, ceiling = _sections(args.params, "geometry", "ceiling", blade=True)
    env = Environment(air_density=args.density)
    deltas = _expand_ranges(args.deltas, log=args.log)
    gamma = ceiling_coefficient(deltas, ceiling)
    c_t = thrust_coefficient(geometry, deltas, ceiling, env)
    c_tau = torque_coefficient(c_t, geometry, env, gamma=gamma)
    columns = (deltas, gamma, c_t, c_tau)
    _write_table(args.out, ("delta", "gamma", "thrust_coeff_n_s2_rad2", "torque_coeff_nm_s2_rad2"), columns)
    print(f"predict-coeffs: {len(deltas)} gap ratios to {args.out}")
    return 0


def _cmd_power_saving(args) -> int:
    _, geometry, ceiling, motor = _sections(args.params, "geometry", "ceiling", "motor")
    env = Environment(air_density=args.density)
    c_tau = args.c_tau
    if c_tau is None:
        if geometry.blade_coeffs is None:
            raise DataFormatError(
                f"{args.params}: need --c-tau or geometry blade coefficients to fix the torque coefficient"
            )
        c_tau = torque_coefficient(thrust_coefficient(geometry, 0.0, ceiling, env), geometry, env)
    distances = _expand_ranges(args.distances, log=args.log)
    columns = _power_columns(args.thrust, geometry, ceiling, motor, c_tau, distances, env)
    _write_table(args.out, ("distance_m", "delta", "gamma", "mechanical_power_w", "input_power_w"), columns)
    print(f"power-saving: {len(columns[0])} distances to {args.out} (thrust {args.thrust} N, c_tau {c_tau:.6g})")
    return 0


def _cmd_resonance(args) -> int:
    _, geometry, ceiling = _sections(args.params, "geometry", "ceiling", blade=True)
    scan = resonance_scan(geometry, ceiling, _expand_ranges(args.deltas, log=args.log))
    _write_table(args.out, ("delta", "inflow_ratio", "product"), (scan.deltas, scan.inflow_ratios, scan.products))
    print(f"resonance: {len(scan.deltas)} gap ratios to {args.out}")
    return 0


def _cmd_anomalies(args) -> int:
    points = read_gamma_csv(args.input)
    _, ceiling = _sections(args.params, "ceiling")
    flagged = anomaly_scan(points, ceiling, threshold=args.threshold)
    _write_table(args.out, ("delta",), [flagged])
    print(f"anomalies: flagged {len(flagged)} of {len(points)} points to {args.out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ceilprop", description="Ceiling-effect propeller models and bench-data fits.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    density = argparse.ArgumentParser(add_help=False)  # the one --density of the commands that take it
    density.add_argument(
        "--density", type=float, default=Environment().air_density, help="air density [kg/m^3] (default %(default)s)"
    )

    def add(name, handler, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(handler=handler)
        return p

    p = add("synth", _cmd_synth, "generate a synthetic steady-state dataset from model parameters", density)
    p.add_argument("--params", required=True, help="parameter file with geometry, ceiling, and motor")
    p.add_argument("--out", required=True, help="output steady-state CSV")
    p.add_argument("--distances", required=True, help="ceiling distances [m], start:stop:count or comma list")
    p.add_argument("--setpoints", required=True, help="rotation rates [rad/s], start:stop:count or comma list")
    p.add_argument("--log", action="store_true", help="space distance ranges logarithmically")
    p.add_argument("--noise", type=float, default=0.0, help="relative noise sigma per channel (default 0)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--config-id", default="synth")
    p.add_argument("--prop-count", type=int, default=1)
    p.add_argument("--spacing", type=float, default=0.0)

    p = add("extract", _cmd_extract, "average steady windows of a raw log into steady records")
    p.add_argument("--input", required=True, help="raw acquisition CSV")
    p.add_argument("--out", required=True, help="output steady-state CSV")
    p.add_argument("--radius", type=float, required=True, help="propeller radius [m]")
    p.add_argument("--distance", type=float, required=True, help="propeller-to-ceiling distance [m]")
    p.add_argument("--window", type=float, default=2.0, help="averaging window [s] (default 2.0)")
    p.add_argument("--stability-tol", type=float, default=0.05, help="max std/mean per channel (default 0.05)")
    p.add_argument("--config-id", default="raw")
    p.add_argument("--prop-count", type=int, default=1)
    p.add_argument("--spacing", type=float, default=0.0)

    p = add("fit-motor", _cmd_fit_motor, "identify motor resistance and back-EMF constant")
    p.add_argument("--input", required=True, help="steady-state CSV with torque")
    p.add_argument("--params", required=True, help="parameter file to update")

    p = add("fit-gamma", _cmd_fit_gamma, "fit figure of merit and per-distance ceiling factors", density)
    p.add_argument("--input", required=True, help="steady-state CSV")
    p.add_argument("--out", required=True, help="output ceiling-factor CSV")
    p.add_argument("--params", required=True, help="parameter file to update")
    p.add_argument("--motor-params", help="parameter file with motor constants, for records without torque")
    p.add_argument("--max-anchor-delta", type=float, default=0.5, help="max gap ratio of the anchor group")

    p = add("fit-ceiling", _cmd_fit_ceiling, "fit asymmetry/recirculation to ceiling-factor points")
    p.add_argument("--input", required=True, help="ceiling-factor CSV from fit-gamma")
    p.add_argument("--params", required=True, help="parameter file to update")
    p.add_argument("--reduced", action="store_true", help="pin recirculation to 0")

    p = add("fit-blade", _cmd_fit_blade, "fit lumped blade constants to coefficient-vs-delta data", density)
    p.add_argument("--input", required=True, help="steady-state CSV with torque")
    p.add_argument("--params", required=True, help="parameter file with figure of merit and ceiling fit")

    p = add("predict-coeffs", _cmd_predict_coeffs, "tabulate modeled flight coefficients vs gap ratio", density)
    p.add_argument("--params", required=True)
    p.add_argument("--deltas", required=True, help="gap ratios, start:stop:count or comma list")
    p.add_argument("--log", action="store_true")
    p.add_argument("--out", required=True)

    p = add("power-saving", _cmd_power_saving, "hover power versus ceiling distance", density)
    p.add_argument("--params", required=True)
    p.add_argument("--thrust", type=float, required=True, help="required thrust per propeller [N]")
    p.add_argument("--distances", required=True, help="ceiling distances [m], start:stop:count or comma list")
    p.add_argument("--log", action="store_true")
    p.add_argument("--c-tau", type=float, help="constant torque coefficient [N m s^2/rad^2]")
    p.add_argument("--out", required=True)

    p = add("resonance", _cmd_resonance, "tabulate the resonance-scaling product vs gap ratio")
    p.add_argument("--params", required=True)
    p.add_argument("--deltas", required=True)
    p.add_argument("--log", action="store_true")
    p.add_argument("--out", required=True)

    p = add("anomalies", _cmd_anomalies, "flag ceiling-factor points dipping below the fitted model")
    p.add_argument("--input", required=True, help="ceiling-factor CSV")
    p.add_argument("--params", required=True, help="parameter file with a ceiling fit")
    p.add_argument("--threshold", type=float, default=0.10, help="relative dip threshold (default 0.10)")
    p.add_argument("--out", required=True)

    return parser


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
