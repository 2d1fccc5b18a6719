import dataclasses
import math
import re

import numpy as np
import pytest

from ceilprop import (
    CeilingParams,
    GammaPoint,
    IdentifiabilityError,
    PropellerGeometry,
    SteadyRecord,
    ceiling_coefficient,
    fit_blade_coefficients,
    fit_ceiling_params,
    fit_eta_gamma,
    flight_coefficient_points,
    synthesize_dataset,
    thrust_coefficient,
    torque_coefficient,
)

RHO = 1.2

# 20 bench distances plus one far reference where the ceiling has no effect
SHORT_SCHEDULE = dict(
    distances=np.concatenate([np.geomspace(0.001, 0.1, 20), [10.0]]),
    setpoints=np.linspace(800.0, 3000.0, 6),
)


def synth(geom, ceiling, motor, env, **kwargs):
    merged = {**SHORT_SCHEDULE, **kwargs}
    return synthesize_dataset(geom, ceiling, motor, env=env, **merged)


class TestSteadyRecord:
    def test_delta_derived(self):
        rec = SteadyRecord("c", 0.023, 1, 0.0, 0.0115, "s", 3.0, 1.0, 0.05, 1e-4, 2000.0)
        assert rec.delta == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("distance", 0.0), ("distance", -1.0), ("radius", 0.0), ("thrust", -1e-6), ("omega", 0.0), ("prop_count", 0),
            ("voltage", math.nan), ("current", math.nan), ("thrust", math.nan), ("torque", math.nan),
            ("thrust", math.inf), ("current", -math.inf),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        kwargs = dict(
            config_id="c", radius=0.023, prop_count=1, spacing=0.0, distance=0.01,
            setpoint="s", voltage=3.0, current=1.0, thrust=0.05, torque=1e-4, omega=2000.0,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            SteadyRecord(**kwargs)


class TestGammaPoint:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("gamma", 0.0), ("n_points", 1),
            ("delta", math.nan), ("gamma", math.nan), ("stderr", math.nan),
            ("delta", math.inf), ("gamma", math.inf), ("stderr", -math.inf),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        kwargs = dict(delta=0.5, gamma=1.1, stderr=0.01, n_points=16)
        kwargs[field] = value
        with pytest.raises(ValueError):
            GammaPoint(**kwargs)


class TestSynthesizeDataset:
    def test_zero_noise_satisfies_model_identities(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        assert len(records) == 21 * 6
        for rec in records[:: 17]:
            gamma = ceiling_coefficient(rec.delta, single_prop_ceiling)
            c_t = thrust_coefficient(geom_23mm, rec.delta, single_prop_ceiling, env)
            c_tau = torque_coefficient(c_t, geom_23mm, env, gamma=gamma)
            assert rec.thrust == pytest.approx(c_t * rec.omega**2, rel=1e-12)
            assert rec.torque == pytest.approx(c_tau * rec.omega**2, rel=1e-12)
            p_mech = rec.torque * rec.omega
            assert rec.current == pytest.approx(p_mech / (bench_motor.back_emf * rec.omega), rel=1e-12)
            assert rec.voltage == pytest.approx(
                rec.current * bench_motor.resistance + bench_motor.back_emf * rec.omega, rel=1e-12
            )

    def test_fixed_seed_is_deterministic(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        a = synth(geom_23mm, single_prop_ceiling, bench_motor, env, noise=0.02, seed=7)
        b = synth(geom_23mm, single_prop_ceiling, bench_motor, env, noise=0.02, seed=7)
        assert a == b
        c = synth(geom_23mm, single_prop_ceiling, bench_motor, env, noise=0.02, seed=8)
        assert a != c

    def test_per_channel_noise_map(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(
            geom_23mm, single_prop_ceiling, bench_motor, env,
            noise={"voltage": 0.02, "omega": 0.005}, seed=3,
        )
        clean = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        # thrust channel got zero sigma, so it stays exact
        assert all(a.thrust == b.thrust for a, b in zip(records, clean))
        assert any(a.voltage != b.voltage for a, b in zip(records, clean))

    def test_unknown_noise_channel_rejected(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        with pytest.raises(ValueError):
            synth(geom_23mm, single_prop_ceiling, bench_motor, env, noise={"volts": 0.02})

    def test_nonphysical_schedule_rejected(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        with pytest.raises(ValueError):
            synth(geom_23mm, single_prop_ceiling, bench_motor, env, distances=np.array([0.0, 0.1]))
        with pytest.raises(ValueError):
            synth(geom_23mm, single_prop_ceiling, bench_motor, env, setpoints=np.array([-100.0]))


class TestFitEtaGamma:
    def test_exact_recovery(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        eta, points = fit_eta_gamma(records, env)
        assert eta == pytest.approx(0.50, rel=1e-6)
        for p in points:
            assert p.gamma == pytest.approx(ceiling_coefficient(p.delta, single_prop_ceiling), rel=1e-6)
        assert points == sorted(points, key=lambda p: p.delta)

    def test_anchor_group_pins_gamma_to_one(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        _, points = fit_eta_gamma(records, env)
        assert points[0].gamma == pytest.approx(1.0, rel=1e-12)

    def test_single_far_group_slope_defines_eta(self, env):
        # slope of 2 between shaft power and T*sqrt(T/(2 rho A)) -> eta = 0.5
        records = []
        omega = 1000.0
        for i, thrust in enumerate((0.01, 0.02, 0.04)):
            x = thrust * math.sqrt(thrust / (2.0 * RHO * math.pi * 0.023**2))
            records.append(
                SteadyRecord("c", 0.023, 1, 0.0, 1.0, f"s{i}", 3.0, 1.0, thrust, 2.0 * x / omega, omega)
            )
        eta, points = fit_eta_gamma(records, env)
        assert eta == pytest.approx(0.5, rel=1e-12)
        assert len(points) == 1
        assert points[0].gamma == pytest.approx(1.0, rel=1e-12)

    def test_motor_model_supplies_shaft_power(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        no_torque = [
            SteadyRecord(
                r.config_id, r.radius, r.prop_count, r.spacing, r.distance,
                r.setpoint, r.voltage, r.current, r.thrust, None, r.omega,
            )
            for r in records
        ]
        with pytest.raises(ValueError):
            fit_eta_gamma(no_torque, env)
        eta, points = fit_eta_gamma(no_torque, env, motor=bench_motor)
        assert eta == pytest.approx(0.50, rel=1e-6)

    def test_mixed_torque_group_uses_both_sources(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        mixed = [dataclasses.replace(r, torque=None) if i % 2 else r for i, r in enumerate(records)]
        eta, points = fit_eta_gamma(mixed, env, motor=bench_motor)
        assert eta == pytest.approx(0.50, rel=1e-6)
        assert len(points) == 21

    @pytest.mark.parametrize(
        "field, value, message",
        [("torque", -1e-6, "torque and rotation rate"), ("current", -0.1, "current and rotation rate")],
    )
    def test_negative_shaft_power_input_rejected(
        self, geom_23mm, single_prop_ceiling, bench_motor, env, field, value, message
    ):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        changes = {field: value} if field == "torque" else {field: value, "torque": None}
        records[5] = dataclasses.replace(records[5], **changes)
        with pytest.raises(ValueError, match=message):
            fit_eta_gamma(records, env, motor=bench_motor)

    def test_close_anchor_rejected(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(
            geom_23mm, single_prop_ceiling, bench_motor, env,
            distances=np.geomspace(0.001, 0.04, 10),  # delta >= 0.575 everywhere
        )
        with pytest.raises(IdentifiabilityError):
            fit_eta_gamma(records, env)

    def test_small_groups_skipped_with_warning(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        lone = synth(geom_23mm, single_prop_ceiling, bench_motor, env, distances=np.array([0.0005]))[:1]
        with pytest.warns(UserWarning, match="fewer than 2"):
            eta, points = fit_eta_gamma(records + lone, env)
        assert len(points) == 21

    def test_zero_power_group_skipped_with_warning(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        closest = records[0].distance
        idle = [dataclasses.replace(r, torque=0.0) if r.distance == closest else r for r in records]
        with pytest.warns(UserWarning, match=re.escape(f"skipping distance {closest} m: non-positive power slope")):
            eta, points = fit_eta_gamma(idle, env)
        assert eta == pytest.approx(0.50, rel=1e-6)
        assert len(points) == 20


class TestOneRigRule:
    """Each slope fit is for one propeller in one configuration."""

    FITS = {
        "fit_eta_gamma": lambda records, env: fit_eta_gamma(records, env),
        "flight_coefficient_points": lambda records, env: flight_coefficient_points(records),
    }

    @pytest.mark.parametrize("fit", FITS.values(), ids=FITS)
    def test_mixed_radii_rejected(self, fit, geom_23mm, geom_50mm, single_prop_ceiling, bench_motor, env):
        small = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        large = synth(geom_50mm, single_prop_ceiling, bench_motor, env, config_id="big")
        with pytest.raises(ValueError, match=re.escape("several radius values: [0.023, 0.05]")):
            fit(small + large, env)

    @pytest.mark.parametrize("fit", FITS.values(), ids=FITS)
    def test_mixed_configurations_rejected(self, fit, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        records[-1] = dataclasses.replace(records[-1], config_id="big")
        with pytest.raises(ValueError, match=re.escape("several config_id values: ['big', 'synth']")):
            fit(records, env)


class TestFitCeilingParams:
    def gamma_points(self, params, deltas, stderr=0.0):
        return [
            GammaPoint(delta=float(d), gamma=ceiling_coefficient(float(d), params), stderr=stderr, n_points=16)
            for d in deltas
        ]

    def test_round_trip_full_model(self):
        truth = CeilingParams(asymmetry=2.0, recirculation=0.002)
        points = self.gamma_points(truth, np.arange(0.0, 25.0, 2.0))
        fitted, report = fit_ceiling_params(points)
        assert fitted.asymmetry == pytest.approx(2.0, rel=1e-6)
        assert fitted.recirculation == pytest.approx(0.002, abs=1e-6)
        assert report.converged

    def test_round_trip_reduced_model(self):
        truth = CeilingParams(asymmetry=1.60)
        points = self.gamma_points(truth, np.linspace(0.2, 23.0, 30))
        fitted, report = fit_ceiling_params(points, reduced=True)
        assert fitted.asymmetry == pytest.approx(1.60, rel=1e-6)
        assert fitted.recirculation == 0.0
        assert report.converged
        assert set(report.parameters) == {"asymmetry"}

    def test_weighted_by_stderr(self):
        truth = CeilingParams(asymmetry=1.60)
        points = self.gamma_points(truth, np.linspace(0.2, 23.0, 30), stderr=0.01)
        # corrupt one point but give it a huge stderr: the fit should ignore it
        bad = GammaPoint(delta=10.0, gamma=3.0 * ceiling_coefficient(10.0, truth), stderr=1e3, n_points=16)
        fitted, _ = fit_ceiling_params(points + [bad], reduced=True)
        assert fitted.asymmetry == pytest.approx(1.60, rel=1e-4)

    def test_degenerate_points_flagged(self):
        points = [GammaPoint(delta=d, gamma=1.0, stderr=0.0, n_points=16) for d in (0.0, 5e-7, 1e-6)]
        fitted, report = fit_ceiling_params(points)
        assert any("non-identifiable" in note for note in report.notes)

    def test_insufficient_points_rejected(self):
        truth = CeilingParams(asymmetry=1.6)
        points = self.gamma_points(truth, [0.0, 10.0])
        with pytest.raises(ValueError):
            fit_ceiling_params(points)  # full model needs 3 distinct ratios
        fit_ceiling_params(points, reduced=True)
        with pytest.raises(ValueError):
            fit_ceiling_params(points[:1], reduced=True)


class TestFlightCoefficientPoints:
    def test_exact_slopes(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        ct_points, ctau_points = flight_coefficient_points(records)
        assert len(ct_points) == 21 and len(ctau_points) == 21
        for delta, value in ct_points:
            expected = thrust_coefficient(geom_23mm, delta, single_prop_ceiling, env)
            assert value == pytest.approx(expected, rel=1e-12)
        for delta, value in ctau_points:
            gamma = ceiling_coefficient(delta, single_prop_ceiling)
            expected = torque_coefficient(
                thrust_coefficient(geom_23mm, delta, single_prop_ceiling, env), geom_23mm, env, gamma=gamma
            )
            assert value == pytest.approx(expected, rel=1e-12)

    def test_torqueless_groups_yield_no_torque_points(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        stripped = [
            SteadyRecord(
                r.config_id, r.radius, r.prop_count, r.spacing, r.distance,
                r.setpoint, r.voltage, r.current, r.thrust, None, r.omega,
            )
            for r in records
        ]
        ct_points, ctau_points = flight_coefficient_points(stripped)
        assert len(ct_points) == 21
        assert ctau_points == []


class TestFitBladeCoefficients:
    def model_points(self, geom, ceiling, env, deltas):
        ct_points, ctau_points = [], []
        for d in deltas:
            gamma = ceiling_coefficient(float(d), ceiling)
            c_t = thrust_coefficient(geom, float(d), ceiling, env)
            ct_points.append((float(d), c_t))
            ctau_points.append((float(d), torque_coefficient(c_t, geom, env, gamma=gamma)))
        return ct_points, ctau_points

    def test_round_trip_small_prop(self, geom_23mm, single_prop_ceiling, env):
        ct_points, ctau_points = self.model_points(geom_23mm, single_prop_ceiling, env, np.linspace(0.0, 23.0, 24))
        coeffs, report = fit_blade_coefficients(
            ct_points, ctau_points, radius=0.023, figure_of_merit=0.50, ceiling=single_prop_ceiling, env=env
        )
        for fitted, true in zip(coeffs, (0.154, 0.846, 0.022)):
            assert fitted == pytest.approx(true, rel=1e-4)
        assert report.converged

    def test_round_trip_large_prop(self, geom_50mm, env):
        ceiling = CeilingParams(asymmetry=1.0, recirculation=0.0161784)
        ct_points, ctau_points = self.model_points(geom_50mm, ceiling, env, np.linspace(0.0, 25.0, 26))
        coeffs, _ = fit_blade_coefficients(
            ct_points, ctau_points, radius=0.050, figure_of_merit=0.68, ceiling=ceiling, env=env
        )
        for fitted, true in zip(coeffs, (0.058, 0.095, 0.011)):
            assert fitted == pytest.approx(true, rel=1e-4)

    def test_zero_c2_truth_hits_lower_bound(self, env, single_prop_ceiling):
        geom = PropellerGeometry(radius=0.023, figure_of_merit=0.5, blade_coeffs=(0.154, 0.846, 0.0))
        ct_points, ctau_points = self.model_points(geom, single_prop_ceiling, env, np.linspace(0.0, 20.0, 21))
        coeffs, _ = fit_blade_coefficients(
            ct_points, ctau_points, radius=0.023, figure_of_merit=0.5, ceiling=single_prop_ceiling, env=env
        )
        assert coeffs[0] == pytest.approx(0.154, rel=1e-4)
        assert coeffs[1] == pytest.approx(0.846, rel=1e-4)
        assert coeffs[2] == pytest.approx(0.0, abs=1e-6)

    def test_thrust_only_fit_with_warning(self, geom_23mm, single_prop_ceiling, env):
        ct_points, _ = self.model_points(geom_23mm, single_prop_ceiling, env, np.linspace(0.0, 23.0, 24))
        with pytest.warns(UserWarning, match="thrust series only"):
            coeffs, _ = fit_blade_coefficients(
                ct_points, [], radius=0.023, figure_of_merit=0.50, ceiling=single_prop_ceiling, env=env
            )
        assert coeffs[0] == pytest.approx(0.154, rel=1e-3)

    def test_too_few_ratios_rejected(self, geom_23mm, single_prop_ceiling, env):
        ct_points, ctau_points = self.model_points(geom_23mm, single_prop_ceiling, env, [0.0, 10.0])
        with pytest.raises(ValueError):
            fit_blade_coefficients(
                ct_points, ctau_points, radius=0.023, figure_of_merit=0.5, ceiling=single_prop_ceiling, env=env
            )


class TestBundledDataset:
    def test_bundled_synthetic_set_recovers_figure_of_merit(self, env):
        from pathlib import Path

        from ceilprop import read_params, read_steady_csv

        data = Path(__file__).resolve().parent.parent / "data"
        records = read_steady_csv(data / "steady_23mm_synthetic.csv")
        truth = read_params(data / "ref_23mm.json")
        assert "synthetic" in truth.provenance["source"]
        eta, _ = fit_eta_gamma(records, env)
        assert eta == pytest.approx(0.50, rel=0.01)


class TestPipelineRoundTrip:
    def test_zero_noise_recovers_all_constants(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        eta, points = fit_eta_gamma(records, env)
        ceiling, _ = fit_ceiling_params(points)
        ct_points, ctau_points = flight_coefficient_points(records)
        coeffs, _ = fit_blade_coefficients(
            ct_points, ctau_points, radius=0.023, figure_of_merit=eta, ceiling=ceiling, env=env
        )
        assert eta == pytest.approx(0.50, rel=1e-5)
        assert ceiling.asymmetry == pytest.approx(1.60, rel=1e-5)
        assert ceiling.recirculation == pytest.approx(0.0, abs=1e-5)
        for fitted, true in zip(coeffs, (0.154, 0.846, 0.022)):
            assert fitted == pytest.approx(true, rel=1e-4)
