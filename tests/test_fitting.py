import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceilprop import (
    CeilingParams,
    GammaPoint,
    IdentifiabilityError,
    MotorParams,
    PropellerGeometry,
    SteadyRecord,
    SteadyTable,
    ceiling_coefficient,
    fit_blade_coefficients,
    fit_ceiling_params,
    fit_eta_gamma,
    flight_coefficient_points,
    synthesize_dataset,
    thrust_coefficient,
    torque_coefficient,
)
from ceilprop import leastsq
from ceilprop.bemt import _thrust_coefficient, _torque_coefficient
from ceilprop.core import _ceiling_coefficient

from _helpers import grid_oracle

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
            ("prop_count", True), ("voltage", math.nan), ("current", math.nan), ("thrust", math.nan), ("torque", math.nan),
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_points", 2.5), ("n_points", "3"), ("n_points", True), ("n_points", 2**53 + 1),
            ("delta", "0.1"), ("stderr", b"3"), pytest.param("gamma", 10**400, id="gamma-10**400"),
            ("stderr", 2**53 + 1), ("delta", 2**53 + 1),
        ],
    )
    def test_value_that_would_not_read_back_named_by_its_field(self, field, value):
        # read as a steady field is: no TypeError or OverflowError escapes, and an accepted point reads back
        kwargs = dict(delta=0.5, gamma=1.1, stderr=0.01, n_points=16)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be "):
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
        records = list(synth(geom_23mm, single_prop_ceiling, bench_motor, env))
        changes = {field: value} if field == "torque" else {field: value, "torque": None}
        records[5] = dataclasses.replace(records[5], **changes)
        with pytest.raises(ValueError, match=message):
            fit_eta_gamma(SteadyTable.of(records), env, motor=bench_motor)

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
            eta, points = fit_eta_gamma(SteadyTable.of([*records, *lone]), env)
        assert len(points) == 21

    def test_lone_record_between_kept_groups_changes_nothing(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        # the groups above the lone record's distance are numbered one lower once it is dropped
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env, noise=0.01, seed=5)
        middle = math.sqrt(SHORT_SCHEDULE["distances"][9] * SHORT_SCHEDULE["distances"][10])
        lone = synth(geom_23mm, single_prop_ceiling, bench_motor, env, distances=np.array([middle]))[:1]
        with_lone = SteadyTable.of([*records[:30], *lone, *records[30:]])
        with pytest.warns(UserWarning, match=re.escape(f"skipping distance {middle} m: fewer than 2")):
            fit, coefficients = fit_eta_gamma(with_lone, env), flight_coefficient_points(with_lone)
        assert fit == fit_eta_gamma(records, env) and coefficients == flight_coefficient_points(records)

    def test_zero_power_group_skipped_with_warning(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env)
        closest = records[0].distance
        idle = [dataclasses.replace(r, torque=0.0) if r.distance == closest else r for r in records]
        with pytest.warns(UserWarning, match=re.escape(f"skipping distance {closest} m: non-positive power slope")):
            eta, points = fit_eta_gamma(idle, env)
        assert eta == pytest.approx(0.50, rel=1e-6)
        assert len(points) == 20

    def test_points_are_those_built_one_at_a_time(self, geom_23mm, single_prop_ceiling, bench_motor, env):
        # checked as columns, and built with plain float and int fields, as GammaPoint builds one point
        records = synth(geom_23mm, single_prop_ceiling, bench_motor, env, noise=0.01, seed=7)
        _, points = fit_eta_gamma(records, env)
        one_at_a_time = [GammaPoint(float(p.delta), float(p.gamma), float(p.stderr), int(p.n_points)) for p in points]
        assert points == one_at_a_time and repr(points) == repr(one_at_a_time)


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
            fit(SteadyTable.of([*small, *large]), env)

    @pytest.mark.parametrize("fit", FITS.values(), ids=FITS)
    def test_mixed_configurations_rejected(self, fit, geom_23mm, single_prop_ceiling, bench_motor, env):
        records = list(synth(geom_23mm, single_prop_ceiling, bench_motor, env))
        records[-1] = dataclasses.replace(records[-1], config_id="big")
        with pytest.raises(ValueError, match=re.escape("several config_id values: ['big', 'synth']")):
            fit(SteadyTable.of(records), env)


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

    def test_degenerate_points_named(self):
        points = [GammaPoint(delta=d, gamma=1.0, stderr=0.0, n_points=16) for d in (0.0, 5e-7, 1e-6)]
        _, report = fit_ceiling_params(points)
        assert report.notes == ("non-identifiable parameters: asymmetry, recirculation",)

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

    def test_dead_c2_named(self, geom_23mm, single_prop_ceiling, env):
        # at gap ratios of 1e-12 the radial-inflow term c2*delta cannot be seen
        ct_points, ctau_points = self.model_points(geom_23mm, single_prop_ceiling, env, [0.0, 1e-12, 2e-12])
        _, report = fit_blade_coefficients(
            ct_points, ctau_points, radius=0.023, figure_of_merit=0.5, ceiling=single_prop_ceiling, env=env
        )
        assert report.notes == ("non-identifiable parameters: c2",)
        assert set(report.parameters) == {"c0", "c1", "c2"}

    def test_collinear_ratios_fit_exactly(self, single_prop_ceiling, env):
        # at gap ratios 0, 1e-6 and 2e-6 the columns of c1 and c2 are nearly
        # collinear, and from a poor start the fit can stall with c1 on its
        # lower bound at rms 0.034
        geom = PropellerGeometry(radius=0.0115, figure_of_merit=0.5, blade_coeffs=(0.154, 0.846, 0.022))
        ct_points, ctau_points = self.model_points(geom, single_prop_ceiling, env, [0.0, 1e-6, 2e-6])
        _, report = fit_blade_coefficients(
            ct_points, ctau_points, radius=0.0115, figure_of_merit=0.5, ceiling=single_prop_ceiling, env=env
        )
        assert report.converged
        assert report.residual_rms <= 1e-9

    def test_noisy_fit_held_at_c2_bound_matches_grid_oracle(self, env):
        # trial 18 of the bench's fit_batch workload at seed 11: the minimum
        # has c2 on its bound of 0, and a fit that stalls there without
        # holding c2 stops at 2.5 times the SSE of the grid oracle over the
        # acceptance suite's c6 box
        geom = PropellerGeometry(radius=0.023, figure_of_merit=0.5, blade_coeffs=(0.154, 0.846, 0.022))
        records = synthesize_dataset(
            geom,
            CeilingParams(asymmetry=6.686012148753465),
            MotorParams(resistance=2.1511076422027178, back_emf=0.0013455369471344686),
            distances=np.append(np.geomspace(0.001, 0.1, 38), 5.386040860493402),
            setpoints=np.linspace(800.0, 3000.0, 9),
            env=env,
            noise=0.019466187787134003,
            seed=3821785556,
        )
        eta, points = fit_eta_gamma(records, env)
        ceiling, _ = fit_ceiling_params(points, reduced=True)
        ct_points, ctau_points = flight_coefficient_points(records)
        coeffs, report = fit_blade_coefficients(
            ct_points, ctau_points, radius=0.023, figure_of_merit=eta, ceiling=ceiling, env=env
        )
        (d_ct, v_ct), (d_cq, v_cq) = np.array(ct_points).T, np.array(ctau_points).T
        g_ct, g_cq = ceiling_coefficient(d_ct, ceiling), ceiling_coefficient(d_cq, ceiling)
        rho_a = 2.0 * RHO * math.pi * 0.023**2

        def model_ct(c, d, g):
            b = c[:, 1:2] - c[:, 2:3] * d
            return rho_a * (2.0 * c[:, :1] * 0.023 * g / (b + np.sqrt(b * b + 16.0 * c[:, :1] * g * g))) ** 2

        def sse(c):  # the fit's objective, for one vector or an (n, 3) batch in blocks of 20000
            c = np.atleast_2d(c)
            out = np.concatenate([
                np.sum(((model_ct(block, d_ct, g_ct) - v_ct) / v_ct[0]) ** 2, axis=1)
                + np.sum(((model_ct(block, d_cq, g_cq) ** 1.5 / (eta * g_cq * math.sqrt(rho_a)) - v_cq) / v_cq[0]) ** 2, axis=1)
                for block in np.array_split(c, -(-len(c) // 20000))
            ])
            return out if len(out) > 1 else float(out[0])

        _, oracle_sse = grid_oracle(sse, bounds=[(0.05, 0.5), (0.2, 2.0), (0.0, 0.1)], resolution=100)
        assert report.converged
        assert coeffs[2] == 0.0
        assert sse(np.array(coeffs)) <= oracle_sse
        assert report.residual_rms**2 * report.n_obs == pytest.approx(sse(np.array(coeffs)), rel=1e-9)

    # The residual takes c_T once over the distinct gap ratios of both series
    # and indexes each series out of it.  The torque series here covers every
    # third thrust ratio, nothing, or adds a ratio the thrust series lacks;
    # the values wobble by 1% so that the fit leaves the truth.  The reference
    # constants are those of the fit that took c_T per series and started
    # from a coarse grid; the linear start moves where the solver stops by
    # about 1e-7 relative, while a torque series paired with the wrong ratios
    # moves the constants by far more than 1e-2.
    SHARED_INDEX_CASES = {
        "torque-subset": (
            np.linspace(0.0, 23.0, 24), np.linspace(0.0, 23.0, 24)[::3],
            (0.15783452771397055, 0.8737351034739026, 0.01842408600684958),
        ),
        "torque-empty": (np.linspace(0.0, 23.0, 24), [], (0.15721527646750044, 0.868856650723998, 0.018979029788408486)),
        "torque-extra-ratio": (
            np.linspace(0.0, 20.0, 11), [0.0, 5.0, 10.0, 21.5],
            (0.14852555739377427, 0.7930687326336667, 0.025363494975265955),
        ),
    }

    def wobbled_fit(self, ct_deltas, ctau_deltas, geom, ceiling, env, roll=0):
        wobble = lambda points: [(d, v * (1.0 + 0.01 * math.cos(3.0 * d))) for d, v in points]
        ct_points = wobble(self.model_points(geom, ceiling, env, ct_deltas)[0])
        ctau_points = wobble(self.model_points(geom, ceiling, env, ctau_deltas)[1])
        ctau_points = [(d, v) for (d, _), (_, v) in zip(ctau_points, np.roll(ctau_points, roll, axis=0))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the empty torque series warns
            coeffs, report = fit_blade_coefficients(
                ct_points, ctau_points, radius=0.023, figure_of_merit=0.5, ceiling=ceiling, env=env
            )
        assert report.converged
        return coeffs

    @pytest.mark.parametrize("case", SHARED_INDEX_CASES)
    def test_shared_thrust_coefficient_index(self, case, geom_23mm, single_prop_ceiling, env):
        ct_deltas, ctau_deltas, expected = self.SHARED_INDEX_CASES[case]
        coeffs = self.wobbled_fit(ct_deltas, ctau_deltas, geom_23mm, single_prop_ceiling, env)
        assert coeffs == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("case", ["torque-subset", "torque-extra-ratio"])
    def test_torque_on_wrong_ratios_moves_constants(self, case, geom_23mm, single_prop_ceiling, env):
        # the same torque values, each paired with its neighbour's gap ratio
        ct_deltas, ctau_deltas, expected = self.SHARED_INDEX_CASES[case]
        coeffs = self.wobbled_fit(ct_deltas, ctau_deltas, geom_23mm, single_prop_ceiling, env, roll=1)
        assert max(abs(c / e - 1.0) for c, e in zip(coeffs, expected)) > 1e-2

    def test_too_few_ratios_rejected(self, geom_23mm, single_prop_ceiling, env):
        ct_points, ctau_points = self.model_points(geom_23mm, single_prop_ceiling, env, [0.0, 10.0])
        with pytest.raises(ValueError):
            fit_blade_coefficients(
                ct_points, ctau_points, radius=0.023, figure_of_merit=0.5, ceiling=single_prop_ceiling, env=env
            )


# constants inside the fits' bounds, and gap ratios up to those of the bench
ASYMMETRY = st.floats(1.0, 100.0)
RECIRCULATION = st.floats(0.0, 1.0) | st.just(0.0)
BLADE = st.tuples(st.floats(1e-3, 10.0), st.floats(1e-3, 10.0), st.floats(0.0, 1.0))
RATIOS = st.lists(st.floats(0.0, 25.0), min_size=1, max_size=8).map(np.array)
RADIUS = st.floats(0.005, 0.1)


class TestLinearStarts:
    """Each fit starts from one linear solve of an identity its model obeys.

    Rounding in a sum is relative to its largest term, so each identity is
    checked to 1e-12 of that term.
    """

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(RATIOS, ASYMMETRY, RECIRCULATION)
    def test_ceiling_identity(self, delta, a0, a1):
        gamma = _ceiling_coefficient(delta, a0, a1)
        terms = np.array([gamma * gamma, gamma, a0 * delta**2 / 32.0, a1 * gamma * delta**2])
        lhs, rhs = gamma * gamma - gamma, a0 * delta**2 / 32.0 - a1 * gamma * delta**2
        np.testing.assert_array_less(np.abs(lhs - rhs), 1e-12 * terms.max(axis=0))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(RATIOS, ASYMMETRY, RECIRCULATION, BLADE, RADIUS, st.floats(0.1, 1.0))
    def test_blade_identity(self, delta, a0, a1, blade, radius, eta):
        c0, c1, c2 = blade
        gamma = _ceiling_coefficient(delta, a0, a1)
        c_t = _thrust_coefficient(delta, gamma, c0, c1, c2, radius, RHO)
        rho_a = 2.0 * RHO * math.pi * radius**2
        x = np.sqrt(c_t / (rho_a * radius**2)) / gamma
        terms = np.array([np.full_like(x, c0), c1 * x, c2 * delta * x, 4.0 * gamma**2 * x**2])
        lhs, rhs = c0 - c1 * x + c2 * delta * x, 4.0 * gamma**2 * x**2
        np.testing.assert_array_less(np.abs(lhs - rhs), 1e-12 * terms.max(axis=0))
        c_tau = _torque_coefficient(c_t, gamma, eta, radius, RHO)
        np.testing.assert_allclose((c_tau * eta * gamma * np.sqrt(rho_a)) ** (2.0 / 3.0), c_t, rtol=1e-12)

    @staticmethod
    def starts(monkeypatch):
        # the x0 of every gauss_newton call the fits make
        started, real = [], leastsq.gauss_newton

        def spy(residual, x0, *args, **kwargs):
            started.append(np.array(x0))
            return real(residual, x0, *args, **kwargs)

        monkeypatch.setattr(leastsq, "gauss_newton", spy)
        return started

    @pytest.mark.parametrize("truth", [(1.6,), (6.7,), (1.6, 0.0), (1.0, 0.0161784), (6.7, 0.02), (40.0, 0.5)])
    def test_ceiling_start_exact_on_model_points(self, truth, monkeypatch):
        delta = np.geomspace(0.05, 23.0, 20)
        gamma = ceiling_coefficient(delta, CeilingParams(*truth))
        started = self.starts(monkeypatch)
        fit_ceiling_params([GammaPoint(d, g, 0.01 * g, 16) for d, g in zip(delta, gamma)], reduced=len(truth) == 1)
        np.testing.assert_allclose(started[0], truth, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "radius, eta, blade, ceiling",
        [
            (0.023, 0.5, (0.154, 0.846, 0.022), (1.6, 0.0)),
            (0.050, 0.68, (0.058, 0.095, 0.011), (1.0, 0.0161784)),
            (0.023, 0.5, (0.154, 0.846, 0.0), (6.7, 0.0)),
        ],
    )
    @pytest.mark.parametrize("torque", [True, False])
    def test_blade_start_exact_on_model_points(self, radius, eta, blade, ceiling, torque, env, monkeypatch):
        geom = PropellerGeometry(radius=radius, figure_of_merit=eta, blade_coeffs=blade)
        ceiling = CeilingParams(*ceiling)
        ct_points, ctau_points = TestFitBladeCoefficients().model_points(geom, ceiling, env, np.linspace(0.0, 23.0, 24))
        started = self.starts(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the thrust-only fit warns
            fit_blade_coefficients(
                ct_points, ctau_points if torque else [], radius=radius, figure_of_merit=eta, ceiling=ceiling, env=env
            )
        np.testing.assert_allclose(started[0], blade, rtol=1e-9, atol=1e-9)


class TestFitsStayInTheirBox:
    """The ceiling and blade fits evaluate their residuals inside the bounds only.

    The data are a 50-mm propeller under a ceiling with recirculation, so the
    reduced ceiling fit is misspecified: its asymmetry starts and ends on its
    lower bound, and the blade fit then starts with c0 and c1 on theirs.
    """

    @staticmethod
    def boxed(monkeypatch):
        # the names of every fit whose residual is called; a parameter
        # column outside the fit's bounds fails at once
        called, real = [], leastsq.gauss_newton

        def spy(residual, x0, bounds, names=None, columns=False):
            lo, hi = np.array(bounds).T

            def inside(p):
                cols = np.asarray(p).reshape(len(bounds), -1)
                assert np.all((lo[:, None] <= cols) & (cols <= hi[:, None])), f"{names} at {cols.T} outside {bounds}"
                called.append(names)
                return residual(p)

            return real(inside, x0, bounds, names, columns)

        monkeypatch.setattr(leastsq, "gauss_newton", spy)
        return called

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_recirculating_data_fitted_reduced_and_full(self, noise, env, monkeypatch):
        geom = PropellerGeometry(radius=0.05, figure_of_merit=0.68, blade_coeffs=(0.058, 0.095, 0.011))
        distances = np.append(np.geomspace(0.001, 0.1, 59), 3.09)  # delta up to 50
        records = synthesize_dataset(
            geom, CeilingParams(3.81, 0.0487), MotorParams(1.435, 0.001456),
            distances=distances, setpoints=np.linspace(800.0, 3000.0, 24), env=env, noise=noise,
        )
        eta, points = fit_eta_gamma(records, env)
        ct_points, ctau_points = flight_coefficient_points(records)
        called = self.boxed(monkeypatch)
        for reduced in (True, False):
            ceiling, _ = fit_ceiling_params(points, reduced=reduced)
            _, report = fit_blade_coefficients(
                ct_points, ctau_points, radius=0.05, figure_of_merit=eta, ceiling=ceiling, env=env
            )
            assert report.converged, report.notes
        assert set(called) == {("asymmetry",), ("asymmetry", "recirculation"), ("c0", "c1", "c2")}


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
