import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceilprop import (
    BladeProfile,
    CeilingParams,
    Environment,
    PropellerGeometry,
    bem_thrust,
    blade_integrals,
    ceiling_coefficient,
    inflow_ratio,
    thrust_coefficient,
    torque_coefficient,
)


class TestPropellerGeometry:
    def test_disc_area(self, geom_23mm):
        assert geom_23mm.disc_area == pytest.approx(math.pi * 0.023**2, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(radius=0.0, figure_of_merit=0.5),
            dict(radius=0.023, figure_of_merit=0.0),
            dict(radius=0.023, figure_of_merit=1.5),
            dict(radius=0.023, figure_of_merit=0.5, blade_coeffs=(0.0, 0.8, 0.02)),
            dict(radius=0.023, figure_of_merit=0.5, blade_coeffs=(0.1, -0.8, 0.02)),
            dict(radius=0.023, figure_of_merit=0.5, blade_coeffs=(0.1, 0.8, -0.02)),
        ],
    )
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PropellerGeometry(**kwargs)

    def test_operations_require_blade_coeffs(self, env):
        bare = PropellerGeometry(radius=0.023, figure_of_merit=0.5)
        with pytest.raises(ValueError):
            inflow_ratio(bare, 1.0, 0.0)


class TestInflowRatio:
    def test_small_prop_free_air(self, geom_23mm):
        assert inflow_ratio(geom_23mm, 1.0, 0.0) == pytest.approx(0.1171469773, rel=1e-9)

    def test_large_prop_near_ceiling(self, geom_50mm):
        x = inflow_ratio(geom_50mm, 1.356, 7.2)
        assert x == pytest.approx(0.0877347082, rel=1e-9)
        assert 7.2 * x == pytest.approx(0.6316898988, rel=1e-9)

    def test_delta_enters_only_through_c2(self, env):
        geom = PropellerGeometry(radius=0.023, figure_of_merit=0.5, blade_coeffs=(0.154, 0.846, 0.0))
        assert inflow_ratio(geom, 1.3, 17.0) == inflow_ratio(geom, 1.3, 0.0)

    def test_root_solves_quadratic(self, geom_23mm):
        c0, c1, c2 = geom_23mm.blade_coeffs
        for gamma, delta in [(1.0, 0.0), (2.5, 10.0), (4.0, 23.0)]:
            x = inflow_ratio(geom_23mm, gamma, delta)
            assert x > 0.0
            residual = 4.0 * gamma**2 * x**2 + (c1 - c2 * delta) * x - c0
            assert abs(residual) < 1e-14


class TestBemThrust:
    def test_zero_inflow_value(self, geom_23mm, env):
        t = bem_thrust(geom_23mm, 0.0, 2000.0, 0.0, env)
        assert t == pytest.approx(0.3249325204, rel=1e-9)

    def test_no_ceiling_equals_zero_c2(self, env, geom_23mm):
        geom_no_c2 = PropellerGeometry(radius=0.023, figure_of_merit=0.5, blade_coeffs=(0.154, 0.846, 0.0))
        assert bem_thrust(geom_23mm, 3.0, 1500.0, 0.0, env) == bem_thrust(geom_no_c2, 3.0, 1500.0, 0.0, env)

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0, 4.0, 5.0])
    @pytest.mark.parametrize("delta", [0.0, 5.0, 10.0, 18.0, 25.0])
    @pytest.mark.parametrize("omega", [500.0, 2000.0])
    def test_consistent_with_momentum_thrust(self, geom_23mm, env, gamma, delta, omega):
        # with the inflow from the joint solution, blade-element thrust equals
        # the momentum-theory thrust 2 rho A (gamma v_i)^2
        x = inflow_ratio(geom_23mm, gamma, delta)
        v_i = x * omega * geom_23mm.radius
        t_blade = bem_thrust(geom_23mm, v_i, omega, delta, env)
        t_momentum = 2.0 * env.air_density * geom_23mm.disc_area * gamma**2 * v_i**2
        assert t_blade == pytest.approx(t_momentum, rel=1e-10)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(0.01, 1.0),
        st.floats(0.01, 2.0),
        st.floats(0.0, 0.1),
        st.floats(0.0, 25.0),
        st.floats(1.0, 6.0),
        st.floats(0.01, 0.1),
        st.floats(100.0, 1e4),
    )
    def test_consistent_with_momentum_thrust_property(self, c0, c1, c2, delta, gamma, radius, omega):
        # the largest rounding comes from c0 - c1*x cancelling when c1^2 >> 16 c0 gamma^2
        geom = PropellerGeometry(radius=radius, figure_of_merit=0.5, blade_coeffs=(c0, c1, c2))
        env = Environment(air_density=1.2)
        v_i = inflow_ratio(geom, gamma, delta) * omega * radius
        t_momentum = 2.0 * env.air_density * geom.disc_area * gamma**2 * v_i**2
        assert bem_thrust(geom, v_i, omega, delta, env) == pytest.approx(t_momentum, rel=1e-12)

    def test_nonpositive_omega_rejected(self, geom_23mm, env):
        with pytest.raises(ValueError):
            bem_thrust(geom_23mm, 1.0, 0.0, 0.0, env)


class TestThrustCoefficient:
    def test_small_prop_free_air(self, geom_23mm, env):
        ct = thrust_coefficient(geom_23mm, 0.0, CeilingParams(1.0), env)
        assert ct == pytest.approx(2.8955737638e-08, rel=1e-9)
        assert ct == pytest.approx(29.0e-9, rel=0.01)

    def test_large_prop_free_air(self, geom_50mm, env):
        ct = thrust_coefficient(geom_50mm, 0.0, CeilingParams(1.0), env)
        assert ct == pytest.approx(5.6116446112e-07, rel=1e-9)

    def test_free_air_closed_form(self, env):
        for kwargs in (
            dict(radius=0.023, figure_of_merit=0.5, blade_coeffs=(0.154, 0.846, 0.022)),
            dict(radius=0.050, figure_of_merit=0.68, blade_coeffs=(0.058, 0.095, 0.011)),
            dict(radius=0.1, figure_of_merit=0.7, blade_coeffs=(0.3, 1.2, 0.05)),
        ):
            geom = PropellerGeometry(**kwargs)
            c0, c1, _ = geom.blade_coeffs
            closed = 8.0 * env.air_density * geom.disc_area * (
                c0 * geom.radius / (c1 + math.sqrt(c1 * c1 + 16.0 * c0))
            ) ** 2
            ct = thrust_coefficient(geom, 0.0, CeilingParams(1.0), env)
            assert ct == pytest.approx(closed, rel=1e-12)

    def test_c2_irrelevant_at_zero_delta(self, env):
        a = PropellerGeometry(radius=0.023, figure_of_merit=0.5, blade_coeffs=(0.154, 0.846, 0.022))
        b = PropellerGeometry(radius=0.023, figure_of_merit=0.5, blade_coeffs=(0.154, 0.846, 0.9))
        params = CeilingParams(1.6)
        assert thrust_coefficient(a, 0.0, params, env) == thrust_coefficient(b, 0.0, params, env)

    def test_amplification_near_contact(self, geom_23mm, env):
        # the fitted small-propeller model more than 2.5x-es the thrust
        # coefficient at a 1 mm gap (delta = 23)
        params = CeilingParams(asymmetry=1.60)
        ratio = thrust_coefficient(geom_23mm, 23.0, params, env) / thrust_coefficient(geom_23mm, 0.0, params, env)
        assert ratio > 2.5

    def test_array_deltas(self, geom_23mm, env):
        deltas = np.array([0.0, 5.0, 23.0])
        ct = thrust_coefficient(geom_23mm, deltas, CeilingParams(1.6), env)
        assert ct.shape == deltas.shape
        assert np.all(np.diff(ct) > 0.0)


class TestTorqueCoefficient:
    def test_small_prop_free_air(self, geom_23mm, env):
        ct = thrust_coefficient(geom_23mm, 0.0, CeilingParams(1.0), env)
        ctau = torque_coefficient(ct, geom_23mm, env)
        assert ctau == pytest.approx(1.5603554846e-10, rel=1e-9)
        assert ctau == pytest.approx(158e-12, rel=0.02)

    def test_large_prop_free_air(self, geom_50mm, env):
        ctau = torque_coefficient(5.612e-7, geom_50mm, env)
        assert ctau == pytest.approx(4.50e-9, rel=2e-3)
        assert ctau == pytest.approx(4.55e-9, rel=0.02)

    def test_zero_thrust_coefficient(self, geom_23mm, env):
        assert torque_coefficient(0.0, geom_23mm, env) == 0.0

    def test_monotone_in_thrust_coefficient(self, geom_23mm, env):
        values = [torque_coefficient(ct, geom_23mm, env) for ct in (1e-9, 2e-8, 5e-8, 1e-7)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_decreasing_in_figure_of_merit(self, env):
        cts = 2.9e-8
        values = []
        for eta in (0.3, 0.5, 0.7, 0.9):
            geom = PropellerGeometry(radius=0.023, figure_of_merit=eta, blade_coeffs=(0.154, 0.846, 0.022))
            values.append(torque_coefficient(cts, geom, env))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_ceiling_factor_scales_inverse(self, geom_23mm, env):
        base = torque_coefficient(2.9e-8, geom_23mm, env)
        assert torque_coefficient(2.9e-8, geom_23mm, env, gamma=2.0) == pytest.approx(base / 2.0, rel=1e-12)

    def test_negative_thrust_coefficient_rejected(self, geom_23mm, env):
        with pytest.raises(ValueError):
            torque_coefficient(-1e-9, geom_23mm, env)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
class TestNonFiniteRejected:
    def test_torque_coefficient_thrust_coefficient(self, geom_23mm, env, bad):
        with pytest.raises(ValueError, match="thrust coefficient must be finite and >= 0"):
            torque_coefficient(np.array([2.9e-8, bad]), geom_23mm, env)

    def test_torque_coefficient_gamma(self, geom_23mm, env, bad):
        with pytest.raises(ValueError, match="ceiling coefficient must be positive"):
            torque_coefficient(2.9e-8, geom_23mm, env, gamma=bad)

    def test_inflow_ratio_gamma(self, geom_23mm, bad):
        with pytest.raises(ValueError, match="ceiling coefficient must be positive"):
            inflow_ratio(geom_23mm, np.array([1.0, bad]), 1.0)


class TestBladeIntegrals:
    LIFT_SLOPE = 5.7
    CHORD = 0.008  # [m]
    PITCH = 0.2  # [rad]
    RADIUS = 0.023  # [m]

    def constant_profile(self, radial=0.0):
        return BladeProfile(
            lift_slope=self.LIFT_SLOPE,
            chord=lambda r: np.full_like(r, self.CHORD),
            pitch_twist=lambda r: np.full_like(r, self.PITCH),
            radial_twist=lambda r: np.full_like(r, radial),
        )

    def test_constant_profile_closed_form(self):
        # c0 = lift_slope * chord * pitch * R^3 / (3 A R^2) for constant blades
        c0, c1, c2 = blade_integrals(self.constant_profile(), self.RADIUS)
        expected = self.LIFT_SLOPE * self.CHORD * self.PITCH / (3.0 * math.pi * self.RADIUS)
        assert expected == pytest.approx(0.042072263217, rel=1e-9)
        assert c0 == pytest.approx(expected, rel=1e-6)
        assert c2 == 0.0

    def test_constant_c1_closed_form(self):
        _, c1, _ = blade_integrals(self.constant_profile(), self.RADIUS)
        expected = self.LIFT_SLOPE * self.CHORD / (2.0 * math.pi * self.RADIUS)
        assert c1 == pytest.approx(expected, rel=1e-6)

    def test_radial_twist_ratio_identity(self):
        # constant radial twist k gives c2 = (k / (2 * pitch)) * c0
        k = 0.1
        c0, _, c2 = blade_integrals(self.constant_profile(radial=k), self.RADIUS)
        assert c2 == pytest.approx(k / (2.0 * self.PITCH) * c0, rel=1e-9)

    def test_quadrature_converges(self):
        profile = BladeProfile(
            lift_slope=5.7,
            chord=lambda r: 0.01 * (1.0 - 0.5 * r / self.RADIUS),
            pitch_twist=lambda r: 0.3 * (1.0 - r / (2.0 * self.RADIUS)),
            radial_twist=lambda r: 0.05 * np.sin(math.pi * r / self.RADIUS),
        )
        coarse = blade_integrals(profile, self.RADIUS, samples=1001)
        fine = blade_integrals(profile, self.RADIUS, samples=2001)
        for a, b in zip(coarse, fine):
            assert a == pytest.approx(b, rel=1e-6)

    def test_sampled_profile_matches_callable(self):
        r = np.linspace(0.0, self.RADIUS, 1001)
        sampled = BladeProfile(
            lift_slope=self.LIFT_SLOPE,
            chord=np.full_like(r, self.CHORD),
            pitch_twist=np.full_like(r, self.PITCH),
            radial_twist=np.zeros_like(r),
            radii=r,
        )
        assert blade_integrals(sampled, self.RADIUS) == blade_integrals(self.constant_profile(), self.RADIUS)

    def test_too_few_samples_rejected(self):
        r = np.array([0.0, self.RADIUS])
        profile = BladeProfile(5.7, np.array([0.01, 0.01]), np.array([0.2, 0.2]), np.array([0.0, 0.0]), radii=r)
        with pytest.raises(ValueError):
            blade_integrals(profile, self.RADIUS)

    def test_large_angles_rejected(self):
        profile = BladeProfile(
            lift_slope=5.7,
            chord=lambda r: np.full_like(r, 0.01),
            pitch_twist=lambda r: np.full_like(r, 0.6),
            radial_twist=lambda r: np.zeros_like(r),
        )
        with pytest.raises(ValueError):
            blade_integrals(profile, self.RADIUS)

    def test_negative_chord_rejected(self):
        profile = BladeProfile(
            lift_slope=5.7,
            chord=lambda r: np.full_like(r, -0.01),
            pitch_twist=lambda r: np.full_like(r, 0.2),
            radial_twist=lambda r: np.zeros_like(r),
        )
        with pytest.raises(ValueError):
            blade_integrals(profile, self.RADIUS)


def test_thrust_and_ceiling_coefficients_share_gamma(geom_23mm, env):
    # the coefficient model evaluated at gamma(delta) equals the raw formula
    params = CeilingParams(1.6, 0.001)
    delta = 12.0
    g = ceiling_coefficient(delta, params)
    c0, c1, c2 = geom_23mm.blade_coeffs
    b = c1 - c2 * delta
    denom = b + math.sqrt(b * b + 16.0 * c0 * g * g)
    expected = 2.0 * env.air_density * geom_23mm.disc_area * (2.0 * c0 * geom_23mm.radius * g / denom) ** 2
    assert thrust_coefficient(geom_23mm, delta, params, env) == pytest.approx(expected, rel=1e-12)
