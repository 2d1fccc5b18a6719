import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceilprop import (
    CeilingParams,
    Environment,
    aerodynamic_power,
    ceiling_coefficient,
    flow_state,
    holding_force,
    induced_velocity,
    momentum_residual,
    radial_velocity,
)


class TestCeilingCoefficient:
    def test_no_ceiling_is_exactly_one(self):
        for asym, recirc in [(1.0, 0.0), (1.6, 0.0), (2.0, 0.002), (100.0, 1.0)]:
            assert ceiling_coefficient(0.0, CeilingParams(asym, recirc)) == 1.0

    def test_reduced_model_value(self):
        # closed-form evaluation at delta=8 with asymmetry 1.60
        g = ceiling_coefficient(8.0, CeilingParams(asymmetry=1.60))
        assert g == pytest.approx(2.357417562101, rel=1e-12)

    def test_full_model_value(self):
        g = ceiling_coefficient(10.0, CeilingParams(asymmetry=2.0, recirculation=0.002))
        assert g == pytest.approx(2.931797780234, rel=1e-12)

    def test_matches_ideal_closed_form(self):
        # asymmetry 1, recirculation 0 reduces to (1 + sqrt(1 + d^2/8)) / 2
        params = CeilingParams(asymmetry=1.0)
        for d in np.linspace(0.0, 30.0, 121):
            expected = 0.5 + 0.5 * math.sqrt(1.0 + d * d / 8.0)
            assert ceiling_coefficient(float(d), params) == pytest.approx(expected, rel=1e-12)

    def test_monotone_without_recirculation(self):
        deltas = np.linspace(0.0, 30.0, 301)
        for asym in (1.0, 1.6, 5.0):
            g = ceiling_coefficient(deltas, CeilingParams(asym))
            assert np.all(np.diff(g) >= 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(1.0, 100.0), st.lists(st.floats(0.0, 100.0), min_size=2, max_size=16))
    def test_at_least_one_and_monotone_without_recirculation_property(self, asym, deltas):
        g = ceiling_coefficient(np.sort(deltas), CeilingParams(asym))
        assert np.all(g >= 1.0)
        assert np.all(np.diff(g) >= 0.0)

    def test_array_input_matches_scalar(self):
        params = CeilingParams(1.6, 0.001)
        deltas = np.array([0.0, 1.0, 7.2, 23.0])
        vec = ceiling_coefficient(deltas, params)
        assert vec.shape == deltas.shape
        for d, g in zip(deltas, vec):
            assert g == ceiling_coefficient(float(d), params)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            ceiling_coefficient(-0.1, CeilingParams(1.0))

    def test_asymmetry_below_one_rejected(self):
        with pytest.raises(ValueError):
            CeilingParams(asymmetry=0.99)

    def test_negative_recirculation_rejected(self):
        with pytest.raises(ValueError):
            CeilingParams(asymmetry=1.0, recirculation=-1e-9)


class TestInducedVelocityAndPower:
    def test_zero_thrust(self, env):
        assert induced_velocity(0.0, 1.0, env, 1.6619e-3) == 0.0
        assert aerodynamic_power(0.0, 1.0, env, 1.6619e-3) == 0.0

    def test_hover_case(self, env):
        v = induced_velocity(0.0785, 1.0, env, 1.6619e-3)
        assert v == pytest.approx(4.4363598237, rel=1e-9)

    def test_ceiling_halves_induced_velocity(self, env):
        v1 = induced_velocity(0.0785, 1.0, env, 1.6619e-3)
        v2 = induced_velocity(0.0785, 2.0, env, 1.6619e-3)
        assert v2 == pytest.approx(v1 / 2.0, rel=1e-12)
        assert v2 == pytest.approx(2.2181799118, rel=1e-9)

    def test_power_value(self, env):
        p = aerodynamic_power(0.0785, 1.0, env, 1.6619e-3)
        assert p == pytest.approx(0.3482542462, rel=1e-9)

    def test_power_halves_with_gamma_two(self, env):
        p1 = aerodynamic_power(0.0785, 1.0, env, 1.6619e-3)
        p2 = aerodynamic_power(0.0785, 2.0, env, 1.6619e-3)
        assert p2 == pytest.approx(p1 / 2.0, rel=1e-12)

    def test_power_equals_thrust_times_induced_velocity(self, env):
        for thrust in (1e-3, 0.0785, 1.0, 10.0):
            for gamma in (1.0, 1.5, 4.0):
                p = aerodynamic_power(thrust, gamma, env, 1.6619e-3)
                v = induced_velocity(thrust, gamma, env, 1.6619e-3)
                assert p == pytest.approx(thrust * v, rel=1e-12)

    def test_negative_thrust_rejected(self, env):
        with pytest.raises(ValueError):
            induced_velocity(-1e-9, 1.0, env, 1.6619e-3)
        with pytest.raises(ValueError):
            aerodynamic_power(-1e-9, 1.0, env, 1.6619e-3)

    def test_power_arrays_match_scalar_results(self, env):
        thrust = np.geomspace(1e-3, 10.0, 30)
        gamma = np.linspace(1.0, 4.0, 30)
        area = np.linspace(1e-3, 8e-3, 30)
        p = aerodynamic_power(thrust, gamma, env, area)
        assert p.shape == (30,)
        for i in range(30):
            assert p[i] == pytest.approx(aerodynamic_power(float(thrust[i]), float(gamma[i]), env, float(area[i])), rel=1e-15)
        assert isinstance(aerodynamic_power(0.0785, 1.0, env, 1.6619e-3), float)
        with pytest.raises(ValueError, match="thrust must be finite and >= 0"):
            aerodynamic_power(np.array([0.1, -1e-9]), 1.0, env, 1.6619e-3)
        with pytest.raises(ValueError, match="ceiling coefficient must be positive"):
            aerodynamic_power(0.1, np.array([1.0, 0.0]), env, 1.6619e-3)


class TestMomentumResidual:
    def test_ideal_root(self):
        assert momentum_residual(1.0, 2.0, 0.0, CeilingParams(1.0)) == 0.0

    def test_direct_value(self):
        assert momentum_residual(1.0, 3.0, 0.0, CeilingParams(1.0)) == pytest.approx(1.5, rel=1e-12)

    def test_root_consistency_with_ceiling_coefficient(self):
        params = CeilingParams(2.0, 0.002)
        g = ceiling_coefficient(10.0, params)
        assert 2.0 * g == pytest.approx(5.863595560469, rel=1e-11)
        assert abs(momentum_residual(1.0, 2.0 * g, 10.0, params)) < 1e-9

    @pytest.mark.parametrize("v_i", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("delta", [0.0, 5.0, 10.0, 23.0])
    def test_root_grid(self, v_i, delta):
        for params in (CeilingParams(1.0), CeilingParams(1.6), CeilingParams(2.0, 0.002)):
            g = ceiling_coefficient(delta, params)
            assert abs(momentum_residual(v_i, 2.0 * g * v_i, delta, params)) < 1e-9

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            momentum_residual(-1.0, 1.0, 0.0, CeilingParams(1.0))


class TestRadialVelocity:
    def test_axis_of_symmetry(self):
        assert radial_velocity(0.0, 0.01, 5.0) == 0.0

    def test_unity_ratio(self):
        assert radial_velocity(0.023, 0.0115, 4.0) == pytest.approx(4.0, rel=1e-12)

    def test_direct_value(self):
        assert radial_velocity(0.01, 0.05, 3.0) == pytest.approx(0.3, rel=1e-12)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            radial_velocity(0.01, 0.0, 3.0)


class TestHoldingForce:
    def test_zero_flow(self, env):
        assert holding_force(0.0, 10.0, 1.0, env, 1.662e-3) == 0.0

    def test_direct_value(self, env):
        f = holding_force(4.0, 10.0, 1.0, env, 1.662e-3)
        assert f == pytest.approx(0.19944, rel=1e-12)

    def test_linear_in_asymmetry(self, env):
        f = holding_force(4.0, 10.0, 2.0, env, 1.662e-3)
        assert f == pytest.approx(0.39888, rel=1e-12)

    def test_asymmetry_below_one_rejected(self, env):
        with pytest.raises(ValueError):
            holding_force(4.0, 10.0, 0.5, env, 1.662e-3)


class TestFlowState:
    def test_pressure_jump_carries_thrust(self, env):
        thrust, area = 0.0785, 1.6619e-3
        state = flow_state(thrust, 10.0, CeilingParams(1.6), env, area)
        assert (state.downstream_pressure - state.upstream_pressure) * area == pytest.approx(thrust, rel=1e-12)

    def test_terminal_velocity_ratio(self, env):
        params = CeilingParams(1.6)
        state = flow_state(0.0785, 10.0, params, env, 1.6619e-3)
        g = ceiling_coefficient(10.0, params)
        assert state.terminal_velocity == pytest.approx(2.0 * g * state.induced_velocity, rel=1e-12)

    def test_upstream_pressure_below_ambient(self, env):
        state = flow_state(0.0785, 10.0, CeilingParams(1.6), env, 1.6619e-3)
        assert state.upstream_pressure < state.ambient_pressure


def test_environment_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        Environment(air_density=0.0)
