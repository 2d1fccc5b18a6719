import dataclasses
import re

import numpy as np
import pytest

from ceilprop import (
    IdentifiabilityError,
    MotorParams,
    SteadyTable,
    identify_motor,
    input_power_from_mechanical,
    mechanical_power_from_motor,
    mechanical_power_from_torque,
    synthesize_dataset,
)


from _helpers import make_record, synth_motor_records


class TestMechanicalPower:
    def test_zero_torque(self):
        assert mechanical_power_from_torque(0.0, 2000.0) == 0.0

    def test_torque_product(self):
        assert mechanical_power_from_torque(1e-3, 2000.0) == pytest.approx(2.0, rel=1e-12)
        assert mechanical_power_from_torque(1.58e-4, 1500.0) == pytest.approx(0.237, rel=1e-12)

    def test_zero_current(self, bench_motor):
        assert mechanical_power_from_motor(0.0, 2500.0, bench_motor) == 0.0

    def test_motor_model_product(self, bench_motor):
        assert mechanical_power_from_motor(1.0, 2500.0, bench_motor) == pytest.approx(2.75, rel=1e-12)
        assert mechanical_power_from_motor(0.5, 2500.0, bench_motor) == pytest.approx(1.375, rel=1e-12)

    def test_negative_inputs_rejected(self, bench_motor):
        with pytest.raises(ValueError):
            mechanical_power_from_torque(-1e-3, 100.0)
        with pytest.raises(ValueError):
            mechanical_power_from_motor(-1.0, 100.0, bench_motor)

    def test_arrays_match_scalar_results(self, bench_motor):
        rng = np.random.default_rng(4)
        torque, current = rng.uniform(0.0, 2e-3, 50), rng.uniform(0.0, 2.0, 50)
        omega = rng.uniform(0.0, 3000.0, 50)
        by_torque = mechanical_power_from_torque(torque, omega)
        by_motor = mechanical_power_from_motor(current, omega, bench_motor)
        assert by_torque.shape == by_motor.shape == (50,)
        for i in range(50):
            assert by_torque[i] == mechanical_power_from_torque(float(torque[i]), float(omega[i]))
            assert by_motor[i] == mechanical_power_from_motor(float(current[i]), float(omega[i]), bench_motor)
        assert isinstance(mechanical_power_from_torque(1e-3, 2000.0), float)

    def test_one_negative_array_element_rejected(self, bench_motor):
        omega = np.array([1000.0, 2000.0])
        with pytest.raises(ValueError, match="torque and rotation rate must be >= 0"):
            mechanical_power_from_torque(np.array([1e-4, -1e-4]), omega)
        with pytest.raises(ValueError, match="current and rotation rate must be >= 0"):
            mechanical_power_from_motor(np.array([1.0, 0.5]), -omega, bench_motor)


class TestIdentifyMotor:
    def test_exact_recovery(self, bench_motor):
        records = synth_motor_records(bench_motor, np.linspace(800.0, 3000.0, 20))
        fitted, report = identify_motor(records)
        assert fitted.resistance == pytest.approx(1.58, rel=1e-9)
        assert fitted.back_emf == pytest.approx(1.1e-3, rel=1e-9)
        assert report.converged
        assert report.n_obs == 20
        assert report.parameters["power_stage_rms"] < 1e-12

    def test_single_record_rejected(self, bench_motor):
        records = synth_motor_records(bench_motor, [2000.0])
        with pytest.raises(IdentifiabilityError):
            identify_motor(records)

    def test_equal_currents_rejected(self):
        records = [make_record(3.0, 1.0, 1e-4, omega) for omega in (1000.0, 2000.0)]
        with pytest.raises(IdentifiabilityError):
            identify_motor(records)

    def test_equal_omegas_rejected(self):
        records = [make_record(3.0, current, 1e-4, 2000.0) for current in (0.5, 1.0)]
        with pytest.raises(IdentifiabilityError):
            identify_motor(records)

    def test_missing_torque_rejected(self, bench_motor):
        records = synth_motor_records(bench_motor, [1000.0, 2000.0])
        records.append(make_record(3.0, 1.0, None, 1500.0))
        with pytest.raises(IdentifiabilityError):
            identify_motor(records)

    def test_noisy_recovery_within_five_percent(self, bench_motor):
        # 2% measurement noise on voltage and current over 200 records
        rng = np.random.default_rng(1905)
        omegas = np.linspace(500.0, 3200.0, 200)
        records = synth_motor_records(bench_motor, omegas, rng=rng, noise=0.02)
        fitted, report = identify_motor(records)
        assert fitted.resistance == pytest.approx(1.58, rel=0.05)
        assert fitted.back_emf == pytest.approx(1.1e-3, rel=0.05)
        assert report.parameters["voltage_stage_rms"] > 0.0


class TestInputPower:
    @pytest.mark.parametrize(
        "p_mech, expected, frozen",
        [
            (0.77, 1.06, 1.05832660),
            (0.38, 0.49, 0.49244545),
            (0.28, 0.36, 0.35483552),
        ],
    )
    def test_hover_anchors(self, bench_motor, p_mech, expected, frozen):
        p_in = input_power_from_mechanical(p_mech, 1.75e-10, bench_motor)
        assert p_in == pytest.approx(frozen, rel=1e-8)
        assert p_in == pytest.approx(expected, rel=0.03)

    def test_always_exceeds_mechanical(self, bench_motor):
        for p_mech in np.geomspace(1e-3, 10.0, 25):
            assert input_power_from_mechanical(float(p_mech), 1.75e-10, bench_motor) > p_mech

    def test_matches_electrical_power_on_model_data(self, bench_motor):
        # records satisfying the motor model with constant c_tau reproduce I*V
        c_tau = 1.75e-10
        for record in synth_motor_records(bench_motor, np.linspace(900.0, 3000.0, 9), c_tau=c_tau):
            p_mech = mechanical_power_from_torque(record.torque, record.omega)
            p_in = input_power_from_mechanical(p_mech, c_tau, bench_motor)
            assert p_in == pytest.approx(record.current * record.voltage, rel=1e-9)

    def test_nonpositive_inputs_rejected(self, bench_motor):
        with pytest.raises(ValueError):
            input_power_from_mechanical(0.0, 1.75e-10, bench_motor)
        with pytest.raises(ValueError):
            input_power_from_mechanical(0.5, 0.0, bench_motor)

    def test_arrays_match_scalar_results(self, bench_motor):
        p_mech = np.geomspace(1e-3, 10.0, 40)
        c_tau = np.linspace(1e-10, 3e-10, 40)
        p_in = input_power_from_mechanical(p_mech, c_tau, bench_motor)
        assert p_in.shape == (40,)
        for i in range(40):
            scalar = input_power_from_mechanical(float(p_mech[i]), float(c_tau[i]), bench_motor)
            assert p_in[i] == pytest.approx(scalar, rel=1e-15)
        assert isinstance(input_power_from_mechanical(0.77, 1.75e-10, bench_motor), float)
        with pytest.raises(ValueError, match="shaft power and torque coefficient must be positive"):
            input_power_from_mechanical(np.array([0.5, 0.0]), 1.75e-10, bench_motor)


class TestParams:
    def test_motor_params_validated(self):
        with pytest.raises(ValueError):
            MotorParams(resistance=0.0, back_emf=1e-3)
        with pytest.raises(ValueError):
            MotorParams(resistance=1.0, back_emf=0.0)


class TestIdentifyMotorOneRig:
    def test_mixed_radii_rejected(self, geom_23mm, geom_50mm, single_prop_ceiling, bench_motor, env):
        small = synthesize_dataset(geom_23mm, single_prop_ceiling, bench_motor, [0.01, 1.0], [900.0, 2000.0], env=env)
        large = synthesize_dataset(
            geom_50mm, single_prop_ceiling, MotorParams(resistance=0.5, back_emf=3e-3), [0.01, 1.0], [900.0, 2000.0],
            env=env, config_id="big",
        )
        with pytest.raises(ValueError, match=re.escape("records mix several radius values: [0.023, 0.05]")):
            identify_motor(SteadyTable.of([*small, *large]))
        with pytest.raises(ValueError, match=re.escape("records mix several radius values: [0.023, 0.05]")):
            identify_motor(list(small) + list(large))

    def test_mixed_configurations_rejected(self, bench_motor):
        records = synth_motor_records(bench_motor, np.linspace(800.0, 3000.0, 6))
        records[2] = dataclasses.replace(records[2], config_id="other")
        with pytest.raises(ValueError, match=re.escape("records mix several config_id values: ['bench', 'other']")):
            identify_motor(records)
