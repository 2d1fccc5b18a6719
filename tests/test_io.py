import numpy as np
import pytest

from ceilprop import (
    CeilingParams,
    DataFormatError,
    GammaPoint,
    MotorParams,
    ParamSet,
    PropellerGeometry,
    RawSampleStream,
    SteadyRecord,
    read_gamma_csv,
    read_params,
    read_raw_csv,
    read_steady_csv,
    steady_state_extract,
    synthesize_dataset,
    write_gamma_csv,
    write_params,
    write_steady_csv,
)
from ceilprop.io import STEADY_COLUMNS, _moving_stats


@pytest.fixture
def thousand_records(geom_23mm, single_prop_ceiling, bench_motor, env):
    return synthesize_dataset(
        geom_23mm,
        single_prop_ceiling,
        bench_motor,
        distances=np.geomspace(0.001, 0.1, 63),
        setpoints=np.linspace(800.0, 3000.0, 16),
        env=env,
        noise=0.02,
        seed=5,
    )


class TestSteadyCsv:
    def test_round_trip_equality(self, tmp_path, thousand_records):
        path = tmp_path / "records.csv"
        write_steady_csv(thousand_records, path)
        back = read_steady_csv(path)
        assert len(back) == len(thousand_records) == 1008
        assert back == thousand_records

    def test_none_torque_round_trips(self, tmp_path):
        rec = SteadyRecord("c", 0.023, 4, 0.092, 0.01, "s0", 3.0, 1.0, 0.05, None, 2000.0)
        path = tmp_path / "records.csv"
        write_steady_csv([rec], path)
        assert read_steady_csv(path) == [rec]

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "records.csv"
        write_steady_csv([], path)
        assert read_steady_csv(path) == []

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        cols = [c for c in STEADY_COLUMNS if c != "distance_m"]
        path.write_text(",".join(cols) + "\n")
        with pytest.raises(DataFormatError, match="missing column: distance_m"):
            read_steady_csv(path)

    def test_unexpected_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(STEADY_COLUMNS + ("bogus",)) + "\n")
        with pytest.raises(DataFormatError, match="unexpected column: bogus"):
            read_steady_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = "c,0.023,1,0.0,0.01,s0,3.0,abc,0.05,1e-4,2000.0"
        path.write_text(",".join(STEADY_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(DataFormatError, match="row 2, column current_a"):
            read_steady_csv(path)

    def test_nonpositive_distance_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = "c,0.023,1,0.0,-0.01,s0,3.0,1.0,0.05,1e-4,2000.0"
        path.write_text(",".join(STEADY_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(DataFormatError, match="column distance_m: must be positive"):
            read_steady_csv(path)

    def test_nan_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["c,0.023,1,0.0,0.01,s0,3.0,1.0,0.05,1e-4,2000.0", "c,0.023,1,0.0,0.01,s1,nan,1.0,0.05,1e-4,2000.0"]
        path.write_text(",".join(STEADY_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match="row 3: voltage must be finite"):
            read_steady_csv(path)

    def test_fractional_prop_count_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = "c,0.023,1.7,0.0,0.01,s0,3.0,1.0,0.05,1e-4,2000.0"
        path.write_text(",".join(STEADY_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(DataFormatError, match="row 2, column prop_count: expected an integer"):
            read_steady_csv(path)


class TestGammaCsv:
    def test_round_trip(self, tmp_path):
        points = [GammaPoint(0.23, 1.0, 0.01, 16), GammaPoint(23.0, 3.9641, 0.05, 16)]
        path = tmp_path / "gamma.csv"
        write_gamma_csv(points, path)
        assert read_gamma_csv(path) == points

    def test_missing_column(self, tmp_path):
        path = tmp_path / "gamma.csv"
        path.write_text("delta,gamma,stderr\n")
        with pytest.raises(DataFormatError, match="missing column: n_points"):
            read_gamma_csv(path)

    def test_fractional_n_points_names_row_and_column(self, tmp_path):
        path = tmp_path / "gamma.csv"
        path.write_text("delta,gamma,stderr,n_points\n0.23,1.0,0.01,16\n0.5,1.1,0.01,1.7\n")
        with pytest.raises(DataFormatError, match="row 3, column n_points: expected an integer"):
            read_gamma_csv(path)


def make_stream(time, setpoint, channels, torque=True, **config):
    kwargs = dict(radius=0.023, distance=0.01, config_id="run")
    kwargs.update(config)
    return RawSampleStream(
        time=np.asarray(time, dtype=float),
        setpoint=np.asarray(setpoint),
        voltage=np.asarray(channels["voltage"], dtype=float),
        current=np.asarray(channels["current"], dtype=float),
        thrust=np.asarray(channels["thrust"], dtype=float),
        torque=np.asarray(channels["torque"], dtype=float) if torque else None,
        omega=np.asarray(channels["omega"], dtype=float),
        **kwargs,
    )


def constant_channels(n, voltage=3.0, current=1.0, thrust=0.05, torque=1e-4, omega=2000.0):
    return dict(
        voltage=np.full(n, voltage),
        current=np.full(n, current),
        thrust=np.full(n, thrust),
        torque=np.full(n, torque),
        omega=np.full(n, omega),
    )


class TestSteadyStateExtract:
    RATE = 1000.0  # [Hz]

    def test_constant_stream_one_record_per_setpoint(self):
        n = 3000
        time = np.arange(2 * n) / self.RATE
        setpoint = np.array(["a"] * n + ["b"] * n)
        ch = constant_channels(2 * n)
        ch["thrust"][n:] = 0.09
        stream = make_stream(time, setpoint, ch)
        records = steady_state_extract(stream)
        assert len(records) == 2
        assert records[0].setpoint == "a" and records[0].thrust == pytest.approx(0.05, rel=1e-12)
        assert records[1].setpoint == "b" and records[1].thrust == pytest.approx(0.09, rel=1e-12)
        assert records[0].voltage == pytest.approx(3.0, rel=1e-12)

    def test_ramp_then_plateau_takes_plateau_mean(self):
        n_ramp, n_flat = 2500, 2500
        time = np.arange(n_ramp + n_flat) / self.RATE
        thrust = np.concatenate([np.linspace(0.0, 0.05, n_ramp), np.full(n_flat, 0.05)])
        ch = constant_channels(n_ramp + n_flat)
        ch["thrust"] = thrust
        stream = make_stream(time, ["a"] * (n_ramp + n_flat), ch)
        records = steady_state_extract(stream)
        assert len(records) == 1
        assert records[0].thrust == pytest.approx(0.05, rel=1e-9)

    def test_all_noise_stream_yields_nothing(self):
        rng = np.random.default_rng(2)
        n = 4000
        time = np.arange(n) / self.RATE
        ch = constant_channels(n)
        ch["thrust"] = 0.05 * (1.0 + 0.2 * rng.standard_normal(n)).clip(0.01)
        stream = make_stream(time, ["a"] * n, ch)
        with pytest.warns(UserWarning, match="no steady window"):
            records = steady_state_extract(stream)
        assert records == []

    def test_recovers_means_within_noise_floor(self):
        rng = np.random.default_rng(9)
        n = 4000
        sigma = 0.01
        time = np.arange(n) / self.RATE
        ch = constant_channels(n)
        for name in ch:
            ch[name] = ch[name] * (1.0 + sigma * rng.standard_normal(n))
        stream = make_stream(time, ["a"] * n, ch)
        (record,) = steady_state_extract(stream)
        width = int(round(2.0 * self.RATE))
        tolerance = 5.0 * sigma / np.sqrt(width)
        assert record.thrust == pytest.approx(0.05, rel=tolerance)
        assert record.omega == pytest.approx(2000.0, rel=tolerance)

    def test_window_std_keeps_precision_on_large_level(self):
        # a 1e-3 ripple on a level of 3000: raw cumulative sums cancel and
        # read window stds anywhere from 0 to 3.8e-3
        rng = np.random.default_rng(0)
        values = 3000.0 + 1e-3 * rng.standard_normal(200_000)
        mean, std = _moving_stats(values, 2000)
        assert np.all(np.abs(std - 1e-3) < 0.1e-3)
        starts = range(0, len(mean), 997)
        assert mean[::997] == pytest.approx([np.mean(values[i : i + 2000]) for i in starts], rel=1e-12)

    def test_short_stream_rejected(self):
        n = 500  # 0.5 s at 1 kHz
        stream = make_stream(np.arange(n) / self.RATE, ["a"] * n, constant_channels(n))
        with pytest.raises(ValueError, match="shorter than"):
            steady_state_extract(stream)

    def test_torqueless_stream_gives_torqueless_records(self):
        n = 3000
        stream = make_stream(np.arange(n) / self.RATE, ["a"] * n, constant_channels(n), torque=False)
        (record,) = steady_state_extract(stream)
        assert record.torque is None

    def test_decreasing_timestamps_rejected(self):
        n = 3000
        time = np.arange(n) / self.RATE
        time[100] = time[99]
        with pytest.raises(ValueError, match="strictly increase"):
            make_stream(time, ["a"] * n, constant_channels(n))

    def test_gaps_flagged(self):
        n = 3000
        time = np.arange(n) / self.RATE
        time[1500:] += 0.25
        with pytest.warns(UserWarning, match="sampling gaps"):
            make_stream(time, ["a"] * n, constant_channels(n))


class TestRawCsv:
    def test_read_and_extract(self, tmp_path):
        n = 2500
        lines = ["time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s"]
        for i in range(n):
            lines.append(f"{i / 1000.0},a,3.0,1.0,0.05,0.0001,2000.0")
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        stream = read_raw_csv(path, radius=0.023, distance=0.01)
        (record,) = steady_state_extract(stream)
        assert record.thrust == pytest.approx(0.05)
        assert record.distance == 0.01

    def test_empty_torque_column_means_no_torque(self, tmp_path):
        lines = ["time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s"]
        for i in range(2500):
            lines.append(f"{i / 1000.0},a,3.0,1.0,0.05,,2000.0")
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        stream = read_raw_csv(path, radius=0.023, distance=0.01)
        assert stream.torque is None


class TestParamFiles:
    def test_full_round_trip(self, tmp_path, geom_23mm, single_prop_ceiling, bench_motor):
        params = ParamSet(
            geometry=geom_23mm,
            ceiling=single_prop_ceiling,
            motor=bench_motor,
            provenance={"dataset_sha256": "00" * 32, "n_obs": 1088},
        )
        path = tmp_path / "fit.json"
        write_params(params, path)
        back = read_params(path)
        assert back.geometry == geom_23mm
        assert back.ceiling == single_prop_ceiling
        assert back.motor == bench_motor
        assert back.provenance["n_obs"] == 1088

    def test_partial_sections(self, tmp_path):
        path = tmp_path / "fit.json"
        write_params(ParamSet(geometry=PropellerGeometry(radius=0.023, figure_of_merit=0.5)), path)
        back = read_params(path)
        assert back.geometry.blade_coeffs is None
        assert back.ceiling is None and back.motor is None

    def test_deterministic_bytes(self, tmp_path, geom_23mm):
        params = ParamSet(geometry=geom_23mm, ceiling=CeilingParams(1.6), motor=MotorParams(1.58, 1.1e-3))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_params(params, a)
        write_params(params, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_schema_version_rejected(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text('{"schema_version": 99}\n')
        with pytest.raises(DataFormatError, match="schema_version"):
            read_params(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            read_params(path)

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text('{"schema_version": 1, "ceiling": {"asymmetry": 0.5, "recirculation": 0.0}}\n')
        with pytest.raises(DataFormatError, match="invalid parameter file"):
            read_params(path)
