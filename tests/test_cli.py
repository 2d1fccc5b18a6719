import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ceilprop
from ceilprop import (
    Environment,
    ParamSet,
    PropellerGeometry,
    aerodynamic_power,
    ceiling_coefficient,
    input_power_from_mechanical,
    read_params,
    read_steady_csv,
    thrust_coefficient,
    torque_coefficient,
    write_params,
    write_steady_csv,
)
from ceilprop import cli
from ceilprop.cli import cli_dispatch

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def truth_file(tmp_path, geom_23mm, single_prop_ceiling, bench_motor):
    path = tmp_path / "truth.json"
    write_params(ParamSet(geometry=geom_23mm, ceiling=single_prop_ceiling, motor=bench_motor), path)
    return path


def run(*argv):
    return cli_dispatch([str(a) for a in argv])


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run() == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_unknown_flag(self, truth_file, tmp_path):
        assert run("synth", "--params", truth_file, "--frives", "3") == 1

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "synth" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["synth", "fit-gamma", "fit-blade", "predict-coeffs", "power-saving"])
    def test_density_help_names_its_default(self, capsys, command):
        assert run(command, "--help") == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"--density DENSITY air density [kg/m^3] (default {Environment().air_density})" in help_text

    def test_subcommand_usage_error_prints_its_usage(self, capsys):
        assert run("fit-motor", "--input", "x.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the following arguments are required: --params\n")
        assert "usage: ceilprop fit-motor" in err

    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        run("--help")  # the parser exists from here on
        built = []
        init = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k))
        assert run("--help") == 0
        assert run("fit-motor", "--frives", "3") == 1
        assert built == []

    def test_options_pinned(self):
        # each subcommand's options: (strings, required, default)
        expected = {
            "synth": [
                ("--density", False, 1.2), ("--params", True, None), ("--out", True, None),
                ("--distances", True, None), ("--setpoints", True, None), ("--log", False, False),
                ("--noise", False, 0.0), ("--seed", False, 0), ("--config-id", False, "synth"),
                ("--prop-count", False, 1), ("--spacing", False, 0.0),
            ],
            "extract": [
                ("--input", True, None), ("--out", True, None), ("--radius", True, None), ("--distance", True, None),
                ("--window", False, 2.0), ("--stability-tol", False, 0.05), ("--config-id", False, "raw"),
                ("--prop-count", False, 1), ("--spacing", False, 0.0),
            ],
            "fit-motor": [("--input", True, None), ("--params", True, None)],
            "fit-gamma": [
                ("--density", False, 1.2), ("--input", True, None), ("--out", True, None), ("--params", True, None),
                ("--motor-params", False, None), ("--max-anchor-delta", False, 0.5),
            ],
            "fit-ceiling": [("--input", True, None), ("--params", True, None), ("--reduced", False, False)],
            "fit-blade": [("--density", False, 1.2), ("--input", True, None), ("--params", True, None)],
            "predict-coeffs": [
                ("--density", False, 1.2), ("--params", True, None), ("--deltas", True, None),
                ("--log", False, False), ("--out", True, None),
            ],
            "power-saving": [
                ("--density", False, 1.2), ("--params", True, None), ("--thrust", True, None),
                ("--distances", True, None), ("--log", False, False), ("--c-tau", False, None),
                ("--out", True, None),
            ],
            "resonance": [("--params", True, None), ("--deltas", True, None), ("--log", False, False), ("--out", True, None)],
            "anomalies": [
                ("--input", True, None), ("--params", True, None), ("--threshold", False, 0.1), ("--out", True, None),
            ],
        }
        parser = cli._build_parser()
        (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        found = {
            name: sorted((*a.option_strings, a.required, a.default) for a in p._actions if a.dest != "help")
            for name, p in commands.items()
        }
        assert found == {name: sorted(options) for name, options in expected.items()}

    def test_bad_range_syntax(self, truth_file, tmp_path):
        code = run(
            "synth", "--params", truth_file, "--out", tmp_path / "r.csv",
            "--distances", "1:2", "--setpoints", "800:3000:4",
        )
        assert code == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert run("fit-motor", "--input", tmp_path / "nope.csv", "--params", tmp_path / "p.json") == 2


class TestSynth:
    def test_writes_records(self, truth_file, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = run(
            "synth", "--params", truth_file, "--out", out,
            "--distances", "0.002:0.1:10,10.0", "--log", "--setpoints", "800:3000:4",
        )
        assert code == 0
        records = read_steady_csv(out)
        assert len(records) == 11 * 4
        assert "wrote 44 records" in capsys.readouterr().out

    def test_deterministic_bytes_for_fixed_seed(self, truth_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(
                "synth", "--params", truth_file, "--out", out, "--noise", "0.02", "--seed", "11",
                "--distances", "0.002:0.1:10,10.0", "--log", "--setpoints", "800:3000:4",
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truth_without_motor_is_data_error(self, tmp_path, geom_23mm, single_prop_ceiling):
        truth = tmp_path / "truth.json"
        write_params(ParamSet(geometry=geom_23mm, ceiling=single_prop_ceiling), truth)
        code = run(
            "synth", "--params", truth, "--out", tmp_path / "r.csv",
            "--distances", "0.01:0.1:3", "--setpoints", "800:3000:4",
        )
        assert code == 2


@pytest.fixture
def records_file(truth_file, tmp_path):
    out = tmp_path / "records.csv"
    assert run(
        "synth", "--params", truth_file, "--out", out,
        "--distances", "0.001:0.1:24,10.0", "--log", "--setpoints", "800:3000:8",
    ) == 0
    return out


class TestPipeline:
    def test_full_chain_recovers_truth(self, records_file, tmp_path, capsys):
        fit = tmp_path / "fit.json"
        gamma_csv = tmp_path / "gamma.csv"

        assert run("fit-motor", "--input", records_file, "--params", fit) == 0
        assert run("fit-gamma", "--input", records_file, "--out", gamma_csv, "--params", fit) == 0
        assert run("fit-ceiling", "--input", gamma_csv, "--params", fit, "--reduced") == 0
        assert run("fit-blade", "--input", records_file, "--params", fit) == 0

        params = read_params(fit)
        assert params.motor.resistance == pytest.approx(1.58, rel=1e-6)
        assert params.motor.back_emf == pytest.approx(1.1e-3, rel=1e-6)
        assert params.geometry.figure_of_merit == pytest.approx(0.50, rel=1e-6)
        assert params.ceiling.asymmetry == pytest.approx(1.60, rel=1e-5)
        assert params.ceiling.recirculation == 0.0
        for fitted, true in zip(params.geometry.blade_coeffs, (0.154, 0.846, 0.022)):
            assert fitted == pytest.approx(true, rel=1e-3)
        assert set(params.provenance) == {"motor_fit", "gamma_fit", "ceiling_fit", "blade_fit"}
        assert params.provenance["ceiling_fit"]["converged"] is True

    def test_fit_blade_reads_the_parameter_file_once(self, records_file, tmp_path, monkeypatch):
        fit, gamma_csv = tmp_path / "fit.json", tmp_path / "gamma.csv"
        assert run("fit-gamma", "--input", records_file, "--out", gamma_csv, "--params", fit) == 0
        assert run("fit-ceiling", "--input", gamma_csv, "--params", fit, "--reduced") == 0
        reads = []
        monkeypatch.setattr(cli, "read_params", lambda path: reads.append(path) or read_params(path))
        assert run("fit-blade", "--input", records_file, "--params", fit) == 0
        assert reads == [str(fit)]
        assert read_params(fit).geometry.blade_coeffs is not None

    def test_prediction_outputs(self, records_file, tmp_path):
        fit = tmp_path / "fit.json"
        gamma_csv = tmp_path / "gamma.csv"
        assert run("fit-motor", "--input", records_file, "--params", fit) == 0
        assert run("fit-gamma", "--input", records_file, "--out", gamma_csv, "--params", fit) == 0
        assert run("fit-ceiling", "--input", gamma_csv, "--params", fit, "--reduced") == 0
        assert run("fit-blade", "--input", records_file, "--params", fit) == 0

        coeffs_csv = tmp_path / "coeffs.csv"
        assert run("predict-coeffs", "--params", fit, "--deltas", "0:25:26", "--out", coeffs_csv) == 0
        with open(coeffs_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 26
        assert float(rows[0]["gamma"]) == pytest.approx(1.0)
        assert float(rows[-1]["thrust_coeff_n_s2_rad2"]) > float(rows[0]["thrust_coeff_n_s2_rad2"])

        power_csv = tmp_path / "power.csv"
        assert run(
            "power-saving", "--params", fit, "--thrust", "0.0785",
            "--distances", "0.001:0.1:30", "--log", "--out", power_csv,
        ) == 0
        with open(power_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        for row in rows:
            assert float(row["input_power_w"]) > float(row["mechanical_power_w"])

        res_csv = tmp_path / "res.csv"
        assert run("resonance", "--params", fit, "--deltas", "0:25:51", "--out", res_csv) == 0
        with open(res_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 51

        anom_csv = tmp_path / "anom.csv"
        assert run("anomalies", "--input", gamma_csv, "--params", fit, "--out", anom_csv) == 0
        with open(anom_csv) as fh:
            assert list(csv.DictReader(fh)) == []

    def test_fit_gamma_deterministic_output(self, records_file, tmp_path):
        outputs = []
        for tag in ("x", "y"):
            fit = tmp_path / f"fit_{tag}.json"
            gamma_csv = tmp_path / f"gamma_{tag}.csv"
            assert run("fit-gamma", "--input", records_file, "--out", gamma_csv, "--params", fit) == 0
            outputs.append((gamma_csv.read_bytes(), fit.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_fit_blade_without_ceiling_section(self, records_file, tmp_path):
        fit = tmp_path / "fit.json"
        gamma_csv = tmp_path / "gamma.csv"
        assert run("fit-gamma", "--input", records_file, "--out", gamma_csv, "--params", fit) == 0
        assert run("fit-blade", "--input", records_file, "--params", fit) == 2

    def test_fit_gamma_mixed_radii_writes_nothing(self, records_file, tmp_path):
        records = list(read_steady_csv(records_file))
        records[3] = dataclasses.replace(records[3], radius=0.05)
        mixed = tmp_path / "mixed.csv"
        write_steady_csv(records, mixed)
        gamma_csv, fit = tmp_path / "gamma.csv", tmp_path / "fit.json"
        assert run("fit-gamma", "--input", mixed, "--out", gamma_csv, "--params", fit) == 2
        assert not gamma_csv.exists() and not fit.exists()

    def test_fit_gamma_invalid_figure_of_merit_writes_nothing(self, records_file, tmp_path, capsys):
        # a third of the torque puts the fitted figure of merit near 1.5
        records = [dataclasses.replace(r, torque=r.torque / 3.0) for r in read_steady_csv(records_file)]
        low = tmp_path / "low.csv"
        write_steady_csv(records, low)
        gamma_csv, fit = tmp_path / "gamma.csv", tmp_path / "fit.json"
        assert run("fit-gamma", "--input", low, "--out", gamma_csv, "--params", fit) == 2
        assert "figure of merit must be in (0, 1]" in capsys.readouterr().err
        assert not gamma_csv.exists() and not fit.exists()

    def test_fit_gamma_malformed_params_writes_nothing(self, records_file, tmp_path, capsys):
        gamma_csv, fit = tmp_path / "gamma.csv", tmp_path / "fit.json"
        fit.write_text("[]\n")
        assert run("fit-gamma", "--input", records_file, "--out", gamma_csv, "--params", fit) == 2
        assert "expected a JSON object" in capsys.readouterr().err
        assert not gamma_csv.exists() and fit.read_text() == "[]\n"

    @pytest.mark.parametrize("field, value", [("radius", 0.05), ("config_id", "big")])
    def test_fit_blade_mixed_table_writes_nothing(self, records_file, tmp_path, capsys, field, value):
        fit, gamma_csv = tmp_path / "fit.json", tmp_path / "gamma.csv"
        assert run("fit-gamma", "--input", records_file, "--out", gamma_csv, "--params", fit) == 0
        assert run("fit-ceiling", "--input", gamma_csv, "--params", fit, "--reduced") == 0
        before = fit.read_bytes()
        records = list(read_steady_csv(records_file))
        records[3] = dataclasses.replace(records[3], **{field: value})
        mixed = tmp_path / "mixed.csv"
        write_steady_csv(records, mixed)
        capsys.readouterr()
        assert run("fit-blade", "--input", mixed, "--params", fit) == 2
        assert f"records mix several {field} values" in capsys.readouterr().err
        assert fit.read_bytes() == before

    @pytest.mark.parametrize(
        "text",
        ["[]", '{"schema_version": 1, "geometry": []}', '{"schema_version": 1, "provenance": []}'],
        ids=["top-level", "geometry", "provenance"],
    )
    def test_fit_motor_params_not_an_object(self, records_file, tmp_path, capsys, text):
        fit = tmp_path / "fit.json"
        fit.write_text(text + "\n")
        assert run("fit-motor", "--input", records_file, "--params", fit) == 2
        err = capsys.readouterr().err  # an uncaught exception would leave cli_dispatch with a traceback
        assert err.startswith("error:") and "expected a JSON object" in err
        assert fit.read_text() == text + "\n"

    def test_fit_gamma_negative_torque_is_data_error(self, records_file, tmp_path, capsys):
        records = list(read_steady_csv(records_file))
        records[7] = dataclasses.replace(records[7], torque=-1e-6)
        bad = tmp_path / "bad.csv"
        write_steady_csv(records, bad)
        assert run("fit-gamma", "--input", bad, "--out", tmp_path / "gamma.csv", "--params", tmp_path / "fit.json") == 2
        assert "torque and rotation rate must be >= 0" in capsys.readouterr().err

    def test_fit_gamma_motor_params_for_records_without_torque(self, records_file, truth_file, tmp_path, capsys):
        records = [dataclasses.replace(r, torque=None) for r in read_steady_csv(records_file)]
        torqueless = tmp_path / "torqueless.csv"
        write_steady_csv(records, torqueless)
        fit, gamma_csv = tmp_path / "fit.json", tmp_path / "gamma.csv"
        argv = ["fit-gamma", "--input", torqueless, "--out", gamma_csv, "--params", fit]
        assert run(*argv) == 2
        assert "records without torque need motor parameters" in capsys.readouterr().err
        assert run(*argv, "--motor-params", truth_file) == 0
        assert read_params(fit).geometry.figure_of_merit == pytest.approx(0.50, rel=1e-6)


@pytest.fixture
def bladeless_file(tmp_path, single_prop_ceiling, bench_motor):
    # every section, but a geometry that fit-blade has not fitted yet
    path = tmp_path / "fit.json"
    geometry = PropellerGeometry(radius=0.023, figure_of_merit=0.5)
    write_params(ParamSet(geometry=geometry, ceiling=single_prop_ceiling, motor=bench_motor), path)
    return path


class TestParameterFileErrors:
    """Each command that reads a parameter file names what it lacks and exits 2."""

    def test_missing_parameter_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run("predict-coeffs", "--params", missing, "--deltas", "0:1:3", "--out", tmp_path / "c.csv") == 2
        assert f"{missing}: parameter file not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--distances", "0.01:0.1:3", "--setpoints", "800:3000:4"],
            ["predict-coeffs", "--deltas", "0:1:3"],
        ],
        ids=["synth", "predict-coeffs"],
    )
    def test_geometry_without_blade_coefficients(self, bladeless_file, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert run(*argv, "--params", bladeless_file, "--out", out) == 2
        assert f"{bladeless_file}: geometry has no blade coefficients" in capsys.readouterr().err
        assert not out.exists()

    def test_power_saving_needs_c_tau_or_blade_coefficients(self, bladeless_file, tmp_path, capsys):
        argv = [
            "power-saving", "--params", bladeless_file, "--thrust", "0.0863",
            "--distances", "0.001:0.1:5", "--out", tmp_path / "power.csv",
        ]
        assert run(*argv) == 2
        assert "need --c-tau or geometry blade coefficients" in capsys.readouterr().err
        assert run(*argv, "--c-tau", "1.75e-10") == 0

    def test_bad_value_named_and_nothing_written(self, truth_file, tmp_path, capsys):
        doc = json.loads(truth_file.read_text())
        doc["geometry"]["radius_m"] = True
        truth_file.write_text(json.dumps(doc))
        out = tmp_path / "coeffs.csv"
        assert run("predict-coeffs", "--params", truth_file, "--deltas", "0:1:3", "--out", out) == 2
        assert f"{truth_file}: geometry: radius_m: expected a number, got true" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"blade_coeffs"', '"blade_coefs"', "geometry: blade_coefs: unknown key"),
            ('"motor"', '"motors"', "motors: unknown section"),
        ],
        ids=["key", "section"],
    )
    def test_unknown_name_exits_2_and_keeps_the_file(self, records_file, truth_file, capsys, old, new, message):
        # fit-motor rewrites the file, which would drop what it does not know
        truth_file.write_text(truth_file.read_text().replace(old, new))
        before = truth_file.read_bytes()
        assert run("fit-motor", "--input", records_file, "--params", truth_file) == 2
        assert capsys.readouterr().err == f"error: {truth_file}: {message}\n"
        assert truth_file.read_bytes() == before

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 200_000 + "]" * 200_000, "invalid JSON: "),  # the RecursionError's text varies by Python
            ('{"schema_version": 1, "motor": {"resistance_ohm": ' + "1" * 5001 + "}}", "invalid JSON: Exceeds the limit"),
        ],
        ids=["nested-too-deep", "int-over-digit-limit"],
    )
    def test_json_the_decoder_refuses_exits_2_naming_the_file(self, records_file, tmp_path, capsys, text, message):
        fit = tmp_path / "fit.json"
        fit.write_text(text)
        assert run("fit-motor", "--input", records_file, "--params", fit) == 2
        assert capsys.readouterr().err.startswith(f"error: {fit}: {message}")
        assert fit.read_text() == text

    def test_parameter_file_not_utf8_named(self, truth_file, tmp_path, capsys):
        truth_file.write_bytes(b"\xff\xfe" + truth_file.read_bytes())
        out = tmp_path / "coeffs.csv"
        assert run("predict-coeffs", "--params", truth_file, "--deltas", "0:1:3", "--out", out) == 2
        assert capsys.readouterr().err == f"error: {truth_file}: not UTF-8: byte 0xff at offset 0\n"
        assert not out.exists()


def read_table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestMalformedTables:
    @pytest.mark.parametrize(
        "row, message",
        [("0.5,1.1,0.01", "row 3: expected 4 cells, got 3"), ("nan,1.1,0.01,16", "row 3: delta must be finite")],
    )
    def test_fit_ceiling_names_bad_row(self, tmp_path, capsys, row, message):
        gamma_csv = tmp_path / "gamma.csv"
        gamma_csv.write_text(f"delta,gamma,stderr,n_points\n0.23,1.0,0.01,16\n{row}\n1.0,1.2,0.01,16\n")
        fit = tmp_path / "fit.json"
        assert run("fit-ceiling", "--input", gamma_csv, "--params", fit, "--reduced") == 2
        assert message in capsys.readouterr().err
        assert not fit.exists()


    def test_quoted_cell_not_closed_is_data_error(self, tmp_path, capsys):
        # a stray quote before row 2 of the bundled table, 159 KB above the
        # csv module's 128-KiB cell limit
        lines = (DATA / "steady_23mm_synthetic.csv").read_text().split("\n")
        lines[1] = '"' + lines[1]
        bad, gamma_csv, fit = tmp_path / "bad.csv", tmp_path / "gamma.csv", tmp_path / "fit.json"
        bad.write_text("\n".join(lines))
        assert run("fit-gamma", "--input", bad, "--out", gamma_csv, "--params", fit) == 2
        limit = csv.field_size_limit()
        assert capsys.readouterr().err == f"error: {bad}: row 2: quoted cell not closed, or a cell over {limit} characters\n"
        assert not gamma_csv.exists() and not fit.exists()

    @pytest.mark.parametrize("line", [1, 500])
    def test_extract_quoted_cell_not_closed_is_data_error(self, tmp_path, capsys, line):
        # row 501 lies past the first row, so the csv path's loop meets it
        raw = tmp_path / "raw.csv"
        lines = ["time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s"]
        lines += [f"{i / 1000.0},a,3.0,1.0,0.05,0.0001,2000.0" for i in range(20000)]
        lines[line] = '"' + lines[line]
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "steady.csv"
        assert run("extract", "--input", raw, "--out", out, "--radius", "0.023", "--distance", "0.01") == 2
        assert capsys.readouterr().err.startswith(f"error: {raw}: row {line + 1}: quoted cell not closed")
        assert not out.exists()


class TestForwardTables:
    """The CLI's array tables against the public kernels called one point at a time."""

    def test_predict_coeffs_matches_scalar_kernels(self, truth_file, tmp_path, geom_23mm, single_prop_ceiling, env):
        out = tmp_path / "coeffs.csv"
        assert run("predict-coeffs", "--params", truth_file, "--deltas", "0:25:1200", "--out", out) == 0
        table = read_table(out)
        assert table.shape == (1200, 4)
        for delta, gamma, c_t, c_tau in table:
            want_gamma = ceiling_coefficient(float(delta), single_prop_ceiling)
            want_ct = thrust_coefficient(geom_23mm, float(delta), single_prop_ceiling, env)
            assert gamma == pytest.approx(want_gamma, rel=1e-12)
            assert c_t == pytest.approx(want_ct, rel=1e-12)
            assert c_tau == pytest.approx(torque_coefficient(want_ct, geom_23mm, env, gamma=want_gamma), rel=1e-12)

    def test_power_saving_matches_scalar_kernels(self, truth_file, tmp_path, geom_23mm, single_prop_ceiling, bench_motor):
        out = tmp_path / "power.csv"
        code = run(
            "power-saving", "--params", truth_file, "--thrust", "0.0863",
            "--distances", "0.001:0.5:1100", "--log", "--density", "1.225", "--out", out,
        )
        assert code == 0
        table = read_table(out)
        assert table.shape == (1100, 5)
        env = Environment(air_density=1.225)
        c_tau = torque_coefficient(thrust_coefficient(geom_23mm, 0.0, single_prop_ceiling, env), geom_23mm, env)
        for distance, delta, gamma, p_mech, p_in in table:
            want_delta = geom_23mm.radius / distance
            want_gamma = ceiling_coefficient(want_delta, single_prop_ceiling)
            want_mech = aerodynamic_power(0.0863, want_gamma, env, geom_23mm.disc_area) / geom_23mm.figure_of_merit
            assert delta == pytest.approx(want_delta, rel=1e-12)
            assert gamma == pytest.approx(want_gamma, rel=1e-12)
            assert p_mech == pytest.approx(want_mech, rel=1e-12)
            assert p_in == pytest.approx(input_power_from_mechanical(want_mech, c_tau, bench_motor), rel=1e-12)

    @pytest.mark.parametrize(
        "argv, table",
        [
            (
                ["predict-coeffs", "--deltas", "0.1:5:4"],
                "delta,gamma,thrust_coeff_n_s2_rad2,torque_coeff_nm_s2_rad2\n"
                "0.1,1.000499750249688,2.9041029384289608e-08,1.5664719667535707e-10\n"
                "1.7333333333333336,1.1326311897323924,3.3690632559530366e-08,1.729007325841889e-10\n"
                "3.366666666666667,1.4037268515553925,4.086434395843904e-08,1.8636132586618003e-10\n"
                "5.0,1.724744871391589,4.747022345598201e-08,1.8990161331978506e-10\n",
            ),
            (
                ["power-saving", "--thrust", "0.0863", "--distances", "0.002:0.1:4", "--log"],
                "distance_m,delta,gamma,mechanical_power_w,input_power_w\n"
                "0.002,11.5,3.119637379485947,0.2573556342284318,0.319309107442671\n"
                "0.0073680629972807735,3.1215802590841424,1.358611184236026,0.5909389424110997,0.7786158758505466\n"
                "0.027144176165949066,0.8473272446872889,1.0346944669430083,0.7759355848614495,1.045785100968702\n"
                "0.1,0.22999999999999998,1.0026380407410485,0.8007438614307302,1.082157781053389\n",
            ),
            (
                ["resonance", "--deltas", "0.5:20:4"],
                "delta,inflow_ratio,product\n"
                "0.5,0.11710500333187837,0.058552501665939186\n"
                "7.0,0.07463784270598288,0.5224648989418802\n"
                "13.5,0.04996916109179858,0.6745836747392808\n"
                "20.0,0.03726530379065671,0.7453060758131342\n",
            ),
        ],
        ids=["predict-coeffs", "power-saving", "resonance"],
    )
    def test_table_bytes_pinned(self, truth_file, tmp_path, argv, table):
        out = tmp_path / "table.csv"
        assert run(*argv, "--params", truth_file, "--out", out) == 0
        assert out.read_bytes() == table.encode()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc/self/fd")
    def test_out_naming_stdout_comes_before_summary(self, truth_file, tmp_path):
        # stdout redirected to a file, and --out naming that file through fd 1
        table = tmp_path / "res.csv"
        assert run("resonance", "--params", truth_file, "--deltas", "0:25:51", "--out", table) == 0
        out = tmp_path / "stdout.txt"
        argv = ["resonance", "--params", str(truth_file), "--deltas", "0:25:51", "--out", "/proc/self/fd/1"]
        env = dict(os.environ, PYTHONPATH=str(Path(ceilprop.__file__).parents[1]))
        with open(out, "w") as fh:
            subprocess.run([sys.executable, "-m", "ceilprop.cli", *argv], stdout=fh, env=env, check=True, timeout=120)
        assert out.read_text() == table.read_text() + "resonance: 51 gap ratios to /proc/self/fd/1\n"


class TestExtract:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc/self/fd")
    def test_out_naming_stdout_is_utf8_whatever_stdout_encoding(self, tmp_path):
        # the table written through fd 1 is UTF-8 like every other table,
        # though sys.stdout encodes ASCII
        raw = tmp_path / "raw.csv"
        lines = ["time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s"]
        lines += [f"{i / 1000.0},é,3.0,1.0,0.05,0.0001,2000.0" for i in range(2500)]
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = tmp_path / "steady.csv"
        args = ["--input", str(raw), "--radius", "0.023", "--distance", "0.01"]
        assert run("extract", *args, "--out", table) == 0
        out = tmp_path / "stdout.txt"
        env = dict(os.environ, PYTHONPATH=str(Path(ceilprop.__file__).parents[1]), PYTHONIOENCODING="ascii")
        with open(out, "w") as fh:
            argv = [sys.executable, "-m", "ceilprop.cli", "extract", *args, "--out", "/proc/self/fd/1"]
            subprocess.run(argv, stdout=fh, env=env, check=True, timeout=120)
        summary = f"extract: 1 steady records from {raw} to /proc/self/fd/1\n"
        assert out.read_bytes() == table.read_bytes() + summary.encode()

    def test_cell_with_separator_byte_is_data_error_naming_it(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        lines = ["time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s"]
        lines += [f"{i / 1000.0},a,3.0,1.0,0.05,0.0001,2000.0" for i in range(2500)]
        lines[1] = lines[1].replace("0.0001", "\x1c0.0001")
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "steady.csv"
        assert run("extract", "--input", raw, "--out", out, "--radius", "0.023", "--distance", "0.01") == 2
        assert "row 2, column torque_nm: could not parse '\\x1c0.0001'" in capsys.readouterr().err
        assert not out.exists()

    def test_extract_subcommand(self, tmp_path):
        raw = tmp_path / "raw.csv"
        lines = ["time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s"]
        for i in range(2500):
            lines.append(f"{i / 1000.0},a,3.0,1.0,0.05,0.0001,2000.0")
        for i in range(2500, 5000):
            lines.append(f"{i / 1000.0},b,3.5,1.2,0.08,0.00012,2300.0")
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "steady.csv"
        assert run("extract", "--input", raw, "--out", out, "--radius", "0.023", "--distance", "0.01") == 0
        records = read_steady_csv(out)
        assert [r.setpoint for r in records] == ["a", "b"]
        assert records[1].thrust == pytest.approx(0.08)

    @pytest.fixture
    def short_last_setpoint(self, tmp_path):
        # 3 s of a steady setpoint, then 0.1 s of another, shorter than the window
        raw = tmp_path / "raw.csv"
        lines = ["time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s"]
        lines += [f"{i / 1000.0},a,3.0,1.0,0.05,0.0001,2000.0" for i in range(3000)]
        lines += [f"{i / 1000.0},b,4.0,1.5,0.08,0.00016,2800.0" for i in range(3000, 3100)]
        raw.write_text("\n".join(lines) + "\n")
        return ["extract", "--input", str(raw), "--out", str(tmp_path / "steady.csv"), "--radius", "0.023",
                "--distance", "0.01"]

    def test_warning_is_one_stderr_line(self, short_last_setpoint):
        env = dict(os.environ, PYTHONPATH=str(Path(ceilprop.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "ceilprop.cli", *short_last_setpoint], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == "warning: setpoint b: segment shorter than the averaging window; skipped\n"

    def test_dispatch_leaves_warnings_to_the_caller(self, short_last_setpoint, capsys):
        with pytest.warns(UserWarning, match="setpoint b: segment shorter than the averaging window"):
            assert cli_dispatch(short_last_setpoint) == 0
        assert capsys.readouterr().err == ""


class TestUndecodableTable:
    def test_steady_csv_not_utf8_names_file_and_line(self, records_file, tmp_path, capsys):
        lines = records_file.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b",", b",\xff", 1)
        bad, fit = tmp_path / "bad.csv", tmp_path / "fit.json"
        bad.write_bytes(b"\n".join(lines))
        assert run("fit-motor", "--input", bad, "--params", fit) == 2
        assert capsys.readouterr().err == f"error: {bad}: line 2: not UTF-8: byte 0xff\n"
        assert not fit.exists()


class TestFitMotorOneRig:
    def test_mixed_rigs_exit_2_and_keep_the_parameter_file(
        self, records_file, tmp_path, capsys, geom_50mm, single_prop_ceiling, env
    ):
        fit = tmp_path / "fit.json"
        assert run("fit-motor", "--input", records_file, "--params", fit) == 0
        before = fit.read_bytes()
        large = ceilprop.synthesize_dataset(
            geom_50mm, single_prop_ceiling, ceilprop.MotorParams(resistance=0.5, back_emf=3e-3),
            [0.01, 1.0], [900.0, 2000.0, 2800.0], env=env, config_id="big",
        )
        mixed = tmp_path / "mixed.csv"
        write_steady_csv([*read_steady_csv(records_file), *large], mixed)
        capsys.readouterr()
        assert run("fit-motor", "--input", mixed, "--params", fit) == 2
        assert "records mix several radius values: [0.023, 0.05]" in capsys.readouterr().err
        assert fit.read_bytes() == before


def fit_chain(records, fit, gamma_csv):
    # fit-motor and fit-gamma in process, then the argv of the two bounded fits
    assert run("fit-motor", "--input", records, "--params", fit) == 0
    assert run("fit-gamma", "--input", records, "--out", gamma_csv, "--params", fit) == 0
    return {
        "fit-ceiling": ["fit-ceiling", "--input", gamma_csv, "--params", fit, "--reduced"],
        "fit-blade": ["fit-blade", "--input", records, "--params", fit],
    }


class TestMisspecifiedCeiling:
    """fit-ceiling --reduced on data whose ceiling has recirculation, then
    fit-blade: each returns within seconds, exit 0 or 3, with its summary
    line and no traceback.  The fits run as processes under a timeout,
    because a fit hung inside LAPACK cannot be interrupted in process."""

    @pytest.mark.parametrize("noise", ["0", "0.01"])
    def test_chain_returns(self, tmp_path, noise):
        truth, records, fit = tmp_path / "truth.json", tmp_path / "records.csv", tmp_path / "fit.json"
        geometry = PropellerGeometry(radius=0.05, figure_of_merit=0.68, blade_coeffs=(0.058, 0.095, 0.011))
        ceiling, motor = ceilprop.CeilingParams(3.81, 0.0487), ceilprop.MotorParams(1.435, 0.001456)
        write_params(ParamSet(geometry=geometry, ceiling=ceiling, motor=motor), truth)
        assert run(
            "synth", "--params", truth, "--out", records, "--distances", "0.001:0.1:59,3.09", "--log",
            "--setpoints", "800:3000:24", "--noise", noise,
        ) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(ceilprop.__file__).parents[1]))
        for command, argv in fit_chain(records, fit, tmp_path / "gamma.csv").items():
            argv = [sys.executable, "-m", "ceilprop.cli", *map(str, argv)]
            done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            assert done.returncode in (0, 3), done.stderr
            assert done.stdout.startswith(f"{command}: ") and done.stdout.count("\n") == 1, done.stdout
            assert "Traceback" not in done.stderr


class TestFitNotConverged:
    @pytest.mark.parametrize("command", ["fit-ceiling", "fit-blade"])
    def test_exit_3_prints_each_note(self, records_file, tmp_path, capsys, monkeypatch, command):
        argv = fit_chain(records_file, tmp_path / "fit.json", tmp_path / "gamma.csv")
        assert run(*argv["fit-ceiling"]) == 0  # fit-blade reads the ceiling fit

        def stopped(residual, x0, bounds, names=None, columns=False):
            x = np.clip(x0, *np.array(bounds).T)
            notes = ("first note", "second note")
            return x, ceilprop.FitReport(dict(zip(names, x.tolist())), 0.5, 10, False, 500, notes)

        monkeypatch.setattr(ceilprop.leastsq, "gauss_newton", stopped)
        capsys.readouterr()
        assert run(*argv[command]) == 3
        out, err = capsys.readouterr()
        assert out.startswith(f"{command}: ") and out.endswith("(rms 0.5, converged False)\n")
        assert err == f"{command}: first note\n{command}: second note\n"
