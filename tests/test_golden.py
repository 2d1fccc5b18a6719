"""Golden outputs: the README CLI chain on the bundled steady table, and
`extract` on a closed-form raw log with and without torque, against the
files under tests/golden.  After a deliberate change of output, write them
again with `python tools/make_golden.py`."""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from ceilprop.cli import cli_dispatch

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
STEADY = ROOT / "data" / "steady_23mm_synthetic.csv"

# the relative tolerance of each file's numbers: fitted constants may move
# with where the solver stops, forward tables and window means only by rounding
TOLERANCE = {
    "fit.json": 1e-9,
    "gamma.csv": 1e-9,
    "coeffs.csv": 1e-12,
    "power.csv": 1e-12,
    "resonance.csv": 1e-12,
    "anomalies.csv": 1e-12,
    "steady.csv": 1e-12,
    "steady_no_torque.csv": 1e-12,
}


def raw_log(path, torque=True):
    """Write a raw log in closed form to path: two setpoints held 3 s each at
    1 kHz, every channel a level with a 0.2% ripple, and every torque cell
    empty unless torque."""
    t = np.arange(6000) / 1000.0
    high = (t >= 3.0).astype(float)
    ripple = 1.0 + 0.002 * np.sin(2.0 * np.pi * 3.7 * t)
    levels = [3.0 + high, 1.0 + 0.5 * high, 0.05 + 0.03 * high, 1e-4 + 6e-5 * high, 2000.0 + 800.0 * high]
    voltage, current, thrust, tau, omega = (level * ripple for level in levels)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s\n")
        for row in zip(t.tolist(), high.tolist(), voltage.tolist(), current.tolist(), thrust.tolist(),
                       tau.tolist(), omega.tolist()):
            cells = [repr(row[0]), "sp2" if row[1] else "sp1", *map(repr, row[2:])]
            cells[5] = cells[5] if torque else ""
            fh.write(",".join(cells) + "\n")
    return path


def produce(out, golden):
    """Write every file of TOLERANCE into the directory out (a Path).  The fits run as
    the README chain runs them, except that fit-ceiling reads golden's
    gamma.csv (whose hash it records); the forward commands and anomalies
    read golden's fit.json and gamma.csv, so a fitted digit that moves fails
    only the file that holds it."""
    fit, gamma = out / "fit.json", golden / "gamma.csv"
    commands = [
        ["fit-motor", "--input", STEADY, "--params", fit],
        ["fit-gamma", "--input", STEADY, "--out", out / "gamma.csv", "--params", fit],
        ["fit-ceiling", "--input", gamma, "--params", fit, "--reduced"],
        ["fit-blade", "--input", STEADY, "--params", fit],
        ["predict-coeffs", "--params", golden / "fit.json", "--deltas", "0:25:251", "--out", out / "coeffs.csv"],
        ["power-saving", "--params", golden / "fit.json", "--thrust", "0.0863", "--distances", "0.001:0.1:60", "--log",
         "--out", out / "power.csv"],
        ["resonance", "--params", golden / "fit.json", "--deltas", "0:25:251", "--out", out / "resonance.csv"],
        ["anomalies", "--input", gamma, "--params", golden / "fit.json", "--out", out / "anomalies.csv"],
    ]
    with tempfile.TemporaryDirectory() as scratch:
        for torque, name in ((True, "steady.csv"), (False, "steady_no_torque.csv")):
            raw = raw_log(Path(scratch) / name, torque)
            commands.append(["extract", "--input", raw, "--out", out / name, "--radius", "0.023", "--distance", "0.01"])
        for argv in commands:
            assert cli_dispatch([str(a) for a in argv]) == 0, argv


def load(path):
    """A JSON file's document, or a CSV file's rows as lists of str cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        return json.load(fh) if path.suffix == ".json" else list(csv.reader(fh))


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def assert_matches(got, want, rel, where):
    """got equals want: dicts key by key, lists item by item, a float or a
    CSV cell that reads as one within rel of it, anything else exactly."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_matches(got[key], want[key], rel, f"{where}: {key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, rel, f"{where}[{i}]")
    elif isinstance(want, float) or (isinstance(want, str) and _number(want) is not None):
        g, w = (_number(got), _number(want)) if isinstance(want, str) else (got, want)
        assert isinstance(g, float) and math.isclose(g, w, rel_tol=rel, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def test_outputs_match_golden_files(tmp_path):
    produce(tmp_path, GOLDEN)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(TOLERANCE)
    for name, rel in TOLERANCE.items():
        assert_matches(load(tmp_path / name), load(GOLDEN / name), rel, name)
