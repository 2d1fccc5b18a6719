"""Byte-mutated inputs through the CLI: every command ends with an exit code
of success, bad data or non-convergence, and never with a traceback."""

import contextlib
import io
import random
import shutil
import tempfile
import warnings
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ceilprop.cli import cli_dispatch

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
STEADY = ROOT / "data" / "steady_23mm_synthetic.csv"
RAW_HEADER = "time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s"


def without_torque(text):
    # the steady table text with every torque cell emptied
    rows = [line.split(",") for line in text.splitlines()]
    column = rows[0].index("torque_nm")
    return "".join(",".join(row[:column] + [""] + row[column + 1 :]) + "\n" for row in rows)


# the inputs that are mutated: the README chain's steady table with and without
# torque, the golden ceiling-factor points and parameter file, and a raw log
# of two setpoints held 0.1 s each at 1 kHz, extracted with a 0.05-s window
ORIGINALS = {
    "steady.csv": STEADY.read_bytes(),
    "steady_no_torque.csv": without_torque(STEADY.read_text()).encode(),
    "gamma.csv": (GOLDEN / "gamma.csv").read_bytes(),
    "fit.json": (GOLDEN / "fit.json").read_bytes(),
    "raw.csv": (RAW_HEADER + "\n" + "".join(
        f"{i / 1000.0!r},sp{i // 100},{3.0 + i // 100!r},1.0,0.05,{1e-4 + 1e-6 * (i % 3)!r},2000.0\n" for i in range(200)
    )).encode(),
}

# each mutated file and the commands run on it, in a directory {dir} that holds
# the mutated copy, "input", and a fresh copy of the golden parameter file, "fit.json"
COMMANDS = {
    "steady.csv": [
        ["fit-gamma", "--input", "{dir}/input", "--out", "{dir}/gamma.csv", "--params", "{dir}/fit.json"],
        ["fit-blade", "--input", "{dir}/input", "--params", "{dir}/fit.json"],
    ],
    "steady_no_torque.csv": [
        ["fit-gamma", "--input", "{dir}/input", "--out", "{dir}/gamma.csv", "--params", "{dir}/fit.json",
         "--motor-params", GOLDEN / "fit.json"],
        ["fit-blade", "--input", "{dir}/input", "--params", "{dir}/fit.json"],
    ],
    "gamma.csv": [
        ["fit-ceiling", "--input", "{dir}/input", "--params", "{dir}/fit.json"],
        ["anomalies", "--input", "{dir}/input", "--params", GOLDEN / "fit.json", "--out", "{dir}/anomalies.csv"],
    ],
    "fit.json": [
        ["fit-blade", "--input", STEADY, "--params", "{dir}/input"],
        ["anomalies", "--input", GOLDEN / "gamma.csv", "--params", "{dir}/input", "--out", "{dir}/anomalies.csv"],
    ],
    "raw.csv": [
        ["extract", "--input", "{dir}/input", "--out", "{dir}/steady.csv", "--radius", "0.023", "--distance", "0.01",
         "--window", "0.05"],
    ],
}


# bytes that matter to the readers: separators, quotes, line ends, digits and
# number syntax, JSON syntax, a NUL, a separator byte and bytes that are not UTF-8
BYTES = b',"\r\n\t 0159.e-+nai{}[]:\x00\x1c\x80\xff'


def mutate(data: bytes, seed: int) -> bytes:
    # data with one to four bytes replaced, inserted or deleted at uniform
    # positions, each new byte from BYTES or any byte.  Positions come from a
    # seeded generator, as hypothesis draws numbers near 0, which hit the header
    rng = random.Random(seed)
    for _ in range(rng.randint(1, 4)):
        i, byte = rng.randrange(len(data) + 1), bytes([rng.choice(BYTES) if rng.random() < 0.5 else rng.randrange(256)])
        kind = rng.choice(["replace", "insert", "delete"])
        if kind == "insert":
            data = data[:i] + byte + data[i:]
        else:
            data = data[:i] + (byte if kind == "replace" else b"") + data[i + 1 :]
    return data


def test_mutated_inputs_exit_cleanly(tmp_path):
    codes = Counter()  # runs by command and exit code

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.sampled_from(sorted(COMMANDS)), st.integers(0, 2**32 - 1))
    def run(name, seed):
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            Path(work, "input").write_bytes(mutate(ORIGINALS[name], seed))
            for argv in COMMANDS[name]:
                shutil.copyfile(GOLDEN / "fit.json", Path(work, "fit.json"))
                argv = [a.replace("{dir}", work) if isinstance(a, str) else str(a) for a in argv]
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)  # skipped records and groups, not judged here
                        code = cli_dispatch(argv)
                assert code in (0, 2, 3), (argv, err.getvalue())
                codes[argv[0], code] += 1

    run()
    # every command both succeeds on some mutated input and rejects another
    commands = {argv[0] for argvs in COMMANDS.values() for argv in argvs}
    assert {command for command, code in codes if code == 0} == commands, codes
    assert {command for command, code in codes if code == 2} == commands, codes
