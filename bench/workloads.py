"""Seeded workloads of the ceilprop benchmark.

Each workload turns a seed into inputs (raw log files, a parameter file, or
in-memory truths), then serves one *pass*: a fixed list of requests that
the runner issues in a closed loop, one caller issuing the next request only
after the previous one returns.  The program sees only the generated files
and arrays; the truths stay in the benchmark and are used only by the
output checks.

Why these three workloads, and which layers each should and should not move:

* ``campaign`` reduces one bench campaign from raw 1 kHz logs on disk to a
  parameter file: ``read_raw_csv`` + ``steady_state_extract`` per distance,
  ``write_steady_csv``, then fit-motor -> fit-gamma -> fit-ceiling ->
  fit-blade -> anomalies through ``cli.cli_dispatch`` in process.  The read
  path of ``io`` does almost all the work (about 0.3 s per 64k rows against
  about 60 ms for the whole fit chain), so a parser change shows here and
  must show nothing in ``fit_batch``.
* ``fit_batch`` is a Monte-Carlo round trip in memory: draw a truth, then
  synthesize_dataset -> identify_motor -> fit_eta_gamma -> fit_ceiling_params
  -> flight_coefficient_points -> fit_blade_coefficients, and score the
  recovered constants.  No file I/O and no CLI, so ``fitting`` and
  ``leastsq`` dominate.  Varied shapes change solver iterations and the cost
  of the coarse start; anchor gap ratios up to 0.49 expose the anchor bias
  of fit_eta_gamma, so a solver fix moves the fit error while a pure speed
  change leaves it still.
* ``sweep`` builds forward design tables over dense gap-ratio grids through
  ``cli.cli_dispatch`` from a reference parameter file: predict-coeffs (1e4
  rows) and power-saving (3e4 rows), per-element scalar paths, and resonance
  (1e5 rows), the array path.
  ``core``, ``bemt``, ``analysis``, ``motor`` and the CLI table writer do
  all the work; ``fitting``, ``leastsq`` and most of ``io`` do none.  A
  kernel change that helps arrays but slows scalar calls shows here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RHO = 1.2  # air density of every workload [kg/m^3]

# Reference propellers: radius [m], figure of merit, blade constants (c0, c1, c2).
PROPS = {
    "23mm": (0.023, 0.50, (0.154, 0.846, 0.022)),
    "50mm": (0.050, 0.68, (0.058, 0.095, 0.011)),
}


@dataclass(frozen=True)
class Truth:
    """Model constants a workload's inputs are generated from."""

    radius: float
    figure_of_merit: float
    blade_coeffs: tuple
    asymmetry: float
    recirculation: float
    resistance: float
    back_emf: float

    def constants(self) -> dict:
        """The constants a fit recovers, keyed by name (recirculation is
        left out: its relative error is meaningless near its true value 0)."""
        c0, c1, c2 = self.blade_coeffs
        return {
            "resistance": self.resistance,
            "back_emf": self.back_emf,
            "figure_of_merit": self.figure_of_merit,
            "asymmetry": self.asymmetry,
            "c0": c0,
            "c1": c1,
            "c2": c2,
        }


def max_rel_error(fitted: dict, truth: Truth) -> float:
    """Largest relative error of the fitted constants against the truth."""
    return max(abs(fitted[k] - v) / abs(v) for k, v in truth.constants().items())


# ---------------------------------------------------------------------------
# Closed-form reference model, independent of the package.  It generates the
# campaign logs, and the sweep checks its tables against it.


def ref_gamma(delta, asymmetry, recirculation):
    b = 1.0 - recirculation * delta * delta
    return 0.5 * b + 0.5 * np.sqrt(b * b + asymmetry * delta * delta / 8.0)


def ref_flight(truth: Truth, delta):
    """Ceiling factor, inflow ratio v_i/(omega R), c_T and c_tau at gap ratios delta."""
    area = math.pi * truth.radius**2
    gamma = ref_gamma(delta, truth.asymmetry, truth.recirculation)
    c0, c1, c2 = truth.blade_coeffs
    b = c1 - c2 * delta
    inflow = (-b + np.sqrt(b * b + 16.0 * c0 * gamma**2)) / (8.0 * gamma**2)
    c_t = 2.0 * RHO * area * (2.0 * c0 * truth.radius * gamma / (b + np.sqrt(b * b + 16.0 * c0 * gamma**2))) ** 2
    c_tau = c_t**1.5 / (truth.figure_of_merit * gamma * np.sqrt(2.0 * RHO * area))
    return gamma, inflow, c_t, c_tau


def ref_steady_channels(truth: Truth, distance: float, omega):
    """Noise-free bench channels (voltage, current, thrust, torque, omega)."""
    _, _, c_t, c_tau = ref_flight(truth, truth.radius / distance)
    omega = np.asarray(omega, dtype=float)
    torque = c_tau * omega**2
    current = torque / truth.back_emf
    voltage = current * truth.resistance + truth.back_emf * omega
    return np.stack([voltage, current, c_t * omega**2, torque, omega])


def ref_power_chain(thrust, gamma, radius, figure_of_merit, c_tau, resistance, back_emf):
    """Shaft and input power [W] to hold a thrust at ceiling factors gamma."""
    area = math.pi * radius * radius
    p_mech = thrust * math.sqrt(thrust / (2.0 * RHO * area)) / gamma / figure_of_merit
    p_in = c_tau ** (2.0 / 3.0) / back_emf**2 * resistance * p_mech ** (4.0 / 3.0) + p_mech
    return p_mech, p_in


def params_doc(truth: Truth) -> dict:
    """Parameter file (schema version 1) holding a truth."""
    return {
        "schema_version": 1,
        "geometry": {
            "radius_m": truth.radius,
            "figure_of_merit": truth.figure_of_merit,
            "blade_coeffs": list(truth.blade_coeffs),
        },
        "ceiling": {"asymmetry": truth.asymmetry, "recirculation": truth.recirculation},
        "motor": {"resistance_ohm": truth.resistance, "back_emf_v_s_per_rad": truth.back_emf},
    }


@dataclass
class Outcome:
    """What one request returned, before it is checked."""

    rows: int  # units of work done: raw rows, steady records, or table rows
    value: object = None
    cli_output: str = ""


@contextlib.contextmanager
def _captured():
    """Capture what the CLI prints, so the benchmark's own last line stays last."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        yield buf


# ---------------------------------------------------------------------------
# campaign

RAW_HEADER = "time_s,setpoint,voltage_v,current_a,thrust_n,torque_nm,omega_rad_s"
RAW_FORMAT = "%.3f,sp%02d,%.7g,%.7g,%.7g,%.7g,%.7g"  # 1 ms clock, 7 significant digits
SAMPLE_RATE = 1000.0  # [Hz]
WINDOW = 2.0  # steady_state_extract's default averaging window [s]
PLATEAU = 3.0  # [s], longer than the window
NOISE = 0.005  # relative sample noise of every channel
UNSETTLED_WOBBLE = 0.12  # relative amplitude of a segment that never settles
# Fitted constants must lie within this many record-noise sigmas (sample
# noise / sqrt(window samples)) of the truth; 28 seeds showed at most 49 (c2).
CAMPAIGN_ERROR_SCALE = 100.0


class Campaign:
    name = "campaign"

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        radius, _, coeffs = PROPS["23mm"]
        self.truth = Truth(
            radius=radius,
            figure_of_merit=float(rng.uniform(0.45, 0.55)),
            blade_coeffs=coeffs,
            asymmetry=float(rng.uniform(1.4, 2.0)),
            recirculation=0.0,
            resistance=float(rng.uniform(1.4, 1.8)),
            back_emf=float(rng.uniform(1.0e-3, 1.2e-3)),
        )
        n_near, n_sp = (3, 6) if self.tiny else (5, 16)
        near = np.geomspace(0.0015, 0.06, n_near) * rng.uniform(0.9, 1.1, n_near)
        self.distances = [float(d) for d in near] + [1.0]  # the far anchor
        self.setpoints = np.linspace(800.0, 3000.0, n_sp) * rng.uniform(0.98, 1.02, n_sp)
        # a few (distance, setpoint) segments wobble throughout and never settle
        n_cells = len(self.distances) * n_sp
        picks = rng.choice(n_cells, size=2, replace=False)
        self.unsettled = {(int(p) // n_sp, int(p) % n_sp) for p in picks}
        self.expected = {}  # (distance index, setpoint index) -> steady channels
        self.files = []
        self.raw_rows = 0
        for i, distance in enumerate(self.distances):
            steady = ref_steady_channels(self.truth, distance, self.setpoints)
            table = self._raw_log(rng, i, steady)
            path = self.workdir / f"raw_{i}.csv"
            np.savetxt(path, table, fmt=RAW_FORMAT, header=RAW_HEADER, comments="")
            self.files.append((path, distance))
            self.raw_rows += len(table)
            for j in range(n_sp):
                if (i, j) not in self.unsettled:
                    self.expected[(i, j)] = steady[:, j]
        self.requests = [None]  # one pass is one campaign

    def _raw_log(self, rng, i, steady):
        n_sp = steady.shape[1]
        blocks = []
        prev = 0.5 * steady[:, 0]  # spin-up from half speed
        for j in range(n_sp):
            ramp = int(rng.uniform(0.6, 1.4) * SAMPLE_RATE)
            n = ramp + int(PLATEAU * SAMPLE_RATE)
            t = np.arange(n) / SAMPLE_RATE
            cur = steady[:, j][:, None]
            values = np.repeat(cur, n, axis=1)
            values[:, :ramp] = cur + (prev[:, None] - cur) * np.exp(-t[:ramp] / 0.15)
            if (i, j) in self.unsettled:
                values = values * (1.0 + UNSETTLED_WOBBLE * np.sin(2.0 * np.pi * 2.5 * t + rng.uniform(0, 6.3)))
            values = values * (1.0 + NOISE * rng.standard_normal(values.shape))
            blocks.append(np.vstack([np.full(n, j), values]))
            prev = steady[:, j]
        body = np.hstack(blocks)
        return np.vstack([np.arange(body.shape[1]) / SAMPLE_RATE, body]).T

    def request(self, cp, _req) -> Outcome:
        records = []
        for path, distance in self.files:
            stream = cp.read_raw_csv(path, radius=self.truth.radius, distance=distance, config_id="bench")
            records.extend(cp.steady_state_extract(stream))
        steady = self.workdir / "steady.csv"
        gamma = self.workdir / "gamma.csv"
        params = self.workdir / "params.json"
        cp.write_steady_csv(records, steady)
        params.unlink(missing_ok=True)
        chain = [
            ["fit-motor", "--input", steady, "--params", params],
            ["fit-gamma", "--input", steady, "--out", gamma, "--params", params],
            ["fit-ceiling", "--input", gamma, "--params", params, "--reduced"],
            ["fit-blade", "--input", steady, "--params", params],
            ["anomalies", "--input", gamma, "--params", params, "--out", self.workdir / "anomalies.csv"],
        ]
        codes = []
        with _captured() as out:
            for argv in chain:
                codes.append(cp.cli.cli_dispatch([str(a) for a in argv]))
                if codes[-1] != 0:
                    break
        return Outcome(rows=self.raw_rows, value=(records, codes), cli_output=out.getvalue())

    def check(self, _req, outcome: Outcome):
        """Returns (problem or None, fit error)."""
        records, codes = outcome.value
        if codes != [0] * 5:
            return f"CLI exit codes {codes}: {outcome.cli_output.strip()}", None
        index = {d: i for i, d in enumerate(self.distances)}
        seen = {}
        for r in records:
            j = int(r.setpoint[2:])
            seen[(index[r.distance], j)] = np.array([r.voltage, r.current, r.thrust, r.torque, r.omega])
        if set(seen) != set(self.expected):
            return f"extracted segments {sorted(set(seen) ^ set(self.expected))} differ from the settled ones", None
        # plateau means: 6 sigma of the window mean, plus the 7-digit rounding
        width = int(round(WINDOW * SAMPLE_RATE))
        tol = 6.0 * NOISE / math.sqrt(width) + 1e-6
        for key, want in self.expected.items():
            rel = np.abs(seen[key] - want) / want
            if np.any(rel > tol):
                return f"plateau {key} off by {rel.max():.3g} (tolerance {tol:.3g})", None
        doc = json.loads((self.workdir / "params.json").read_text())
        fitted = {
            "resistance": doc["motor"]["resistance_ohm"],
            "back_emf": doc["motor"]["back_emf_v_s_per_rad"],
            "figure_of_merit": doc["geometry"]["figure_of_merit"],
            "asymmetry": doc["ceiling"]["asymmetry"],
        }
        fitted.update(zip(("c0", "c1", "c2"), doc["geometry"]["blade_coeffs"]))
        err = max_rel_error(fitted, self.truth)
        bound = CAMPAIGN_ERROR_SCALE * NOISE / math.sqrt(width)
        if err > bound:
            return f"fitted constants off by {err:.3g} (bound {bound:.3g})", err
        return None, err


# ---------------------------------------------------------------------------
# fit_batch

FIT_BATCH_TRIALS = 32  # one pass; about 2 s on a 2 GHz core, so a run repeats each trial often
# The pairing of strata across axes is fixed; the seed only draws where each
# trial falls inside its strata.  Trial cost (records, solver iterations)
# depends mostly on that pairing, so every seed gets nearly the same mix and
# the timings of different seeds compare.
FIT_BATCH_DESIGN_SEED = 20190512


@dataclass(frozen=True)
class Trial:
    truth: Truth
    distances: np.ndarray
    setpoints: np.ndarray
    noise: float
    seed: int


def _latin_hypercube(rng, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)^dims with every axis stratified into n bins: the
    bins are paired by a fixed design, the offsets inside them come from rng."""
    design = np.random.default_rng(FIT_BATCH_DESIGN_SEED)
    bins = np.stack([design.permutation(n) for _ in range(dims)], axis=1)
    return (bins + rng.random((n, dims))) / n


class FitBatch:
    name = "fit_batch"

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        n = 6 if self.tiny else FIT_BATCH_TRIALS
        self.requests = []
        for u in _latin_hypercube(rng, n, 9):
            radius, eta, coeffs = PROPS["23mm" if u[0] < 0.5 else "50mm"]
            truth = Truth(
                radius=radius,
                figure_of_merit=eta,
                blade_coeffs=coeffs,
                asymmetry=1.2 + 5.8 * u[1],
                recirculation=0.0 if u[2] < 0.5 else 0.1 * (u[2] - 0.5),
                resistance=1.0 + 1.5 * u[3],
                back_emf=8e-4 + 7e-4 * u[4],
            )
            anchor_delta = 0.002 * (0.49 / 0.002) ** u[5]
            anchor = radius / anchor_delta
            n_dist = 20 + int(49 * u[6])  # 20 .. 68
            n_sp = 8 + int(17 * u[7])  # 8 .. 24
            if self.tiny:
                n_dist, n_sp = 6, 4
            near = np.geomspace(0.001, min(0.1, 0.5 * anchor), n_dist - 1)
            self.requests.append(
                Trial(
                    truth=truth,
                    distances=np.append(near, anchor),
                    setpoints=np.linspace(800.0, 3000.0, n_sp),
                    noise=0.005 + 0.015 * u[8],
                    seed=int(rng.integers(2**32)),
                )
            )

    def request(self, cp, trial: Trial) -> Outcome:
        t = trial.truth
        env = cp.Environment(air_density=RHO)
        records = cp.synthesize_dataset(
            cp.PropellerGeometry(radius=t.radius, figure_of_merit=t.figure_of_merit, blade_coeffs=t.blade_coeffs),
            cp.CeilingParams(asymmetry=t.asymmetry, recirculation=t.recirculation),
            cp.MotorParams(resistance=t.resistance, back_emf=t.back_emf),
            distances=trial.distances,
            setpoints=trial.setpoints,
            env=env,
            noise=trial.noise,
            seed=trial.seed,
        )
        motor, _ = cp.identify_motor(records)
        eta, points = cp.fit_eta_gamma(records, env)
        ceiling, ceiling_report = cp.fit_ceiling_params(points, reduced=t.recirculation == 0.0)
        ct_points, ctau_points = cp.flight_coefficient_points(records)
        coeffs, blade_report = cp.fit_blade_coefficients(
            ct_points, ctau_points, radius=t.radius, figure_of_merit=eta, ceiling=ceiling, env=env
        )
        fitted = {
            "resistance": motor.resistance,
            "back_emf": motor.back_emf,
            "figure_of_merit": eta,
            "asymmetry": ceiling.asymmetry,
            "c0": coeffs[0],
            "c1": coeffs[1],
            "c2": coeffs[2],
        }
        return Outcome(rows=len(records), value=(fitted, ceiling_report.converged, blade_report.converged))

    def check(self, trial: Trial, outcome: Outcome):
        fitted, ceiling_ok, blade_ok = outcome.value
        err = max_rel_error(fitted, trial.truth)
        if not (ceiling_ok and blade_ok):
            return f"fit did not converge (ceiling {ceiling_ok}, blade {blade_ok})", err
        return None, err


# ---------------------------------------------------------------------------
# sweep

# Rows per table, jittered by the seed.  Each kind gets the size at which its
# table takes about one second, so that a pass is short and every table is
# written many times in a run.
SWEEP_ROWS = {"predict_coeffs": 10_000, "power_saving": 30_000, "resonance": 100_000}


@dataclass(frozen=True)
class Table:
    kind: str
    rows: int
    grid: str  # start:stop:count; power-saving distances are logarithmic
    thrust: float = 0.0  # power-saving only


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        radius, eta, coeffs = PROPS["23mm" if rng.random() < 0.5 else "50mm"]
        self.truth = Truth(
            radius=radius,
            figure_of_merit=eta,
            blade_coeffs=coeffs,
            asymmetry=float(rng.uniform(1.3, 2.5)),
            recirculation=float(rng.uniform(0.0, 0.02)),
            resistance=float(rng.uniform(1.2, 2.0)),
            back_emf=float(rng.uniform(9e-4, 1.3e-3)),
        )
        self.params = self.workdir / "reference.json"
        self.params.write_text(json.dumps(params_doc(self.truth), indent=2))
        self.requests = []
        for kind, size in SWEEP_ROWS.items():
            rows = int((size // 50 if self.tiny else size) * rng.uniform(0.95, 1.05))
            if kind == "power_saving":
                grid = f"{rng.uniform(0.001, 0.002)!r}:{rng.uniform(0.5, 1.0)!r}:{rows}"
                self.requests.append(Table(kind, rows, grid, thrust=float(rng.uniform(0.03, 0.12))))
            else:
                grid = f"{rng.uniform(0.0, 0.02)!r}:{rng.uniform(5.0, 20.0)!r}:{rows}"
                self.requests.append(Table(kind, rows, grid))

    def request(self, cp, table: Table) -> Outcome:
        out = str(self.workdir / f"{table.kind}.csv")
        if table.kind == "predict_coeffs":
            argv = ["predict-coeffs", "--deltas", table.grid]
        elif table.kind == "power_saving":
            argv = ["power-saving", "--thrust", repr(table.thrust), "--distances", table.grid, "--log"]
        else:
            argv = ["resonance", "--deltas", table.grid]
        with _captured() as captured:
            code = cp.cli.cli_dispatch(argv + ["--params", str(self.params), "--out", out])
        return Outcome(rows=table.rows, value=code, cli_output=captured.getvalue())

    def check(self, table: Table, outcome: Outcome):
        """Every written row must equal the array evaluation of the public
        kernels (and the closed-form power chain) to 1e-12 relative, and so
        must the benchmark's own closed-form model, so that a change to a
        kernel shows even where the CLI and the array path agree."""
        import ceilprop as cp

        if outcome.value != 0:
            return f"{table.kind}: CLI exit code {outcome.value}: {outcome.cli_output.strip()}", None
        t = self.truth
        env = cp.Environment(air_density=RHO)
        geom = cp.PropellerGeometry(radius=t.radius, figure_of_merit=t.figure_of_merit, blade_coeffs=t.blade_coeffs)
        ceiling = cp.CeilingParams(asymmetry=t.asymmetry, recirculation=t.recirculation)
        if table.kind == "predict_coeffs":
            d = _grid(table.grid, log=False)
            gamma = cp.ceiling_coefficient(d, ceiling)
            c_t = cp.thrust_coefficient(geom, d, ceiling, env)
            kernels = np.column_stack([d, gamma, c_t, cp.torque_coefficient(c_t, geom, env, gamma=gamma)])
            r_gamma, _, r_ct, r_ctau = ref_flight(t, d)
            reference = np.column_stack([d, r_gamma, r_ct, r_ctau])
        elif table.kind == "power_saving":
            dist = _grid(table.grid, log=True)
            delta = t.radius / dist
            gamma = cp.ceiling_coefficient(delta, ceiling)
            c_tau = cp.torque_coefficient(cp.thrust_coefficient(geom, 0.0, ceiling, env), geom, env)
            p_mech, p_in = ref_power_chain(table.thrust, gamma, t.radius, t.figure_of_merit, c_tau, t.resistance, t.back_emf)
            kernels = np.column_stack([dist, delta, gamma, p_mech, p_in])
            r_gamma = ref_gamma(delta, t.asymmetry, t.recirculation)
            r_ctau = ref_flight(t, 0.0)[3]
            p_mech, p_in = ref_power_chain(table.thrust, r_gamma, t.radius, t.figure_of_merit, r_ctau, t.resistance, t.back_emf)
            reference = np.column_stack([dist, delta, r_gamma, p_mech, p_in])
        else:
            d = _grid(table.grid, log=False)
            scan = cp.resonance_scan(geom, ceiling, d)
            kernels = np.column_stack([scan.deltas, scan.inflow_ratios, scan.products])
            inflow = ref_flight(t, d)[1]
            reference = np.column_stack([d, inflow, d * inflow])
        got = np.loadtxt(self.workdir / f"{table.kind}.csv", delimiter=",", skiprows=1, ndmin=2)
        for source, want in (("the array kernels", kernels), ("the closed-form model", reference)):
            if got.shape != want.shape:
                return f"{table.kind}: table shape {got.shape}, expected {want.shape}", None
            bad = ~np.isclose(got, want, rtol=1e-12, atol=0.0)
            if np.any(bad):
                row, col = np.argwhere(bad)[0]
                return (f"{table.kind}: row {row} column {col} is {float(got[row, col])!r}, "
                        f"expected {float(want[row, col])!r} from {source}"), None
        return None, None


def _grid(expr: str, log: bool) -> np.ndarray:
    start, stop, count = expr.split(":")
    space = np.geomspace if log else np.linspace
    return space(float(start), float(stop), int(count))


WORKLOADS = {w.name: w for w in (Campaign, FitBatch, Sweep)}
