#!/usr/bin/env python3
"""ceilprop benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {campaign,fit_batch,sweep} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from a checkout of the repository: the package is imported from
``src/`` beside this directory.  The run

1. sets up SETUP_REPEATS times: a fresh process imports ceilprop, then the
   workload generates its inputs from the seed (setup_s is the median);
2. issues one warm-up pass of the workload's request list, discarded;
3. issues the request list in order, over and over, in a closed loop (one
   caller, the next request when the previous one returns) until --seconds
   have passed and at least one pass is complete, checking every output
   outside the timed region;
4. prints every metric by name and unit, and as its last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones (END_TO_END).  With
--trace 1 the run first times one untraced pass, then wraps every layer in
spans (see tracing.py), measures whole passes only, and reports per-layer
metrics per pass, including the tracing overhead (traced over untraced
request time per pass).  Spans
and a result file with the environment (git SHA, Python and numpy
versions, nproc) are written under bench/out/.  --tiny shrinks every input
for the smoke test.

End-to-end metrics (the same names on every workload; a request is one
campaign, one fit_batch trial, or one sweep table).  A pass is short and
repeats the same requests, so every request is timed about ten times or
more in a run, and the timings below start from each request's median
repeat.  That keeps which requests happened to run (the cut at the end of
a run, the mix of trial shapes) out of the figures, leaving the speed of
the program and of the host.

* request_ms_p50 [ms]: the median over the requests of a pass of each
  one's median time.  For sweep, whose tables differ in size and kind, it
  is the time of one 1e4-row table of each kind at the rates below.
* rows_per_s [1/s]: rows of work per second: raw log rows (campaign) or
  steady records (fit_batch) of a pass over the sum of its requests'
  median times; for sweep the geometric mean over the three table kinds of
  their table rows per second at the median time, so each kind weighs the
  same.
* peak_rss_mb [MiB]: peak resident memory of the run's process.
* setup_s [s]: median of SETUP_REPEATS set-ups.

The summary lines also print the workload's own metrics: campaign_s;
fit_ms_p50, fit_ms_p90, fit_err_p50 and fit_err_p90 (largest relative error
of the recovered constants per trial); the rows per second of each sweep
table kind; and failed_ratio.  A request fails when it raises, a CLI
command exits non-zero, a fit does not converge, or its output check
fails; failures are counted, never retried.
"""

import os

# One process, one thread: pin BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
END_TO_END = {
    "request_ms_p50": "ms",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "fit_batch", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def _environment(numpy_version: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


class Runner:
    """Issues requests in a closed loop and checks each outcome."""

    def __init__(self, workload, package):
        self.workload = workload
        self.package = package
        self.tracer = None
        self.issued = 0
        self.failures = []
        self.warnings = Counter()  # ceilprop module -> warnings raised in it
        self._package_dir = Path(package.__file__).parent

    def issue(self, req) -> dict:
        number = self.issued
        self.issued += 1
        span = self.tracer.request(number) if self.tracer else contextlib.nullcontext()
        outcome, problem = None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with span:
                start = time.perf_counter()
                try:
                    outcome = self.workload.request(self.package, req)
                except Exception:
                    problem = traceback.format_exc()
                seconds = time.perf_counter() - start
        for w in caught:
            path = Path(w.filename)
            if path.parent == self._package_dir:
                self.warnings[path.stem] += 1
        err = None
        if problem is None:
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                try:
                    problem, err = self.workload.check(req, outcome)
                except Exception:
                    problem = traceback.format_exc()
        if problem is not None:
            self.failures.append(problem)
        return {
            "seconds": seconds,
            "rows": outcome.rows if outcome else 0,
            "err": err,
        }

    def warm_up(self):
        for req in self.workload.requests:
            self.issue(req)

    def measure(self, seconds: float, whole_passes: bool):
        """Requests in pass order until `seconds` have passed and at least one
        pass is complete; with whole_passes, stop only at the end of a pass.
        Returns the samples and the number of complete passes."""
        n = len(self.workload.requests)
        samples = []
        start = time.perf_counter()
        for req in itertools.cycle(self.workload.requests):
            samples.append(self.issue(req))
            if len(samples) >= n and time.perf_counter() - start >= seconds:
                if not whole_passes or len(samples) % n == 0:
                    break
        return samples, len(samples) // n


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(name: str, samples: list, requests: list) -> dict:
    """The workload's metrics by name: (value, unit, note)."""
    seconds = [s["seconds"] for s in samples]
    n = len(requests)
    typical = [statistics.median(s["seconds"] for s in samples[i::n]) for i in range(n)]  # per request
    rows = [s["rows"] for s in samples[:n]]
    repeats = f"median of {len(samples) // n}+ repeats each"
    m = {}
    if name == "sweep":
        # table rows per second of each kind: the median over its tables
        rates = {}
        for s, req in zip(samples, itertools.cycle(requests)):
            rates.setdefault(req.kind, []).append(s["rows"] / s["seconds"])
        for kind, values in rates.items():
            m[f"{kind}_rows_per_s"] = (statistics.median(values), "1/s", f"median of {len(values)} tables")
        kind_rates = [r / t for r, t in zip(rows, typical)]  # one table per kind
        # geometric mean, so each table kind weighs the same
        m["rows_per_s"] = (math.exp(sum(map(math.log, kind_rates)) / n), "1/s", f"geometric mean over kinds, {repeats}")
        m["request_ms_p50"] = (1e7 * sum(1.0 / r for r in kind_rates), "ms", f"one 1e4-row table of each kind, {repeats}")
        return m
    m["rows_per_s"] = (sum(rows) / sum(typical), "1/s", f"one pass, {repeats}")
    m["request_ms_p50"] = (1e3 * statistics.median(typical), "ms", f"over {n} requests, {repeats}")
    errors = [s["err"] for s in samples[: len(requests)] if s["err"] is not None]
    if name == "campaign":
        m["campaign_s"] = (statistics.median(seconds), "s", f"median of {len(samples)} campaigns")
        if errors:
            m["fit_err"] = (errors[0], "ratio", "max relative error of the fitted constants")
    else:
        m["fit_ms_p50"] = (1e3 * statistics.median(seconds), "ms", f"median of {len(samples)} trials")
        if len(samples) >= 100:  # p90 needs at least 10 samples beyond it
            m["fit_ms_p90"] = (1e3 * _percentile(seconds, 90), "ms", f"of {len(samples)} trials")
        if errors:
            m["fit_err_p50"] = (statistics.median(errors), "ratio", f"over {len(errors)} trials of one pass")
            m["fit_err_p90"] = (_percentile(errors, 90), "ratio", f"over {len(errors)} trials of one pass")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ceilprop" / "__init__.py").is_file():
        print(f"error: no ceilprop package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ceilprop
    import ceilprop.cli  # noqa: F401  (the workloads dispatch through it)
    import numpy as np

    from tracing import Tracer, metric_units
    from workloads import WORKLOADS

    workdir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: Popen.wait with one polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import ceilprop, ceilprop.cli"], env=env, check=True)
        workload.generate()
        setups.append(time.perf_counter() - start)

    runner = Runner(workload, ceilprop)
    runner.warm_up()
    n_requests = len(workload.requests)
    if args.trace:
        untraced = sum(runner.issue(req)["seconds"] for req in workload.requests)
        runner.tracer = Tracer()
        runner.tracer.install(ceilprop)
        runner.warnings.clear()
    samples, passes = runner.measure(args.seconds, whole_passes=bool(args.trace))

    environment = _environment(np.__version__)
    if args.trace:
        metrics = runner.tracer.layer_metrics(passes, runner.warnings)
        metrics["trace_overhead"] = sum(s["seconds"] for s in samples) / passes / untraced
        units = metric_units()
        report = {k: (v, units[k], "per pass") for k, v in metrics.items()}
        runner.tracer.write(OUT / f"spans-{args.workload}-{args.seed}.npz")
    else:
        report = end_to_end(args.workload, samples, workload.requests)
        report["setup_s"] = (statistics.median(setups), "s", f"median of {SETUP_REPEATS} set-ups")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["peak_rss_mb"] = (rss, "MiB", "whole run")
    failed = len(runner.failures)
    attempted = runner.issued
    report["failed_ratio"] = (failed / attempted, "ratio", f"{failed} of {attempted} requests")

    print(
        f"ceilprop bench: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
        f"{len(samples)} requests measured ({passes} whole passes of {n_requests}), "
        + ", ".join(f"{k} {v}" for k, v in environment.items())
    )
    for problem in runner.failures[:5]:
        print("FAILED: " + problem.strip().replace("\n", "\n    "))
    for name, (value, unit, note) in report.items():
        print(f"  {name:<48} {value:>16.6g} {unit:<6} {note}")
    shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(
            {"args": vars(args), "environment": environment, "failures": runner.failures[:20],
             "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in report.items()}},
            indent=2,
        )
    )
    wanted = metric_units() if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": report[k][0], "unit": unit} for k, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
