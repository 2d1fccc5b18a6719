"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ceilprop layer, in every
module namespace that binds them (``from .core import ceiling_coefficient``
puts a copy in bemt, analysis, fitting and cli, and each copy is wrapped).
Every call of a wrapped function records a span: name, start, end, parent
span and request.  Spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the time its child spans
cover, so time spent in a helper another layer calls is charged to that
layer and not to its caller.

Counters are recorded at the same boundaries, so ratios of useful work to
attempted work are measured where the work happens.  Wrapping happens from
the benchmark's own files; the program is not edited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# Public functions of each layer that the traced run wraps.
LAYERS = {
    "core": ("ceiling_coefficient", "aerodynamic_power"),
    "bemt": ("thrust_coefficient", "torque_coefficient", "inflow_ratio"),
    "motor": ("input_power_from_mechanical", "identify_motor"),
    "leastsq": ("gauss_newton", "slope_through_origin"),
    "fitting": (
        "synthesize_dataset",
        "fit_eta_gamma",
        "fit_ceiling_params",
        "flight_coefficient_points",
        "fit_blade_coefficients",
    ),
    "analysis": ("power_saving_curve", "resonance_scan", "anomaly_scan"),
    "io": (
        "read_raw_csv",
        "steady_state_extract",
        "read_steady_csv",
        "write_steady_csv",
        "read_gamma_csv",
        "write_gamma_csv",
        "read_params",
        "write_params",
        "dataset_sha256",
    ),
    "cli": ("cli_dispatch",),
}

# Counters beyond calls and self time, with their units.  Ratios are useful
# work over attempted work and read 0 when nothing was attempted.
COUNTERS = {
    "io.read_raw_csv.rows": "count",
    "io.steady_state_extract.records_per_segment": "ratio",
    "cli.exit_nonzero": "count",
    "leastsq.gauss_newton.iterations": "count",
    "leastsq.gauss_newton.residual_evals": "count",
    "leastsq.gauss_newton.iterations_per_eval": "ratio",
    "leastsq.gauss_newton.nonconverged": "count",
}

REQUEST = "harness.request"  # root span of each request; its self time is the benchmark's own


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.self_s"] = "s"
        units[f"{module}.self_s"] = "s"
        units[f"{module}.warnings"] = "count"
    units.update(COUNTERS)
    units["harness.self_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


class Tracer:
    """In-memory span recorder; install() wraps the layers of a package."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.enabled = True
        self._stack = [-1]
        self._request = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.request_id.append(self._request)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def request(self, number: int):
        """Root span of one request; spans inside it share its number."""
        self._request = number
        nid = self._name_id(REQUEST)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(-1)
        self.request_id.append(number)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._request = -1

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (such as output checks) record nothing."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def install(self, package) -> None:
        """Wrap each listed function in every ceilprop namespace binding it."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
        wrapped = {}
        for module, functions in LAYERS.items():
            for fn_name in functions:
                fn = getattr(modules[module], fn_name)
                hooks = self._hooks(f"{module}.{fn_name}")
                wrapped[id(fn)] = (fn, self._wrap(f"{module}.{fn_name}", fn, *hooks))
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    setattr(namespace, attr, wrapped[id(value)][1])

    def _hooks(self, name: str):
        counts = self.counts
        if name == "io.read_raw_csv":
            return None, lambda args, stream: counts.update({"io.read_raw_csv.rows": len(stream.time)})

        if name == "io.steady_state_extract":

            def segments(args, kwargs):
                stream = args[0] if args else kwargs["stream"]
                labels = np.asarray(stream.setpoint)
                counts["io.steady_state_extract.segments"] += int(np.count_nonzero(labels[1:] != labels[:-1])) + 1
                return args, kwargs

            return segments, lambda args, records: counts.update({"io.steady_state_extract.records": len(records)})

        if name == "cli.cli_dispatch":
            return None, lambda args, code: counts.update({"cli.exit_nonzero": int(code != 0)})

        if name == "leastsq.gauss_newton":

            def count_evals(args, kwargs):
                residual = args[0] if args else kwargs.pop("residual")

                def counted(x):
                    counts["leastsq.gauss_newton.residual_evals"] += 1
                    return residual(x)

                return (counted, *args[1:]), kwargs

            def outcome(args, result):
                report = result[1]
                counts["leastsq.gauss_newton.iterations"] += report.iterations
                counts["leastsq.gauss_newton.nonconverged"] += int(not report.converged)

            return count_evals, outcome
        return None, None

    def layer_metrics(self, passes: int, warnings_by_module: Counter) -> dict:
        """Per-layer metrics per pass over the workload's request list."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = np.bincount(name, weights=duration - covered, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))

        metrics = {}
        for module, functions in LAYERS.items():
            module_self = 0.0
            for fn in functions:
                nid = self._ids.get(f"{module}.{fn}")
                fn_self = float(self_time[nid]) if nid is not None else 0.0
                metrics[f"{module}.{fn}.calls"] = (int(calls[nid]) if nid is not None else 0) / passes
                metrics[f"{module}.{fn}.self_s"] = fn_self / passes
                module_self += fn_self
            metrics[f"{module}.self_s"] = module_self / passes
            metrics[f"{module}.warnings"] = warnings_by_module.get(module, 0) / passes
        c = self.counts
        for key in ("io.read_raw_csv.rows", "cli.exit_nonzero", "leastsq.gauss_newton.iterations",
                    "leastsq.gauss_newton.residual_evals", "leastsq.gauss_newton.nonconverged"):
            metrics[key] = c[key] / passes
        metrics["io.steady_state_extract.records_per_segment"] = _ratio(
            c["io.steady_state_extract.records"], c["io.steady_state_extract.segments"]
        )
        metrics["leastsq.gauss_newton.iterations_per_eval"] = _ratio(
            c["leastsq.gauss_newton.iterations"], c["leastsq.gauss_newton.residual_evals"]
        )
        nid = self._ids.get(REQUEST)
        metrics["harness.self_s"] = (float(self_time[nid]) if nid is not None else 0.0) / passes
        return metrics

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent, request) to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request_id, dtype=np.int32),
        )


def _ratio(useful, attempted) -> float:
    return useful / attempted if attempted else 0.0
