"""Smoke test of the benchmark: every workload, untraced and traced, at tiny
sizes.  It has no timing gates; it checks the output contract, that every
output check passes, and the call counts behind each workload's rationale.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _calls(metrics, module):
    return sum(v["value"] for k, v in metrics.items() if k.startswith(f"{module}.") and k.endswith(".calls"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_declared_metrics(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    m = result["metrics"]
    busy = {module: _calls(m, module) > 0 for module in ("io", "cli", "fitting", "leastsq", "core", "bemt", "analysis")}
    if workload == "campaign":
        assert busy["io"] and busy["cli"] and busy["fitting"] and busy["leastsq"]
        assert m["io.read_raw_csv.rows"]["value"] > 0
        assert 0 < m["io.steady_state_extract.records_per_segment"]["value"] < 1  # some segments never settle
    elif workload == "fit_batch":
        assert busy["fitting"] and busy["leastsq"] and not busy["io"] and not busy["cli"]
        assert m["leastsq.gauss_newton.residual_evals"]["value"] > 0
    else:
        assert busy["cli"] and busy["core"] and busy["bemt"] and busy["analysis"]
        assert not busy["fitting"] and not busy["leastsq"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
