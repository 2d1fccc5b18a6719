#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics into a BENCH_<n>.json file.

    python3 tools/bench_record.py --out BENCH_6.json \
        [--tree parent=../parent-checkout] [--tree change=.] \
        [--workloads campaign fit_batch sweep] [--runs 5] [--seed 11] [--seconds 10] \
        [--traced campaign]

For each workload, runs ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` --runs times in every tree (a checkout of the
repository), one run per tree in turn, reversing the order of the trees on
every other round, so that a change in the host's load falls on all of them
alike.  It records, per tree, the median, quartiles, min and max of each
end-to-end metric and every run's value, the failed-request counts, the git
SHA, Python and numpy versions, nproc, and the wall time of the tier-1 suite
(``python -m pytest -q --continue-on-collection-errors`` with src prepended
to PYTHONPATH) and its summary line, next to the line count of each
``src/ceilprop/*.py`` module and their total.  --out is written afresh with
the trees of this one invocation only, so every record in it was measured
under the same alternation.  Each workload named by --traced is run once more
per tree with ``--trace 1``, after its timed runs, and that run's per-layer
metrics are recorded under ``traced``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def _git_sha(tree: Path) -> str:
    # HEAD, with "-dirty" when the tree holds uncommitted changes to tracked files
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=tree,
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return (sha.stdout.strip() or "unknown") + ("-dirty" if dirty.stdout.strip() else "")


def _tier1(tree: Path) -> dict:
    # the ROADMAP's tier-1 command: src prepended to PYTHONPATH, and a module
    # that fails to collect does not stop the other tests
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    out = subprocess.run(argv, cwd=tree, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    wall = time.perf_counter() - start
    # pytest's last line, e.g. "419 passed, 1 error in 20.1s"
    summary = next((line for line in reversed(out.stdout.splitlines()) if re.search(r" in [\d.]+s\b", line)), "")
    return {
        "wall_s": wall,
        "exit_code": out.returncode,
        "summary": summary.strip("= "),
        "src_lines": _src_lines(tree),
    }


def _src_lines(tree: Path) -> dict:
    # lines of each module of the package, by file name, and their total
    modules = sorted((tree / "src" / "ceilprop").glob("*.py"))
    counts = {path.name: len(path.read_bytes().splitlines()) for path in modules}
    return {**counts, "total": sum(counts.values())}


def _bench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    argv += ["--trace", str(trace)]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _summary(results: list[dict]) -> dict:
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        metrics[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "min": min(values),
            "max": max(values),
            "values": values,
        }
    return {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json file to write")
    parser.add_argument("--tree", action="append", metavar="LABEL=DIR", help="a checkout to measure (default change=.)")
    parser.add_argument("--workloads", nargs="+", default=["campaign", "fit_batch", "sweep"])
    parser.add_argument("--runs", type=int, default=5, help="runs per workload and tree (default 5)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0, help="--seconds of each bench run (default 10)")
    parser.add_argument("--traced", nargs="+", default=[], metavar="WORKLOAD",
                        help="workloads also run once per tree with --trace 1")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    trees = {}
    for spec in args.tree or ["change=."]:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "bench" / "run.py").is_file():
            parser.error(f"--tree {spec!r}: expected LABEL=DIR naming a checkout with bench/run.py")
        trees[label] = Path(path).resolve()

    record = {
        label: {
            "environment": {
                "git_sha": _git_sha(tree),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "nproc": os.cpu_count(),
            },
            "bench": {"seed": args.seed, "seconds": args.seconds, "workloads": {}},
        }
        for label, tree in trees.items()
    }
    for workload in args.workloads:
        results = {label: [] for label in trees}
        for run in range(args.runs):
            for label, tree in list(trees.items())[:: 1 if run % 2 == 0 else -1]:
                results[label].append(_bench(tree, workload, args.seed, args.seconds))
                value = results[label][-1]["metrics"]["request_ms_p50"]["value"]
                print(f"{workload} run {run + 1}/{args.runs} {label}: request_ms_p50 {value:.4g} ms", file=sys.stderr)
        for label in trees:
            record[label]["bench"]["workloads"][workload] = _summary(results[label])
        for label, tree in trees.items() if workload in args.traced else ():
            traced = _bench(tree, workload, args.seed, args.seconds, trace=1)
            record[label]["bench"].setdefault("traced", {})[workload] = traced
    for label, tree in trees.items():
        record[label]["tier1"] = _tier1(tree)

    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
