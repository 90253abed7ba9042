#!/usr/bin/env python3
"""Record a checkout's benchmark numbers in ``BENCH_<LABEL>.json``.

Run from anywhere:

    python3 scripts/bench_record.py LABEL

For every workload in ``BENCHMARK.json``, one process at a time, it runs
``benchmark/run.py --trace 0`` once for each seed 1..R (R = 3), 30 s each,
then once with ``--trace 1`` at seed 1.  It writes ``BENCH_<LABEL>.json`` at
the root of the checkout, with this schema:

    {
      "label": LABEL,
      "command": this script's argv,
      "git_sha": the checkout's HEAD commit, or null outside git,
      "environment": {"python": version, "numpy": version,
                      "scipy": version or null, "nproc": CPU count},
      "seeds": [1, ..., R],
      "seconds": seconds per run,
      "workloads": {
        WORKLOAD: {
          "end_to_end": {METRIC: {"unit", "q1", "median", "q3"}},
          "mean_error_px": {SEED: value},
          "per_layer": {METRIC: {"unit", "value"}},
          "attempted": operations over the R + 1 runs,
          "failed": failed operations over the R + 1 runs
        }
      }
    }

The end-to-end quartiles (inclusive method) are over the R untraced runs, and
the per-layer metrics are the traced run's.  Python and numpy are this
script's, which runs the benchmark with the same interpreter.  Timings
depend on the machine: the file is a record to quote, not a test gate.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, quartiles, run_side  # noqa: E402

SEEDS = [1, 2, 3]
SECONDS = 30.0


def environment() -> dict:
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy,
            "nproc": os.cpu_count()}


def git_sha() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def record_workload(workload: str) -> dict:
    runs = [run_side(ROOT, workload, argparse.Namespace(seed=s, seconds=SECONDS)) for s in SEEDS]
    traced = run_side(ROOT, workload, argparse.Namespace(seed=SEEDS[0], seconds=SECONDS), trace=1)
    end_to_end = {}
    for name, metric in runs[0]["metrics"].items():
        q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
        end_to_end[name] = {"unit": metric["unit"], "q1": q1, "median": median, "q3": q3}
    return {
        "end_to_end": end_to_end,
        "mean_error_px": {str(s): r["metrics"]["mean_error_px"]["value"] for s, r in zip(SEEDS, runs)},
        "per_layer": traced["metrics"],
        "attempted": sum(r["attempted"] for r in (*runs, traced)),
        "failed": sum(r["failed"] for r in (*runs, traced)),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("LABEL may hold only letters, digits, '_', '.' and '-'")
    record = {
        "label": args.label,
        "command": [Path(__file__).name, *argv],
        "git_sha": git_sha(),
        "environment": environment(),
        "seeds": SEEDS,
        "seconds": SECONDS,
        "workloads": {},
    }
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        name = workload["name"]
        print(f"workload {name}", flush=True)
        record["workloads"][name] = record_workload(name)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    failed = sum(w["failed"] for w in record["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
