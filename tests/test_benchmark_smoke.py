"""The benchmark tracer reaches into the library by name: it wraps
``tracker.propagate_part``, ``tracker.correct_part`` and the four
combinatorial layers (``resampling.group_compatibility``,
``group_log_weights``, ``combinatorial_draw``, ``assemble_combinatorial``),
reads ``ParticleSet.fresh`` before every resample and
``CompatibilityGroups.group_count``/``part_pool_max`` after every grouping.
One short traced run of every workload in ``BENCHMARK.json`` checks that
those names still exist and are still on its tracking path; the
combinatorial layers are checked where the workload resamples
combinatorially."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmark"))

from run import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_benchmark_run_finds_every_layer(name):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report, result = json.loads(report_line), json.loads(result_line)
    assert result["failed"] == 0
    assert report["absent"] == []
    assert report["span_calls"]["tracker.propagate"] > 0
    assert report["span_calls"]["tracker.correct_self"] > 0
    metrics = result["metrics"]
    assert metrics["resampling.unique_frac"]["value"] > 0.0
    if WORKLOADS[name].resampler == "combinatorial":
        for layer in ("group", "mass", "draw", "assemble"):
            assert report["span_calls"][f"resampling.{layer}"] > 0, layer
        assert metrics["resampling.groups"]["value"] >= 1
        assert metrics["resampling.pool_max"]["value"] >= 1
