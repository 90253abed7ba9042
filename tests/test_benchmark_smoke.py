"""The benchmark tracer reaches into the tracker by name: it wraps
``tracker.propagate_part`` and ``tracker.correct_part`` and reads
``ParticleSet.fresh`` before every resample.  One short traced run checks
that those names still exist and are still on the tracking path."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_run_finds_every_layer():
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "desk-comb", "--seed", "1",
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
    assert result["metrics"]["resampling.unique_frac"]["value"] > 0.0
