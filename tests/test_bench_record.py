"""``scripts/bench_record.py``'s record file, from a stubbed benchmark run;
no benchmark process starts."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

END_TO_END = {"frames_per_s": "1/s", "mean_error_px": "px"}
PER_LAYER = {"geometry.rasterize_s": "s/frame", "tracer.overhead_frac": "fraction"}


def test_record_keys(tmp_path, monkeypatch):
    workloads = [{"name": name} for name in ("desk-comb", "paper-comb-n400")]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": workloads}))
    runs = []

    def fake_run_side(checkout, workload, args, trace=0):
        runs.append((workload, args.seed, args.seconds, trace))
        units = PER_LAYER if trace else END_TO_END
        values = {"frames_per_s": 10.0 + args.seed, "mean_error_px": 20.0 + args.seed}
        metrics = {name: {"value": values.get(name, 0.5), "unit": unit} for name, unit in units.items()}
        return {"correct": True, "attempted": 6, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_side", fake_run_side)
    assert bench_record.main(["t1"]) == 0

    assert runs == [
        (w, seed, 30.0, trace)
        for w in ("desk-comb", "paper-comb-n400")
        for seed, trace in ((1, 0), (2, 0), (3, 0), (1, 1))
    ]
    record = json.loads((tmp_path / "BENCH_t1.json").read_text())
    assert set(record) == {"label", "command", "git_sha", "environment", "seeds", "seconds", "workloads"}
    assert record["label"] == "t1" and record["seeds"] == [1, 2, 3] and record["seconds"] == 30.0
    assert record["command"] == ["bench_record.py", "t1"]
    assert set(record["environment"]) == {"python", "numpy", "scipy", "nproc"}
    assert list(record["workloads"]) == ["desk-comb", "paper-comb-n400"]
    for entry in record["workloads"].values():
        assert set(entry) == {"end_to_end", "mean_error_px", "per_layer", "attempted", "failed"}
        assert entry["end_to_end"]["frames_per_s"] == {"unit": "1/s", "q1": 11.5, "median": 12.0, "q3": 12.5}
        assert set(entry["end_to_end"]) == set(END_TO_END)
        assert entry["mean_error_px"] == {"1": 21.0, "2": 22.0, "3": 23.0}
        assert entry["per_layer"] == {name: {"value": 0.5, "unit": unit} for name, unit in PER_LAYER.items()}
        assert (entry["attempted"], entry["failed"]) == (24, 0)
