"""``scripts/bench_pairs.py``'s argument checks and its summary of paired
benchmark results, on canned result lines; no benchmark process starts."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "frames_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "mean_error_px", "better": "lower", "bound": 0.25},
]


def result_line(fps, rss, error=26.3912, failed=0):
    metrics = {"frames_per_s": fps, "peak_rss_mb": rss, "mean_error_px": error}
    return json.dumps({
        "correct": failed == 0, "attempted": 24, "failed": failed,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()},
    })


def pairs_of(lines):
    return [(json.loads(p), json.loads(c)) for p, c in lines]


def row(lines, name):
    return next(line for line in lines if line.startswith(name))


def test_gain_needs_nine_wins_in_ten_beyond_the_parent_spread():
    fps = [(8.0 + 0.1 * i, 11.0 + 0.1 * i) for i in range(10)]
    lines, flagged = bench_pairs.summarize(
        pairs_of([(result_line(p, 60.0), result_line(c, 60.0)) for p, c in fps]), END_TO_END
    )
    assert not flagged
    assert lines[0] == "10 pairs; median [q1, q3] per side"
    fps_row = row(lines[1:], "frames_per_s")
    assert "parent 8.45 [8.225, 8.675]" in fps_row and "change 11.45" in fps_row
    assert "wins 10/10" in fps_row and fps_row.endswith("gain")
    # equal values are ties: no side wins, and nothing moved
    assert row(lines[1:], "peak_rss_mb").endswith("wins 0/10  -")


def test_eight_wins_in_ten_is_no_gain_and_a_worse_median_beyond_its_bound_shows():
    fps = [(8.0, 9.0)] * 8 + [(9.0, 8.0)] * 2
    rss = [(60.0, 67.0)] * 10
    lines, _ = bench_pairs.summarize(
        pairs_of([(result_line(p, rp), result_line(c, rc)) for (p, c), (rp, rc) in zip(fps, rss)]),
        END_TO_END,
    )
    assert row(lines[1:], "frames_per_s").endswith("wins 8/10  -")
    assert row(lines[1:], "peak_rss_mb").endswith("wins 0/10  worse")


def test_a_parent_spread_beyond_the_bound_is_unresolved_unless_every_run_is_better():
    # parent frames_per_s: median 8, quartiles 6.25 and 9.75, a spread of
    # 0.44 of the median against a bound of 0.25
    parent = [5.0, 6.0, 6.0, 7.0, 8.0, 8.0, 9.0, 10.0, 10.0, 11.0]
    # each change wins every pair, by less than the parent's spread: no gain
    for change, verdict in (
        ([v + 0.5 for v in parent], "wins 10/10  unresolved"),
        ([11.25] * 10, "wins 10/10  -"),  # every change run beats every parent run
    ):
        lines, _ = bench_pairs.summarize(
            pairs_of([(result_line(p, 60.0), result_line(c, 60.0)) for p, c in zip(parent, change)]),
            END_TO_END,
        )
        assert row(lines[1:], "frames_per_s").endswith(verdict)
        assert row(lines[1:], "peak_rss_mb").endswith("wins 0/10  -")


def test_error_and_failure_mismatches_are_flagged():
    lines, flagged = bench_pairs.summarize(
        pairs_of([
            (result_line(8.0, 60.0), result_line(9.0, 60.0)),
            (result_line(8.0, 60.0), result_line(9.0, 60.0, error=26.3913)),
            (result_line(8.0, 60.0), result_line(9.0, 60.0, failed=2)),
        ]),
        END_TO_END,
    )
    assert flagged
    flags = [line for line in lines if line.startswith("FLAG")]
    assert flags == [
        "FLAG pair 1: mean_error_px 26.3912 (parent) != 26.3913 (change)",
        "FLAG pair 2: change failed 2 of 24",
    ]


def test_several_workloads_get_one_summary_each_and_any_flag_fails(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "benchmark").mkdir(parents=True)
        (tmp_path / side / "benchmark" / "run.py").write_text("")
    runs = []

    def fake_run_side(checkout, workload, args):
        runs.append((checkout.name, workload))
        error = 26.3913 if (checkout.name, workload) == ("change", "paper-comb-n400") else 26.3912
        return json.loads(result_line(8.0 if checkout.name == "parent" else 9.0, 60.0, error=error))

    workloads = [{"name": name} for name in ("desk-comb", "desk-sys-singleton", "paper-comb-n400")]
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"workloads": workloads, "end_to_end": END_TO_END})
    )
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--seed", "1", "--pairs", "2",
            "--seconds", "1", "--workload"]
    assert bench_pairs.main(argv + ["desk-comb", "desk-sys-singleton"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("workload")] == [
        "workload desk-comb", "workload desk-sys-singleton"
    ]
    assert sum(line == "2 pairs; median [q1, q3] per side" for line in out) == 2
    # each workload runs all its pairs, the parent first in even pairs
    assert runs == [
        ("parent", "desk-comb"), ("change", "desk-comb"), ("change", "desk-comb"), ("parent", "desk-comb"),
        ("parent", "desk-sys-singleton"), ("change", "desk-sys-singleton"),
        ("change", "desk-sys-singleton"), ("parent", "desk-sys-singleton"),
    ]

    assert bench_pairs.main(argv + ["paper-comb-n400", "desk-comb"]) == 1
    out = capsys.readouterr().out
    assert out.index("workload paper-comb-n400") < out.index("FLAG pair 0") < out.index("workload desk-comb")


class TestArgumentsAreCheckedBeforeAnyRun:
    """A bad argument exits 2 before the first benchmark process starts,
    also when it names the second of several workloads."""

    @pytest.fixture
    def argv(self, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a benchmark run started")

        monkeypatch.setattr(subprocess, "run", no_run)
        for side in ("parent", "change"):
            (tmp_path / side / "benchmark").mkdir(parents=True)
            (tmp_path / side / "benchmark" / "run.py").write_text("")
        return [str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "10"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workload", "desk-comb", "desk-com", "--seed", "5", "--seconds", "30"],
             "unknown workload 'desk-com'"),
            (["--workload", "desk-comb", "--seed", "5", "--seconds", "0"],
             "--seconds must lie in (0, 600]"),
            (["--workload", "desk-comb", "--seed", "5", "--seconds", "601"],
             "--seconds must lie in (0, 600]"),
            (["--workload", "desk-comb", "--seed", "5", "--seconds", "nan"],
             "--seconds must lie in (0, 600]"),
            (["--workload", "desk-comb", "--seed", "-1", "--seconds", "30"],
             "--seed must be >= 0"),
        ],
        ids=["misspelt-second-workload", "zero-seconds", "seconds-past-600", "nan-seconds",
             "negative-seed"],
    )
    def test_rejected(self, argv, capsys, flags, message):
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(argv + flags)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_every_workload_of_the_benchmark_is_accepted(self, argv):
        names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        flags = ["--seed", "0", "--seconds", "600", "--workload", *names]
        args = bench_pairs.parse_args(argv + flags)
        assert args.workload == names
