import dataclasses
import errno
import json
import math
from xml.etree import ElementTree

import numpy as np
import pytest

from crtrack.cli import DESK_MATRIX, DESK_SCALE, PAPER_MATRIX, main
from crtrack.harness import (
    CSV_HEADER,
    TRACKER_OVERRIDES,
    BenchmarkReport,
    BenchmarkRow,
    ConfigError,
    InsufficientData,
    SequenceSpec,
    build_model,
    emit_convergence_plot,
    generate_sequence,
    load_frames,
    load_object_spec,
    load_truth,
    read_results_csv,
    run_benchmark,
    simulate_sequence,
    tracker_config,
    write_results_csv,
)
from crtrack.pgm import write_pgm
from crtrack.tracker import RESAMPLER_NAMES, TrackerConfig


def tiny_spec(**kw):
    base = dict(
        arm_count=2,
        arm_length=1,
        frame_count=3,
        width=64,
        height=48,
        sigma_xy=0.8,
        sigma_theta=0.02,
        seed=5,
        part_length=8.0,
        part_width=4.0,
        name="tiny",
    )
    base.update(kw)
    return SequenceSpec(**base)


def tiny_config(**kw):
    cfg = {
        "objects": [dataclasses.asdict(tiny_spec(frame_count=4))],
        "resamplers": ["systematic", "combinatorial"],
        "particles": [5, 8],
        "runs": 2,
        "seed": 3,
    }
    cfg.update(kw)
    return cfg


class TestSequenceSpec:
    def test_part_count(self):
        assert tiny_spec().part_count == 3
        assert SequenceSpec(arm_count=4, arm_length=3).part_count == 13
        assert SequenceSpec(arm_count=0, arm_length=0).part_count == 1

    @pytest.mark.parametrize(
        "kw",
        [
            dict(arm_count=-1),
            dict(arm_count=2, arm_length=0),
            dict(frame_count=0),
            dict(width=0),
            dict(height=0),
            dict(part_length=-3.0),
            dict(part_length=0.0),
            dict(part_width=0.0),
            dict(part_length=math.nan),
            dict(part_width=math.inf),
            dict(sigma_xy=-1.0),
            dict(sigma_theta=-0.1),
            dict(sigma_xy=math.nan),
            dict(sigma_theta=math.inf),
            dict(arm_count=2.5),
            dict(width=64.5),
            dict(frame_count="3"),
            dict(part_length="30"),
            dict(seed=-1),
            dict(arm_count=True),
            dict(arm_length=True),
            dict(frame_count=True),
            dict(width=True),
            dict(seed=False),
            dict(part_length=True),
            dict(sigma_xy=False),
            dict(name=None),
            dict(name=5),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            tiny_spec(**{"arm_count": 1, "arm_length": 1, **kw})

    def test_canvas_holds_twice_the_longer_part_side(self):
        # a narrower canvas inverts the root bounds (m, width - m): the root
        # would jump from the centre to width - m at frame 1
        kw = dict(part_length=12.0, part_width=6.0, arm_count=1, arm_length=1, frame_count=3)
        with pytest.raises(ConfigError, match="width and height must be >= 24"):
            SequenceSpec(width=20, height=20, **kw)
        with pytest.raises(ConfigError):
            SequenceSpec(width=24, height=23, **kw)
        spec = SequenceSpec(width=24, height=24, **kw)
        assert spec.margin == 12.0
        _, _, truth = simulate_sequence(spec)
        np.testing.assert_array_equal(truth[:, 0, :2], 12.0)

    def test_defaults_are_the_paper_scale(self):
        spec = SequenceSpec()
        assert (spec.arm_count, spec.arm_length, spec.frame_count) == (4, 3, 300)
        assert (spec.width, spec.height, spec.part_length, spec.part_width) == (800, 640, 30.0, 12.0)

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)
        assert issubclass(InsufficientData, ValueError)


class TestSimulate:
    def test_shapes_and_determinism(self):
        spec = tiny_spec()
        model_a, frames_a, truth_a = simulate_sequence(spec)
        model_b, frames_b, truth_b = simulate_sequence(spec)
        assert len(frames_a) == spec.frame_count
        assert frames_a[0].shape == (spec.height, spec.width)
        assert frames_a[0].dtype == np.uint8
        assert truth_a.shape == (spec.frame_count, spec.part_count, 3)
        np.testing.assert_array_equal(truth_a, truth_b)
        for fa, fb in zip(frames_a, frames_b):
            np.testing.assert_array_equal(fa, fb)

    def test_zero_noise_sequence_is_static(self):
        spec = tiny_spec(sigma_xy=0.0, sigma_theta=0.0, frame_count=4)
        _, frames, truth = simulate_sequence(spec)
        for t in range(1, 4):
            np.testing.assert_array_equal(truth[t], truth[0])
            assert frames[t].tobytes() == frames[0].tobytes()

    def test_seed_changes_the_motion(self):
        _, _, truth_a = simulate_sequence(tiny_spec(seed=1))
        _, _, truth_b = simulate_sequence(tiny_spec(seed=2))
        assert (truth_a[1:] != truth_b[1:]).any()

    def test_root_stays_inside_the_margin(self):
        spec = tiny_spec(frame_count=60, sigma_xy=4.0)
        model, _, truth = simulate_sequence(spec)
        margin = max(model.lengths[0], model.widths[0])
        assert (truth[:, 0, 0] >= margin).all()
        assert (truth[:, 0, 0] <= spec.width - margin).all()
        assert (truth[:, 0, 1] >= margin).all()
        assert (truth[:, 0, 1] <= spec.height - margin).all()


class TestGenerateAndLoad:
    def test_round_trip(self, tmp_path):
        spec = tiny_spec()
        out = generate_sequence(spec, tmp_path / "seq")
        names = sorted(p.name for p in out.glob("*.pgm"))
        assert names == ["frame_0001.pgm", "frame_0002.pgm", "frame_0003.pgm"]

        _, frames, truth = simulate_sequence(spec)
        loaded = load_frames(out)
        assert len(loaded) == 3
        for a, b in zip(loaded, frames):
            np.testing.assert_array_equal(a, b)

        loaded_truth = load_truth(out / "truth.csv")
        assert loaded_truth.shape == truth.shape
        np.testing.assert_allclose(loaded_truth, truth, atol=5e-7)

        assert load_object_spec(out) == spec

    def test_truth_rows_are_frame_indexed(self, tmp_path):
        spec = tiny_spec(frame_count=2)
        out = generate_sequence(spec, tmp_path / "seq")
        lines = (out / "truth.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        first = lines[0].split(",")
        assert first[0] == "1"
        assert len(first) == 1 + 3 * spec.part_count

    def test_single_frame_sequence(self, tmp_path):
        out = generate_sequence(tiny_spec(frame_count=1), tmp_path / "one")
        assert len(load_frames(out)) == 1
        assert load_truth(out / "truth.csv").shape[0] == 1

    def test_frames_load_in_numeric_order(self, tmp_path):
        order = [999, 1000, 1001, 9999, 10000, 10001]
        for t in (10000, 999, 10001, 1001, 9999, 1000):
            write_pgm(tmp_path / f"frame_{t:04d}.pgm", np.full((1, 1), t % 256, dtype=np.uint8))
        assert [int(f[0, 0]) for f in load_frames(tmp_path)] == [t % 256 for t in order]

    def test_truth_row_with_another_part_count_raises(self, tmp_path):
        out = generate_sequence(tiny_spec(), tmp_path / "seq")
        truth = out / "truth.csv"
        lines = truth.read_text().splitlines(keepends=True)
        lines[1] = lines[1].rsplit(",", 3)[0] + "\n"  # row 2 loses its last part
        truth.write_text("".join(lines))
        with pytest.raises(ConfigError, match="truth.csv, row 2: 2 parts, earlier rows have 3$"):
            load_truth(truth)

    def test_blank_truth_rows_are_skipped(self, tmp_path):
        out = generate_sequence(tiny_spec(), tmp_path / "seq")
        truth = out / "truth.csv"
        expected = load_truth(truth)
        truth.write_text("\n" + "\n".join(truth.read_text().splitlines(keepends=True)) + "\n")
        np.testing.assert_array_equal(load_truth(truth), expected)

    def test_missing_inputs_raise_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_frames(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ConfigError):
            load_truth(empty)
        with pytest.raises(ConfigError):
            load_object_spec(tmp_path)


class TestRunBenchmark:
    def test_matrix_cardinality_and_fields(self):
        report = run_benchmark(tiny_config())
        assert len(report.rows) == 1 * 2 * 2 * 2
        spec = tiny_spec(frame_count=4)
        for row in report.rows:
            assert row.object_name == "tiny"
            assert row.resampler in ("systematic", "combinatorial")
            assert row.particles in (5, 8)
            assert row.run in (0, 1)
            assert row.mean_error_px >= 0.0
            assert row.total_seconds > 0.0
        by = {(r.resampler, r.particles, r.run): r for r in report.rows}
        assert len(by) == 8
        # systematic runs the singleton schedule (P resamples per frame),
        # combinatorial the parallel one (K per frame)
        assert by[("systematic", 5, 0)].resample_invocations == 3 * 3
        assert by[("combinatorial", 5, 0)].resample_invocations == 2 * 3

    def test_error_column_is_reproducible(self):
        errs_a = [r.mean_error_px for r in run_benchmark(tiny_config()).rows]
        errs_b = [r.mean_error_px for r in run_benchmark(tiny_config()).rows]
        assert errs_a == errs_b

    def test_cell_seeds_are_distinct(self):
        report = run_benchmark(tiny_config())
        seeds = [r.seed for r in report.rows]
        assert len(set(seeds)) == len(seeds)

    def test_partition_mode_override(self):
        cfg = tiny_config(resamplers=["systematic"], tracker={"partition_mode": "parallel"})
        report = run_benchmark(cfg)
        assert {r.resample_invocations for r in report.rows} == {2 * 3}

    def test_tracker_noise_override_changes_errors(self):
        base = [r.mean_error_px for r in run_benchmark(tiny_config()).rows]
        wide = [
            r.mean_error_px
            for r in run_benchmark(tiny_config(tracker={"sigma_xy": 3.0})).rows
        ]
        assert base != wide

    @pytest.mark.parametrize(
        "bad",
        [
            dict(resamplers=["nope"]),
            dict(resamplers=[]),
            dict(particles=[]),
            dict(runs=0),
            dict(objects=[]),
            dict(objects=[{"arm_count": -2, "arm_length": 1}]),
            dict(tracker={"lamda": 10.0}),
            dict(tracker={"lam": -1.0}),
            dict(objects=[{**dataclasses.asdict(tiny_spec()), "width": 64.5}]),
            dict(objects=[{**dataclasses.asdict(tiny_spec()), "part_length": 0}]),
            dict(objects=[{**dataclasses.asdict(tiny_spec()), "sigma_xy": -1.0}]),
            dict(seed=-1),
            dict(seed=2.5),
            dict(particles=[5.5]),
            dict(particles=["5"]),
            dict(runs=2.5),
            dict(particles=[True]),
            dict(runs=True),
            dict(seed=True),
            dict(objects=[{**dataclasses.asdict(tiny_spec()), "arm_count": True}]),
            dict(tracker={"lam": "50"}),
            dict(tracker={"sigma_xy": True}),
            dict(tracker={"weighted_exponent": 1e5}),
        ],
    )
    def test_bad_configs(self, bad):
        with pytest.raises(ConfigError):
            run_benchmark(tiny_config(**bad))

    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            run_benchmark({"resamplers": ["systematic"]})

    def test_workers_key_is_ignored(self):
        plain = run_benchmark(tiny_config())
        with_key = run_benchmark(tiny_config(workers=3))
        assert [r.mean_error_px for r in plain.rows] == [r.mean_error_px for r in with_key.rows]
        assert [r.seed for r in plain.rows] == [r.seed for r in with_key.rows]


class TestTrackerConfig:
    def test_defaults_follow_the_sequence_and_the_resampler(self):
        spec = tiny_spec()
        cfg = tracker_config(spec, "systematic", 7, 4)
        default = TrackerConfig(particle_count=7)
        assert (cfg.particle_count, cfg.resampler, cfg.seed) == (7, "systematic", 4)
        assert (cfg.sigma_xy, cfg.sigma_theta) == (spec.sigma_xy, spec.sigma_theta)
        assert (cfg.lam, cfg.weighted_exponent) == (default.lam, default.weighted_exponent)
        assert cfg.partition_mode == "singleton"
        assert tracker_config(spec, "combinatorial", 7, 4).partition_mode == "parallel"

    def test_overrides(self):
        overrides = {"sigma_xy": 2, "sigma_theta": 0.5, "lam": 7, "weighted_exponent": 3,
                     "partition_mode": "parallel"}
        cfg = tracker_config(tiny_spec(), "systematic", 5, 0, overrides)
        assert (cfg.sigma_xy, cfg.sigma_theta, cfg.lam, cfg.weighted_exponent) == (2.0, 0.5, 7.0, 3.0)
        assert isinstance(cfg.lam, float)
        assert cfg.partition_mode == "parallel"

    def test_partition_is_the_library_default(self):
        for resampler, mode in (("systematic", "singleton"), ("combinatorial", "parallel")):
            library = TrackerConfig(particle_count=7, resampler=resampler)
            assert library.partition_mode == mode
            assert tracker_config(tiny_spec(), resampler, 7, 4).partition_mode == mode

    def test_overrides_are_the_free_fields(self):
        assert TRACKER_OVERRIDES == (
            "sigma_xy", "sigma_theta", "lam", "weighted_exponent", "partition_mode"
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lamda": 1.0},
            {"seed": 3},
            {"lam": "high"},
            {"sigma_xy": None},
            ["lam", 1.0],
            {"partition_mode": None},
            {"resampler": "multinomial"},
            {"lam": "50"},
            {"sigma_xy": True},
            {"weighted_exponent": False},
        ],
    )
    def test_rejects_bad_overrides(self, overrides):
        with pytest.raises(ConfigError):
            tracker_config(tiny_spec(), "systematic", 5, 0, overrides)

    @pytest.mark.parametrize(
        "particles, seed", [(5.5, 0), (True, 0), ("5", 0), (5, 1.5), (5, True)]
    )
    def test_counts_and_seeds_are_integers(self, particles, seed):
        with pytest.raises(ConfigError, match="must be an integer"):
            tracker_config(tiny_spec(), "systematic", particles, seed)


def fake_report():
    rows = []
    for resampler, base in (("systematic", 30.0), ("combinatorial", 24.0)):
        for n, drop in ((10, 0.0), (20, 6.0), (40, 9.0)):
            for run in range(2):
                rows.append(
                    BenchmarkRow(
                        object_name="obj",
                        resampler=resampler,
                        particles=n,
                        run=run,
                        seed=100 + run,
                        mean_error_px=base - drop + 0.5 * run,
                        resample_seconds=0.01,
                        total_seconds=0.1,
                        resample_invocations=12,
                    )
                )
    return BenchmarkReport(rows)


HEADER_LINE = (
    b"object,resampler,particles,run,seed,mean_error_px,resample_seconds,total_seconds,"
    b"resample_invocations\r\n"
)
# A results file as the hand-listed writer wrote it before the columns were
# derived from BenchmarkRow.
EARLIER_RESULTS = HEADER_LINE + (
    b"star-4x3,systematic,25,0,2943124318,48.163562684102345,0.0123456789,1.5,177\r\n"
    b"star-4x3,combinatorial,100,9,7,0.30000000000000004,1e-07,3.3333333333333335,236\r\n"
    b'"obj, with comma",weighted,50,1,0,0.0,2.5e-05,12.0,0\r\n'
)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        report = fake_report()
        path = tmp_path / "results.csv"
        write_results_csv(report, path)
        assert read_results_csv(path).rows == report.rows

    def test_header_line(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(BenchmarkReport([]), path)
        assert path.read_bytes() == HEADER_LINE
        assert ",".join(CSV_HEADER).encode() + b"\r\n" == HEADER_LINE

    def test_earlier_files_read_back_and_rewrite_byte_for_byte(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_bytes(EARLIER_RESULTS)
        report = read_results_csv(path)
        assert report.rows[1] == BenchmarkRow(
            "star-4x3", "combinatorial", 100, 9, 7, 0.1 + 0.2, 1e-07, 3.3333333333333335, 236
        )
        again = tmp_path / "again.csv"
        write_results_csv(report, again)
        assert again.read_bytes() == EARLIER_RESULTS

    def test_awkward_floats_survive(self, tmp_path):
        row = BenchmarkRow("o", "systematic", 5, 0, 1, 0.1 + 0.2, 1e-7, 3.3333333333333335, 9)
        path = tmp_path / "results.csv"
        write_results_csv(BenchmarkReport([row]), path)
        back = read_results_csv(path).rows[0]
        assert back.mean_error_px == 0.1 + 0.2
        assert back.total_seconds == 3.3333333333333335

    def test_blank_rows_are_skipped(self, tmp_path):
        report = fake_report()
        path = tmp_path / "results.csv"
        write_results_csv(report, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "\n".join(lines[1:]) + "\n")
        assert read_results_csv(path).rows == report.rows

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            read_results_csv(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results_csv(fake_report(), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].rsplit(",", 1)[0] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match="row 2: 8 fields, not 9"):
            read_results_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_value(self, tmp_path, value):
        path = tmp_path / "results.csv"
        write_results_csv(fake_report(), path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[5] = value  # mean_error_px of the second row
        lines[2] = ",".join(fields)
        path.write_text("".join(lines))
        with pytest.raises(ConfigError, match="row 3: values must be finite"):
            read_results_csv(path)


class TestSeries:
    def test_aggregates_sorted_by_particles(self):
        series = fake_report().series()
        points = series[("obj", "combinatorial")]
        assert [n for n, _, _ in points] == [10, 20, 40]
        assert points[0][1] == pytest.approx(24.25)
        assert points[0][2] == pytest.approx(0.25)


class TestPlot:
    def test_emits_svg_with_one_polyline_per_resampler(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_convergence_plot(fake_report(), path)
        text = path.read_text()
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
        assert text.count("<polyline") == 2
        assert "combinatorial" in text and "systematic" in text
        assert "particles" in text and "mean error (px)" in text
        assert text.rstrip().endswith("</svg>")

    def test_single_particle_count_is_insufficient(self, tmp_path):
        rows = [r for r in fake_report().rows if r.particles == 10]
        with pytest.raises(InsufficientData):
            emit_convergence_plot(BenchmarkReport(rows), tmp_path / "plot.svg")

    def test_multi_object_legend_labels(self, tmp_path):
        rows = fake_report().rows
        other = [dataclasses.replace(r, object_name="second") for r in rows]
        path = tmp_path / "plot.svg"
        emit_convergence_plot(BenchmarkReport(rows + other), path)
        text = path.read_text()
        assert "obj/combinatorial" in text
        assert "second/systematic" in text
        assert text.count("<polyline") == 4

    def test_object_names_are_escaped(self, tmp_path):
        rows = [
            dataclasses.replace(r, object_name=name)
            for name in ("a<b", "c&d")
            for r in fake_report().rows
        ]
        path = tmp_path / "plot.svg"
        emit_convergence_plot(BenchmarkReport(rows), path)
        texts = {t.text for t in ElementTree.parse(path).iter("{http://www.w3.org/2000/svg}text")}
        assert {"a<b/combinatorial", "c&d/systematic"} <= texts


class TestCli:
    def test_generate_track_bench_plot_flow(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        rc = main(
            [
                "generate", "--out", str(seq), "--arms", "1", "--arm-length", "2",
                "--frames", "4", "--width", "72", "--height", "56",
                "--part-length", "9", "--part-width", "4", "--seed", "1",
            ]
        )
        assert rc == 0
        assert (seq / "object.json").exists()
        assert sorted(p.name for p in seq.glob("*.pgm"))[0] == "frame_0001.pgm"

        est = tmp_path / "estimates.csv"
        rc = main(
            [
                "track", "--frames", str(seq), "--truth", str(seq / "truth.csv"),
                "--resampler", "combinatorial", "--particles", "10", "--seed", "2",
                "--out", str(est),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean error (px):" in out
        assert "resample invocations: 9" in out  # 3 levels x 3 steps
        lines = est.read_text().strip().split("\n")
        assert lines[0].split(",")[:2] == ["frame", "error_px"]
        assert len(lines) == 1 + 4
        assert len(lines[1].split(",")) == 2 + 3 * 3

        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        results = tmp_path / "results.csv"
        rc = main(["bench", "--config", str(cfg_path), "--out", str(results)])
        assert rc == 0
        assert len(read_results_csv(results).rows) == 8

        svg = tmp_path / "plot.svg"
        rc = main(["plot", "--in", str(results), "--out", str(svg)])
        assert rc == 0
        assert svg.read_text().startswith("<svg ")

    @pytest.mark.parametrize(
        "flags, scale",
        [
            ([], dict(frame_count=60, width=160, height=128, part_length=12.0, part_width=6.0)),
            (
                ["--paper-scale"],
                dict(frame_count=300, width=800, height=640, part_length=30.0, part_width=12.0),
            ),
        ],
        ids=["desk", "paper-scale"],
    )
    def test_generate_defaults(self, tmp_path, monkeypatch, capsys, flags, scale):
        def no_frames(spec):
            return None, [], np.zeros((0, spec.part_count, 3))

        monkeypatch.setattr("crtrack.harness.simulate_sequence", no_frames)
        assert main(["generate", "--out", str(tmp_path), *flags]) == 0
        expected = {
            "arm_count": 4,
            "arm_length": 3,
            "frame_count": scale["frame_count"],
            "width": scale["width"],
            "height": scale["height"],
            "sigma_xy": 1.0,
            "sigma_theta": 0.025,
            "seed": 0,
            "part_length": scale["part_length"],
            "part_width": scale["part_width"],
            "name": "object",
        }
        assert (tmp_path / "object.json").read_text() == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize(
        "flags, seed, matrix, scale",
        [
            ([], 0, DESK_MATRIX, DESK_SCALE),
            (["--paper-scale", "--seed", "7"], 7, PAPER_MATRIX, {}),
        ],
        ids=["desk", "paper-scale"],
    )
    def test_bench_default_matrix(self, tmp_path, monkeypatch, capsys, flags, seed, matrix, scale):
        configs = []

        def no_runs(config):
            configs.append(config)
            return BenchmarkReport([])

        monkeypatch.setattr("crtrack.cli.run_benchmark", no_runs)
        assert main(["bench", "--out", str(tmp_path / "r.csv"), *flags]) == 0
        assert configs == [
            {
                "seed": seed,
                "runs": matrix["runs"],
                "particles": matrix["particles"],
                "resamplers": list(RESAMPLER_NAMES),
                "objects": [{**scale, "name": "star-4x3"}],
            }
        ]

    def test_track_without_frames_exits_two(self, tmp_path, capsys):
        rc = main(
            ["track", "--frames", str(tmp_path), "--truth", str(tmp_path / "truth.csv")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_rejects_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(tiny_config(resamplers=["nope"])))
        rc = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "unknown resampler" in capsys.readouterr().err

    def test_plot_rejects_insufficient_series(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        rows = [r for r in fake_report().rows if r.particles == 10]
        write_results_csv(BenchmarkReport(rows), path)
        rc = main(["plot", "--in", str(path), "--out", str(tmp_path / "p.svg")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestTrackRejectsBadInput:
    """``crtrack track`` exits with code 2 and an ``error:`` line, before
    tracking a single frame, when the tracker settings or the ground truth
    cannot work."""

    @staticmethod
    def no_tracking(*args, **kwargs):
        raise AssertionError("bad input reached the tracker")

    @pytest.fixture
    def seq(self, tmp_path, monkeypatch):
        monkeypatch.setattr("crtrack.cli.track_sequence", self.no_tracking)
        return generate_sequence(tiny_spec(frame_count=5), tmp_path / "seq")

    def track(self, seq, *extra, config=None):
        argv = ["track", "--frames", str(seq), "--truth", str(seq / "truth.csv"), *extra]
        if config is not None:
            path = seq / "tracker.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        return main(argv)

    def test_zero_particles(self, seq, capsys):
        assert self.track(seq, "--particles", "0") == 2
        assert "error:" in capsys.readouterr().err

    def test_combinatorial_on_the_singleton_partition(self, seq, capsys):
        rc = self.track(seq, "--resampler", "combinatorial", config={"partition_mode": "singleton"})
        assert rc == 2
        assert "parallel partition" in capsys.readouterr().err

    def test_negative_lam(self, seq, capsys):
        assert self.track(seq, config={"lam": -1.0}) == 2
        assert "lam must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [{"sigma_xy": math.nan}, {"sigma_theta": math.inf}, {"lam": math.inf}],
        ids=["sigma_xy-nan", "sigma_theta-inf", "lam-inf"],
    )
    def test_non_finite_setting(self, seq, capsys, config):
        assert self.track(seq, config=config) == 2
        assert f"error: bad tracker settings: {next(iter(config))} must be finite" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("exponent", [800.0, -1e5, 1e5])
    def test_weighted_exponent_out_of_range(self, seq, capsys, exponent):
        rc = self.track(seq, "--resampler", "weighted", config={"weighted_exponent": exponent})
        assert rc == 2
        assert "weighted_exponent must lie in [-700, 700]" in capsys.readouterr().err

    def test_truth_rows_short_of_the_frames(self, seq, capsys):
        truth = seq / "truth.csv"
        truth.write_text("".join(truth.read_text().splitlines(keepends=True)[:3]))
        assert self.track(seq) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "5 frames" in err

    def test_truth_parts_differ_from_the_object(self, seq, capsys):
        obj = seq / "object.json"
        obj.write_text(json.dumps({**json.loads(obj.read_text()), "arm_count": 3}))
        assert self.track(seq) == 2
        assert "4-part object" in capsys.readouterr().err

    def test_object_json_unknown_field(self, seq, capsys):
        obj = seq / "object.json"
        obj.write_text(json.dumps({**json.loads(obj.read_text()), "arms": 3}))
        assert self.track(seq) == 2
        assert "object.json: bad object description" in capsys.readouterr().err

    def test_truth_row_not_in_triples(self, seq, capsys):
        truth = seq / "truth.csv"
        lines = truth.read_text().splitlines(keepends=True)
        lines[1] = lines[1].rstrip("\n").rsplit(",", 1)[0] + "\n"
        truth.write_text("".join(lines))
        assert self.track(seq) == 2
        err = capsys.readouterr().err
        assert "truth.csv, row 2" in err and "8 values" in err

    def test_truth_frames_reordered(self, seq, capsys):
        truth = seq / "truth.csv"
        truth.write_text("".join(reversed(truth.read_text().splitlines(keepends=True))))
        assert self.track(seq) == 2
        assert "truth.csv, row 1: frame index '5', not 1" in capsys.readouterr().err

    def test_truth_frame_index_not_numeric(self, seq, capsys):
        truth = seq / "truth.csv"
        lines = truth.read_text().splitlines(keepends=True)
        lines[2] = "abc," + lines[2].split(",", 1)[1]
        truth.write_text("".join(lines))
        assert self.track(seq) == 2
        assert "truth.csv, row 3: frame index 'abc', not 3" in capsys.readouterr().err

    def test_truth_value_not_numeric(self, seq, capsys):
        truth = seq / "truth.csv"
        lines = truth.read_text().splitlines(keepends=True)
        lines[3] = "4,abc," + lines[3].split(",", 2)[2]  # x of part 1 on frame 4
        truth.write_text("".join(lines))
        assert self.track(seq) == 2
        err = capsys.readouterr().err
        assert "truth.csv, row 4" in err and "abc" in err

    @pytest.mark.parametrize("row, value", [(1, "nan"), (2, "inf"), (3, "-inf")])
    def test_truth_value_not_finite(self, seq, capsys, row, value):
        truth = seq / "truth.csv"
        lines = truth.read_text().splitlines(keepends=True)
        lines[row - 1] = f"{row},{value}," + lines[row - 1].split(",", 2)[2]
        truth.write_text("".join(lines))
        assert self.track(seq) == 2
        err = capsys.readouterr().err
        assert f"truth.csv, row {row}: values must be finite" in err

    def test_config_not_json(self, seq, capsys):
        path = seq / "tracker.json"
        path.write_text("{bad")
        argv = ["track", "--frames", str(seq), "--truth", str(seq / "truth.csv")]
        assert main([*argv, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "tracker.json: not valid JSON" in err and "line 1" in err

    def test_unknown_tracker_setting(self, seq, capsys):
        assert self.track(seq, config={"lamda": 10.0}) == 2
        assert "unknown tracker setting 'lamda'" in capsys.readouterr().err

    def test_truth_file_missing(self, seq, capsys):
        argv = ["track", "--frames", str(seq), "--truth", str(seq / "nothere.csv")]
        assert main(argv) == 2
        assert "nothere.csv: cannot read" in capsys.readouterr().err

    def test_frame_truncated(self, seq, capsys):
        frame = seq / "frame_0003.pgm"
        frame.write_bytes(frame.read_bytes()[:40])
        assert self.track(seq) == 2
        err = capsys.readouterr().err
        assert "frame_0003.pgm: truncated pixel data" in err

    def test_frame_of_the_wrong_size(self, seq, capsys):
        write_pgm(seq / "frame_0003.pgm", np.zeros((10, 10), dtype=np.uint8))
        assert self.track(seq) == 2
        err = capsys.readouterr().err
        assert "frame_0003.pgm: frame is 10x10, the sequence is 64x48" in err

    def test_frame_sample_above_maxval(self, seq, capsys):
        frame = seq / "frame_0002.pgm"
        pixels = np.random.default_rng(0).integers(0, 256, 64 * 48, dtype=np.uint8)
        frame.write_bytes(b"P5\n64 48\n100\n" + pixels.tobytes())
        assert self.track(seq) == 2
        assert "frame_0002.pgm: sample 255 above maxval 100" in capsys.readouterr().err

    def test_fewer_frames_than_object_json(self, seq, capsys):
        for name in ("frame_0004.pgm", "frame_0005.pgm"):
            (seq / name).unlink()
        truth = seq / "truth.csv"
        truth.write_text("".join(truth.read_text().splitlines(keepends=True)[:3]))
        assert self.track(seq) == 2
        assert "3 .pgm frames, but object.json gives frame_count 5" in capsys.readouterr().err

    def test_frame_header_garbled(self, seq, capsys):
        frame = seq / "frame_0002.pgm"
        frame.write_bytes(frame.read_bytes().replace(b"P5\n64", b"P5\n6x", 1))
        assert self.track(seq) == 2
        err = capsys.readouterr().err
        assert "frame_0002.pgm: bad header field b'6x'" in err

    def test_plot_input_missing(self, tmp_path, capsys):
        rc = main(["plot", "--in", str(tmp_path / "nothere.csv"), "--out", str(tmp_path / "p.svg")])
        assert rc == 2
        assert "nothere.csv: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "p.svg").exists()

    def test_plot_input_not_numeric(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        write_results_csv(fake_report(), path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[2] = "many"  # the particle count of the second row
        lines[2] = ",".join(fields)
        path.write_text("".join(lines))
        rc = main(["plot", "--in", str(path), "--out", str(tmp_path / "p.svg")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "results.csv, row 3" in err and "many" in err

    def test_bench_config_not_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("crtrack.harness.track_sequence", self.no_tracking)
        path = tmp_path / "bench.json"
        path.write_text('{"objects": [}')
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        assert "bench.json: not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_bench_output_directory_missing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("crtrack.harness.simulate_sequence", self.no_tracking)
        monkeypatch.setattr("crtrack.harness.track_sequence", self.no_tracking)
        out = tmp_path / "missing" / "r.csv"
        assert main(["bench", "--out", str(out)]) == 2
        assert f"{out}: output directory {out.parent} is missing" in capsys.readouterr().err

    def test_bench_output_is_a_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("crtrack.harness.simulate_sequence", self.no_tracking)
        assert main(["bench", "--out", str(tmp_path)]) == 2
        assert "output path is a directory" in capsys.readouterr().err

    def test_bench_failed_write_names_the_file(self, tmp_path, capsys, monkeypatch):
        def full_disk(report, path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr("crtrack.cli.write_results_csv", full_disk)
        cfg = tiny_config(resamplers=["systematic"], particles=[3], runs=1)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
        assert f"error: {out}: cannot write: No space left on device" in capsys.readouterr().err

    def test_track_output_directory_missing(self, seq, capsys):
        out = seq / "missing" / "estimates.csv"
        assert self.track(seq, "--out", str(out)) == 2
        assert f"{out}: output directory" in capsys.readouterr().err

    def test_generate_output_directory_cannot_be_made(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("crtrack.harness.simulate_sequence", self.no_tracking)
        blocker = tmp_path / "file.txt"
        blocker.write_text("")
        assert main(["generate", "--out", str(blocker / "seq")]) == 2
        assert "file.txt/seq: cannot write" in capsys.readouterr().err

    def test_plot_output_directory_missing(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        write_results_csv(fake_report(), path)
        out = tmp_path / "missing" / "p.svg"
        assert main(["plot", "--in", str(path), "--out", str(out)]) == 2
        assert f"{out}: output directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--part-length", "-3"], ["--part-width", "0"], ["--sigma-xy", "-1"], ["--width", "20"]],
        ids=["part-length", "part-width", "sigma-xy", "width"],
    )
    def test_generate_bad_object_size(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.setattr("crtrack.harness.simulate_sequence", self.no_tracking)
        assert main(["generate", "--out", str(tmp_path / "seq"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flags[0][2:].replace("-", "_") in err
        assert not (tmp_path / "seq").exists()

    @pytest.mark.parametrize(
        "field, value", [("arm_count", 2.5), ("part_length", -1)], ids=["arm_count", "part_length"]
    )
    def test_object_json_bad_field(self, seq, capsys, field, value):
        obj = seq / "object.json"
        obj.write_text(json.dumps({**json.loads(obj.read_text()), field: value}))
        assert self.track(seq) == 2
        err = capsys.readouterr().err
        assert "object.json: bad object description" in err and field in err

    @pytest.mark.parametrize(
        "bad",
        [
            dict(objects=[{**dataclasses.asdict(tiny_spec()), "width": 64.5}]),
            dict(objects=[{**dataclasses.asdict(tiny_spec()), "part_length": 0}]),
            dict(seed=-1),
            dict(particles=[5.5]),
            dict(objects=[{**dataclasses.asdict(tiny_spec()), "name": n} for n in (None, "a")]),
        ],
        ids=["width", "part_length", "seed", "particles", "name"],
    )
    def test_bench_bad_config_values(self, tmp_path, capsys, monkeypatch, bad):
        monkeypatch.setattr("crtrack.harness.simulate_sequence", self.no_tracking)
        monkeypatch.setattr("crtrack.harness.track_sequence", self.no_tracking)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(tiny_config(**bad)))
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(path), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name", ["truth.csv", "object.json", "frame_0002.pgm", "tracker.json"]
    )
    def test_track_output_is_one_of_its_inputs(self, seq, capsys, name):
        (seq / "tracker.json").write_text("{}")
        before = (seq / name).read_bytes()
        argv = ["--config", str(seq / "tracker.json"), "--out", str(seq / name)]
        assert self.track(seq, *argv) == 2
        assert "output would overwrite the input" in capsys.readouterr().err
        assert (seq / name).read_bytes() == before

    @pytest.mark.parametrize("out", ["est.pgm", "frame_0006.pgm", "../seq/est.pgm"])
    def test_track_output_is_a_new_frame_of_its_frames_directory(self, seq, capsys, out):
        # a .pgm written there would be read as a frame by every later track
        assert self.track(seq, "--out", str(seq / out)) == 2
        assert "would be read as a frame" in capsys.readouterr().err
        frames = [f"frame_{t:04d}.pgm" for t in range(1, 6)]
        assert sorted(p.name for p in seq.glob("*.pgm")) == frames

    def test_bench_output_is_its_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("crtrack.harness.simulate_sequence", self.no_tracking)
        monkeypatch.setattr("crtrack.harness.track_sequence", self.no_tracking)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(tiny_config()))
        before = path.read_text()
        assert main(["bench", "--config", str(path), "--out", str(path)]) == 2
        assert "bench.json: output would overwrite the input" in capsys.readouterr().err
        assert path.read_text() == before

    def test_plot_output_is_its_input(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        write_results_csv(fake_report(), path)
        before = path.read_text()
        assert main(["plot", "--in", str(path), "--out", str(path)]) == 2
        assert "results.csv: output would overwrite the input" in capsys.readouterr().err
        assert path.read_text() == before

    @pytest.mark.parametrize("flags", [["--paper-scale"], ["--seed", "3"]], ids=["paper-scale", "seed"])
    def test_bench_config_with_a_default_matrix_flag(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.setattr("crtrack.harness.simulate_sequence", self.no_tracking)
        monkeypatch.setattr("crtrack.harness.track_sequence", self.no_tracking)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "r.csv"
        assert main(["bench", "--config", str(path), "--out", str(out), *flags]) == 2
        assert "--config sets its own" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("objects", dataclasses.asdict(tiny_spec())), ("resamplers", "systematic"), ("particles", "50")],
        ids=["objects", "resamplers", "particles"],
    )
    def test_bench_list_field_given_as_a_scalar(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.setattr("crtrack.harness.simulate_sequence", self.no_tracking)
        monkeypatch.setattr("crtrack.harness.track_sequence", self.no_tracking)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(tiny_config(**{key: value})))
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        assert f"error: {key} must be a list" in capsys.readouterr().err

    def test_generate_into_a_directory_with_frames(self, tmp_path, capsys, monkeypatch):
        seq = tmp_path / "seq"
        assert main(["generate", "--out", str(seq), "--frames", "4", "--width", "32", "--height", "24"]) == 0
        monkeypatch.setattr("crtrack.harness.simulate_sequence", self.no_tracking)
        assert main(["generate", "--out", str(seq), "--frames", "2"]) == 2
        assert "seq: already holds .pgm frames" in capsys.readouterr().err
        assert len(list(seq.glob("*.pgm"))) == 4
        assert json.loads((seq / "object.json").read_text())["frame_count"] == 4
