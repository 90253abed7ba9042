import logging
import math
import re

import numpy as np
import pytest

from crtrack import tracker
from crtrack.dbn import DbnSpec, Partition, compute_partition
from crtrack.geometry import (
    ArticulatedModel,
    default_pose,
    place_polygons,
    polygon_bboxes,
    render_frame,
)
from crtrack.likelihood import WINDOW_CELLS, init_references, part_factors
from crtrack.resampling import ParticleSet, initial_particle_set
from crtrack.tracker import (
    RESAMPLER_NAMES,
    TrackerConfig,
    correct_part,
    estimate,
    partition_for,
    propagate_part,
    propagate_rng,
    ps_step,
    track_sequence,
)


def small_scene(spec=None, width=80, height=60):
    spec = spec or DbnSpec.star(2, 2)
    model = ArticulatedModel.uniform(spec, length=10.0, width=4.0)
    pose = default_pose(model, (width / 2.0, height / 2.0))
    frame = render_frame(model, pose, width, height)
    refs = init_references(frame, model, pose)
    return model, pose, frame, refs


def cfg_for(model, **kw):
    kw.setdefault("particle_count", 6)
    return TrackerConfig(**kw)


class TestConfig:
    def test_defaults(self):
        cfg = TrackerConfig(particle_count=10)
        assert cfg.resampler == "systematic"
        # classical schemes run partitioned sampling one part per step
        assert cfg.partition_mode == "singleton"
        assert cfg.lam == 50.0
        combinatorial = TrackerConfig(particle_count=10, resampler="combinatorial")
        assert combinatorial.partition_mode == "parallel"

    @pytest.mark.parametrize(
        "kw",
        [
            dict(particle_count=0),
            dict(particle_count=5, sigma_xy=-0.1),
            dict(particle_count=5, sigma_theta=-0.1),
            dict(particle_count=5, resampler="bogus"),
            dict(particle_count=5, partition_mode="bogus"),
            dict(particle_count=5, seed=-1),
            dict(particle_count=5, lam=-1.0),
            dict(particle_count=5, sigma_xy=math.nan),
            dict(particle_count=5, sigma_xy=math.inf),
            dict(particle_count=5, sigma_theta=math.inf),
            dict(particle_count=5, sigma_theta=math.nan),
            dict(particle_count=5, lam=math.inf),
            dict(particle_count=5, lam=math.nan),
            dict(particle_count=5, weighted_exponent=math.inf),
            dict(particle_count=5, weighted_exponent=-math.inf),
            dict(particle_count=5, weighted_exponent=math.nan),
            dict(particle_count=5, weighted_exponent=800.0),
            dict(particle_count=5, weighted_exponent=-800.0),
            dict(particle_count=5, weighted_exponent=1e5),
            dict(particle_count=5, weighted_exponent=-1e5),
            dict(particle_count=5.5),
            dict(particle_count=True),
            dict(particle_count="5"),
            dict(particle_count=5, seed=1.5),
            dict(particle_count=5, seed=True),
            dict(particle_count=5, lam="50"),
            dict(particle_count=5, sigma_xy=True),
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            TrackerConfig(**kw)

    @pytest.mark.parametrize("exponent", [700.0, -700.0])
    @pytest.mark.parametrize("n", [5, 100, 400])
    def test_weighted_exponent_at_the_bound_tracks(self, exponent, n):
        model, pose, frame, refs = small_scene()
        cfg = TrackerConfig(
            particle_count=n, resampler="weighted", weighted_exponent=exponent, sigma_xy=2.0
        )
        partition = partition_for(model.spec, cfg.partition_mode)
        pset, _ = ps_step(initial_particle_set(n, pose), frame, partition, model, refs, cfg, 1)
        assert np.isfinite(pset.states).all() and np.isfinite(pset.weights).all()

    def test_combinatorial_needs_parallel_partition(self):
        with pytest.raises(ValueError, match="parallel"):
            TrackerConfig(particle_count=5, resampler="combinatorial", partition_mode="singleton")
        TrackerConfig(particle_count=5, resampler="combinatorial", partition_mode="parallel")

    def test_resampler_names_frozen(self):
        assert RESAMPLER_NAMES == (
            "multinomial",
            "stratified",
            "systematic",
            "residual",
            "weighted",
            "combinatorial",
        )


class TestPartitionFor:
    def test_parallel_is_the_level_partition(self):
        spec = DbnSpec.star(2, 2)
        assert partition_for(spec, "parallel") is compute_partition(spec)

    def test_singleton_flattens_levels_in_order(self):
        spec = DbnSpec.star(2, 2)
        singleton = partition_for(spec, "singleton")
        assert singleton.steps == ((1,), (2,), (4,), (3,), (5,))
        assert singleton.num_steps == spec.part_count

    def test_chain_modes_agree(self):
        spec = DbnSpec.chain(4)
        assert partition_for(spec, "singleton").steps == partition_for(spec, "parallel").steps


class TestPropagate:
    def test_moves_only_the_given_part(self):
        model, pose, _, _ = small_scene()
        states = initial_particle_set(5, pose).states
        before = states.copy()
        cfg = cfg_for(model, sigma_xy=1.0, sigma_theta=0.1)
        propagate_part(states, 2, cfg, propagate_rng(0, 1, 2))
        changed = states != before
        assert changed[:, 1].any()
        np.testing.assert_array_equal(states[:, [0, 2, 3, 4]], before[:, [0, 2, 3, 4]])

    def test_zero_noise_is_bit_identical(self):
        model, pose, _, _ = small_scene()
        states = initial_particle_set(4, pose).states
        before = states.copy()
        cfg = cfg_for(model, sigma_xy=0.0, sigma_theta=0.0)
        propagate_part(states, 1, cfg, propagate_rng(0, 1, 1))
        np.testing.assert_array_equal(states, before)

    def test_theta_stays_wrapped(self):
        model, pose, _, _ = small_scene()
        pose = pose.copy()
        pose[:, 2] = math.pi - 1e-3
        states = initial_particle_set(64, pose).states
        cfg = cfg_for(model, sigma_xy=0.0, sigma_theta=0.5)
        propagate_part(states, 1, cfg, propagate_rng(3, 1, 1))
        theta = states[:, 0, 2]
        assert (theta >= -math.pi).all() and (theta < math.pi).all()

    def test_stream_is_keyed_by_seed_frame_part(self):
        model, pose, _, _ = small_scene()
        cfg = cfg_for(model)

        def run(seed, frame_index, k):
            states = initial_particle_set(5, pose).states
            propagate_part(states, 2, cfg, propagate_rng(seed, frame_index, k))
            return states

        np.testing.assert_array_equal(run(0, 1, 2), run(0, 1, 2))
        assert (run(0, 1, 2) != run(0, 2, 2)).any()
        assert (run(0, 1, 2) != run(1, 1, 2)).any()
        assert (run(0, 1, 2) != run(0, 1, 4)).any()


def capture_resampler_inputs(monkeypatch, name="systematic"):
    """Record a copy of every set handed to the named resampler."""
    seen = []
    attr = f"{name}_resample"
    original = getattr(tracker, attr)

    def recording(pset, *args):
        seen.append(pset.copy())
        return original(pset, *args)

    monkeypatch.setattr(tracker, attr, recording)
    return seen


def count_resampler_calls(monkeypatch):
    """Wrap the systematic and combinatorial resamplers by name, as the
    benchmark tracer swaps them, and count their calls."""
    calls = {"systematic": 0, "combinatorial": 0}
    for name in calls:
        original = getattr(tracker, f"{name}_resample")

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(tracker, f"{name}_resample", counting)
    return calls


class TestCorrect:
    """Scoring and the per-stage weight update inside ``ps_step``."""

    def stage_inputs(self, n=8, sigma=1.5, seed=0):
        model, pose, frame, refs = small_scene()
        cfg = TrackerConfig(particle_count=n, sigma_xy=sigma, sigma_theta=0.05, seed=seed)
        return model, frame, refs, initial_particle_set(n, pose), cfg

    def test_perfect_particle_scores_factor_one(self):
        model, pose, frame, refs = small_scene()
        states = initial_particle_set(3, pose).states
        cfg = cfg_for(model, particle_count=3)
        np.testing.assert_array_equal(correct_part(states, (1,), frame, refs, model, cfg), 1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_stage_scoring_matches_per_part_scoring(self, seed):
        """Column j of one stage's ``correct_part`` is ``part_factors`` of
        part parts[j] alone, bit for bit: parts of unequal size share one
        window, placements lie off the canvas and across its border, and a
        stage's batch splits over ``WINDOW_CELLS`` where one part's does not."""
        rng = np.random.default_rng(seed)
        spec = DbnSpec.star(4, 3)
        model = ArticulatedModel(
            spec, tuple(rng.uniform(8.0, 40.0, 13)), tuple(rng.uniform(3.0, 14.0, 13))
        )
        width, height, n = 200, 160, 120
        pose = default_pose(model, (width / 2.0, height / 2.0))
        frame = render_frame(model, pose, width, height)
        refs = init_references(frame, model, pose)
        states = np.repeat(pose[None], n, axis=0)
        states[:, :, :2] += rng.uniform(-110.0, 110.0, (n, 13, 2))
        states[:, :, 2] = rng.uniform(-math.pi, math.pi, (n, 13))
        cfg = TrackerConfig(particle_count=n)
        for parts in compute_partition(spec).steps:
            got = correct_part(states, parts, frame, refs, model, cfg)
            assert got.shape == (n, len(parts))
            for j, k in enumerate(parts):
                corners = place_polygons(model, k, states[:, k - 1])
                want = part_factors(frame, corners, refs[k - 1], cfg.lam)
                np.testing.assert_array_equal(got[:, j].view(np.int64), want.view(np.int64))
        stage = compute_partition(spec).steps[1]
        corners = np.concatenate([place_polygons(model, k, states[:, k - 1]) for k in stage])
        x0, y0, nx, ny = polygon_bboxes(corners, width, height)
        assert len(set(model.lengths[k - 1] for k in stage)) == len(stage)
        assert (nx * ny == 0).any()  # off the canvas
        assert ((corners.min(axis=1) < 0) & (nx * ny > 0)[:, None]).any()  # across the border
        per_batch = WINDOW_CELLS // (nx.max() * ny.max())
        assert n <= per_batch < len(corners)

    def test_one_placement_call_places_every_part_at_its_own_size(self, monkeypatch):
        """The (S, N, 4, 2) corners that one stage's ``correct_part`` scores
        are per-part ``place_polygons`` stacked part-major, and its factors
        are per-part ``part_factors``, bit for bit, when no two parts share
        a length or a width."""
        spec = DbnSpec.star(3, 2)
        lengths = (9.0, 11.5, 14.0, 7.25, 16.5, 12.75, 10.25)
        widths = (4.0, 3.5, 5.25, 6.0, 2.75, 4.5, 3.0)
        model = ArticulatedModel(spec, lengths, widths)
        width, height, n = 120, 100, 30
        pose = default_pose(model, (width / 2.0, height / 2.0))
        frame = render_frame(model, pose, width, height)
        refs = init_references(frame, model, pose)
        rng = np.random.default_rng(5)
        states = np.repeat(pose[None], n, axis=0)
        states[:, :, :2] += rng.normal(0.0, 3.0, (n, 7, 2))
        states[:, :, 2] += rng.normal(0.0, 0.3, (n, 7))
        scored = []
        original = tracker.part_factors

        def recording(image, corners, *args):
            scored.append(corners)
            return original(image, corners, *args)

        monkeypatch.setattr(tracker, "part_factors", recording)
        cfg = TrackerConfig(particle_count=n)
        for parts in compute_partition(spec).steps:
            got = correct_part(states, parts, frame, refs, model, cfg)
            want = np.stack([place_polygons(model, k, states[:, k - 1]) for k in parts])
            np.testing.assert_array_equal(scored.pop().view(np.int64), want.view(np.int64))
            for j, k in enumerate(parts):
                factors = part_factors(frame, want[j], refs[k - 1], cfg.lam)
                np.testing.assert_array_equal(got[:, j].view(np.int64), factors.view(np.int64))
        assert len(set(lengths)) == len(set(widths)) == 7

    def test_one_scoring_call_per_stage(self, monkeypatch):
        calls = []
        original = tracker.correct_part

        def counting(states, parts, *args):
            calls.append(parts)
            return original(states, parts, *args)

        monkeypatch.setattr(tracker, "correct_part", counting)
        spec = DbnSpec.star(4, 3)
        model, pose, frame, refs = small_scene(spec, width=160, height=128)
        cfg = TrackerConfig(particle_count=8, resampler="combinatorial")
        partition = partition_for(spec, "parallel")
        ps_step(initial_particle_set(8, pose), frame, partition, model, refs, cfg, 1)
        assert partition.num_steps == 4
        assert calls == [tuple(sorted(step)) for step in partition.steps]

    def test_weights_stay_normalized(self, monkeypatch):
        seen = capture_resampler_inputs(monkeypatch)
        model, frame, refs, pset, cfg = self.stage_inputs()
        partition = partition_for(model.spec, "parallel")
        ps_step(pset, frame, partition, model, refs, cfg, 1)
        assert [s.fresh for s in seen] == list(partition.steps)
        for s in seen:
            assert abs(s.weights.sum() - 1.0) < 1e-12
            # one normalization of the uniform start times the stage's factors
            w = np.full(s.n, 1.0 / s.n)
            for k in s.fresh:
                w = w * s.part_weights[:, k - 1]
            np.testing.assert_array_equal(s.weights, w / w.sum())
            assert (s.weights != s.weights[0]).any()

    @pytest.mark.parametrize("n", [7, 10, 33])
    def test_factor_columns_multiply_one_at_a_time(self, monkeypatch, n):
        """The stage's weights are ((w * f_a) * f_b) * ... in ascending part
        order, bit for bit; a 1/n that is not a power of two makes another
        association (``np.prod`` over the columns first) round differently."""
        seen = capture_resampler_inputs(monkeypatch)
        model, frame, refs, pset, cfg = self.stage_inputs(n=n, sigma=3.0)
        ps_step(pset, frame, partition_for(model.spec, "parallel"), model, refs, cfg, 1)
        for s in seen:
            w = np.full(n, 1.0 / n)
            for k in sorted(s.fresh):
                w = w * s.part_weights[:, k - 1]
            np.testing.assert_array_equal(s.weights.view(np.int64), (w / w.sum()).view(np.int64))

    def test_correction_order_cannot_change_weights(self, monkeypatch):
        seen = capture_resampler_inputs(monkeypatch)
        model, frame, refs, pset, cfg = self.stage_inputs(n=7)
        ascending = partition_for(model.spec, "parallel")
        assert ascending.steps[1] == (2, 4)
        descending = Partition(tuple(tuple(reversed(step)) for step in ascending.steps))

        forward, _ = ps_step(pset.copy(), frame, ascending, model, refs, cfg, 1)
        backward, _ = ps_step(pset.copy(), frame, descending, model, refs, cfg, 1)

        np.testing.assert_array_equal(forward.states, backward.states)
        np.testing.assert_array_equal(forward.weights, backward.weights)
        stages = ascending.num_steps
        assert len(seen) == 2 * stages
        for a, b in zip(seen[:stages], seen[stages:]):
            assert a.fresh == b.fresh
            np.testing.assert_array_equal(a.states, b.states)
            np.testing.assert_array_equal(a.part_weights, b.part_weights)
            np.testing.assert_array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("resampler", RESAMPLER_NAMES)
    def test_total_underflow_falls_back_to_uniform(self, resampler, monkeypatch, caplog):
        seen = capture_resampler_inputs(monkeypatch, resampler)
        model, frame, refs, pset, _ = self.stage_inputs(n=4, seed=5)
        cfg = TrackerConfig(particle_count=4, resampler=resampler, lam=1e9, sigma_xy=25.0, seed=5)
        dark = np.zeros_like(frame)  # no particle matches its reference on a blank frame
        partition = partition_for(model.spec, "parallel")
        with caplog.at_level(logging.WARNING, logger="crtrack.tracker"):
            ps_step(pset, dark, partition, model, refs, cfg, 1)
        assert len(seen) == partition.num_steps
        for s in seen:
            np.testing.assert_array_equal(s.part_weights[:, [k - 1 for k in s.fresh]], 1.0)
            np.testing.assert_array_equal(s.weights, 0.25)
        resets = [rec for rec in caplog.records if "uniform" in rec.message]
        assert len(resets) == partition.num_steps  # one per stage, not one per part


class TestPsStep:
    def run_step(self, resampler, mode, spec=None):
        model, pose, frame, refs = small_scene(spec)
        cfg = TrackerConfig(particle_count=8, resampler=resampler, partition_mode=mode, seed=2)
        partition = partition_for(model.spec, mode)
        pset = initial_particle_set(8, pose)
        return ps_step(pset, frame, partition, model, refs, cfg, 1)

    def test_parallel_invocations_equal_level_count(self, monkeypatch):
        calls = count_resampler_calls(monkeypatch)
        self.run_step("systematic", "parallel")
        assert calls == {"systematic": 3, "combinatorial": 0}
        self.run_step("combinatorial", "parallel")
        assert calls == {"systematic": 3, "combinatorial": 3}

    def test_singleton_invocations_equal_part_count(self, monkeypatch):
        calls = count_resampler_calls(monkeypatch)
        self.run_step("systematic", "singleton")
        assert calls == {"systematic": 5, "combinatorial": 0}

    def test_parallel_saves_resamples_on_branching_trees(self):
        spec = DbnSpec.star(2, 2)
        k = partition_for(spec, "parallel").num_steps
        p = partition_for(spec, "singleton").num_steps
        assert k < p

    @pytest.mark.parametrize("name", RESAMPLER_NAMES)
    def test_every_resampler_completes_a_frame(self, name):
        mode = "parallel"
        pset, seconds = self.run_step(name, mode)
        assert pset.fresh == ()
        np.testing.assert_array_equal(pset.weights, 1.0 / 8.0)
        assert seconds >= 0.0

    def test_step_is_deterministic(self):
        a, _ = self.run_step("combinatorial", "parallel")
        b, _ = self.run_step("combinatorial", "parallel")
        np.testing.assert_array_equal(a.states, b.states)


class TestEstimate:
    def test_identical_particles_estimate_their_state_bitwise(self):
        model, pose, _, _ = small_scene()
        pset = initial_particle_set(9, pose)
        np.testing.assert_array_equal(estimate(pset), pose)

    def test_weighted_mean_of_positions(self):
        spec = DbnSpec.chain(1)
        states = np.zeros((2, 1, 3))
        states[0, 0] = (0.0, 10.0, 0.0)
        states[1, 0] = (4.0, 18.0, 0.0)
        pset = ParticleSet(
            states=states,
            part_weights=np.ones((2, 1)),
            weights=np.array([0.75, 0.25]),
        )
        est = estimate(pset)
        np.testing.assert_allclose(est[0, :2], (1.0, 12.0))

    def test_circular_mean_across_the_wrap(self):
        states = np.zeros((2, 1, 3))
        states[0, 0, 2] = math.pi - 0.1
        states[1, 0, 2] = -math.pi + 0.1
        pset = ParticleSet(
            states=states,
            part_weights=np.ones((2, 1)),
            weights=np.array([0.5, 0.5]),
        )
        theta = estimate(pset)[0, 2]
        assert abs(abs(theta) - math.pi) < 1e-12


class TestTrackSequence:
    def static_sequence(self, frames=4, spec=None):
        model, pose, frame, _ = small_scene(spec)
        return model, pose, [frame] * frames

    def test_needs_at_least_one_frame(self):
        model, pose, _ = self.static_sequence()
        with pytest.raises(ValueError):
            track_sequence([], pose, model, TrackerConfig(particle_count=3))

    def test_truth_shape_mismatch(self):
        model, pose, frames = self.static_sequence()
        truth = np.zeros((2, model.part_count, 3))
        with pytest.raises(ValueError):
            track_sequence(frames, pose, model, TrackerConfig(particle_count=3), truth=truth)

    @pytest.fixture
    def untracked(self, monkeypatch):
        """Fail a test whose input reaches the references or a frame."""

        def fail(*args, **kwargs):
            raise AssertionError("bad input reached the tracker")

        monkeypatch.setattr(tracker, "init_references", fail)
        monkeypatch.setattr(tracker, "ps_step", fail)

    @pytest.mark.parametrize("rows", [4, 6])
    def test_truth_of_the_wrong_length_raises_before_tracking(self, untracked, rows):
        model, pose, frames = self.static_sequence(frames=5)
        truth = np.stack([pose] * rows)
        message = f"ground truth shape {(rows, 5, 3)} != {(5, 5, 3)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            track_sequence(frames, pose, model, TrackerConfig(particle_count=3), truth=truth)

    @pytest.mark.parametrize(
        "cut, shape",
        [(np.s_[:-1], (4, 3)), (np.s_[:, :2], (5, 2)), (np.s_[0], (3,))],
        ids=["part-short", "column-short", "one-row"],
    )
    def test_initial_of_the_wrong_shape_raises_before_tracking(self, untracked, cut, shape):
        model, pose, frames = self.static_sequence(frames=5)
        with pytest.raises(ValueError, match=re.escape(f"initial pose shape {shape} != {(5, 3)}")):
            track_sequence(frames, pose[cut], model, TrackerConfig(particle_count=3))

    @pytest.mark.parametrize(
        "make",
        [
            lambda f: np.where(np.arange(f.shape[1]) < f.shape[1] // 2, 300, f.astype(np.int64)),
            lambda f: f.astype(float),
            lambda f: np.stack([f] * 3, axis=-1),
        ],
        ids=["int64-above-255", "float", "three-channel"],
    )
    def test_frame_that_is_not_2d_uint8_raises_before_tracking(self, untracked, make):
        # the histogram kernel bins uint8 intensities only; frame 2, so every
        # frame is checked before the references are built from frame 0
        model, pose, frames = self.static_sequence(frames=5)
        frames[2] = make(frames[2])
        with pytest.raises(ValueError, match="frame 2 is not a 2-D uint8 array"):
            track_sequence(frames, pose, model, TrackerConfig(particle_count=3))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argument", ["initial pose", "ground truth"])
    def test_a_non_finite_pose_raises_before_tracking(self, untracked, argument, value):
        # a NaN pose would track to the end with NaN estimates and errors
        model, pose, frames = self.static_sequence(frames=5)
        pose, truth = pose.copy(), np.stack([pose] * 5)
        if argument == "initial pose":
            pose[3, 1] = value
        else:
            truth[4, 2, 2] = value
        with pytest.raises(ValueError, match=f"{argument} is not finite"):
            track_sequence(frames, pose, model, TrackerConfig(particle_count=3), truth=truth)

    @pytest.mark.parametrize("name", RESAMPLER_NAMES)
    def test_zero_noise_static_scene_gives_zero_error(self, name):
        model, pose, frames = self.static_sequence()
        truth = np.stack([pose] * len(frames))
        cfg = TrackerConfig(
            particle_count=5, resampler=name, sigma_xy=0.0, sigma_theta=0.0, seed=3
        )
        result = track_sequence(frames, pose, model, cfg, truth=truth)
        np.testing.assert_array_equal(result.errors, 0.0)
        assert result.mean_error == 0.0

    def test_shapes_and_invocation_totals(self):
        model, pose, frames = self.static_sequence(frames=5)
        cfg = TrackerConfig(particle_count=4, partition_mode="parallel", seed=1)
        result = track_sequence(frames, pose, model, cfg)
        assert result.estimates.shape == (5, model.part_count, 3)
        assert result.errors is None
        assert result.mean_error is None
        assert result.resample_invocations == 3 * 4
        assert result.total_seconds >= result.resample_seconds >= 0.0

    @pytest.mark.parametrize(
        "name, mode",
        [("systematic", "singleton"), ("systematic", "parallel"), ("combinatorial", "parallel")],
    )
    def test_invocation_total_counts_real_resampler_calls(self, monkeypatch, name, mode):
        calls = count_resampler_calls(monkeypatch)
        model, pose, frames = self.static_sequence(frames=4)
        cfg = TrackerConfig(particle_count=4, resampler=name, partition_mode=mode, seed=1)
        result = track_sequence(frames, pose, model, cfg)
        assert result.resample_invocations == calls[name] == sum(calls.values()) > 0

    def test_first_estimate_is_the_initial_pose(self):
        model, pose, frames = self.static_sequence()
        cfg = TrackerConfig(particle_count=4, sigma_xy=2.0, seed=8)
        result = track_sequence(frames, pose, model, cfg)
        np.testing.assert_array_equal(result.estimates[0], pose)

    def test_tracking_is_deterministic_in_the_seed(self):
        model, pose, frames = self.static_sequence()
        cfg = TrackerConfig(particle_count=6, sigma_xy=1.0, seed=4)
        a = track_sequence(frames, pose, model, cfg)
        b = track_sequence(frames, pose, model, cfg)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        other = TrackerConfig(particle_count=6, sigma_xy=1.0, seed=5)
        c = track_sequence(frames, pose, model, other)
        assert (c.estimates[1:] != a.estimates[1:]).any()
