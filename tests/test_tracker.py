import logging
import math

import numpy as np
import pytest

from crtrack.dbn import DbnSpec, compute_partition
from crtrack.geometry import ArticulatedModel, default_pose, render_frame
from crtrack.likelihood import init_references
from crtrack.resampling import ParticleSet, initial_particle_set
from crtrack.tracker import (
    RESAMPLER_NAMES,
    AlreadyProcessed,
    NotFullyProcessed,
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
        assert cfg.partition_mode == "parallel"
        assert cfg.lam == 50.0

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
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            TrackerConfig(**kw)

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
        pset = initial_particle_set(5, pose)
        pset.processed = frozenset()
        before = pset.states.copy()
        cfg = cfg_for(model, sigma_xy=1.0, sigma_theta=0.1)
        propagate_part(pset, 2, cfg, propagate_rng(0, 1, 2))
        changed = pset.states != before
        assert changed[:, 1].any()
        np.testing.assert_array_equal(pset.states[:, [0, 2, 3, 4]], before[:, [0, 2, 3, 4]])
        assert pset.processed == {2}

    def test_zero_noise_is_bit_identical(self):
        model, pose, _, _ = small_scene()
        pset = initial_particle_set(4, pose)
        pset.processed = frozenset()
        before = pset.states.copy()
        cfg = cfg_for(model, sigma_xy=0.0, sigma_theta=0.0)
        propagate_part(pset, 1, cfg, propagate_rng(0, 1, 1))
        np.testing.assert_array_equal(pset.states, before)

    def test_theta_stays_wrapped(self):
        model, pose, _, _ = small_scene()
        pose = pose.copy()
        pose[:, 2] = math.pi - 1e-3
        pset = initial_particle_set(64, pose)
        pset.processed = frozenset()
        cfg = cfg_for(model, sigma_xy=0.0, sigma_theta=0.5)
        propagate_part(pset, 1, cfg, propagate_rng(3, 1, 1))
        theta = pset.states[:, 0, 2]
        assert (theta >= -math.pi).all() and (theta < math.pi).all()

    def test_double_propagate_raises(self):
        model, pose, _, _ = small_scene()
        pset = initial_particle_set(3, pose)
        pset.processed = frozenset()
        cfg = cfg_for(model)
        propagate_part(pset, 1, cfg, propagate_rng(0, 1, 1))
        with pytest.raises(AlreadyProcessed):
            propagate_part(pset, 1, cfg, propagate_rng(0, 1, 1))

    def test_stream_is_keyed_by_seed_frame_part(self):
        model, pose, _, _ = small_scene()
        cfg = cfg_for(model)

        def run(seed, frame_index, k):
            pset = initial_particle_set(5, pose)
            pset.processed = frozenset()
            propagate_part(pset, k, cfg, propagate_rng(seed, frame_index, k))
            return pset.states.copy()

        np.testing.assert_array_equal(run(0, 1, 2), run(0, 1, 2))
        assert (run(0, 1, 2) != run(0, 2, 2)).any()
        assert (run(0, 1, 2) != run(1, 1, 2)).any()


class TestCorrect:
    def prepared(self, n=5, sigma=1.5):
        model, pose, frame, refs = small_scene()
        pset = initial_particle_set(n, pose)
        pset.processed = frozenset()
        pset.fresh = ()
        pset.stage_base = None
        cfg = cfg_for(model, sigma_xy=sigma, sigma_theta=0.05)
        return model, pose, frame, refs, pset, cfg

    def test_requires_propagation_first(self):
        model, _, frame, refs, pset, cfg = self.prepared()
        with pytest.raises(AlreadyProcessed):
            correct_part(pset, 1, frame, refs, model, cfg)

    def test_double_correct_raises(self):
        model, _, frame, refs, pset, cfg = self.prepared()
        propagate_part(pset, 1, cfg, propagate_rng(0, 1, 1))
        correct_part(pset, 1, frame, refs, model, cfg)
        with pytest.raises(AlreadyProcessed):
            correct_part(pset, 1, frame, refs, model, cfg)

    def test_perfect_particle_scores_factor_one(self):
        model, _, frame, refs, pset, _ = self.prepared(n=3)
        cfg = cfg_for(model, particle_count=3, sigma_xy=0.0, sigma_theta=0.0)
        propagate_part(pset, 1, cfg, propagate_rng(0, 1, 1))
        correct_part(pset, 1, frame, refs, model, cfg)
        np.testing.assert_array_equal(pset.part_weights[:, 0], 1.0)
        np.testing.assert_allclose(pset.weights, 1.0 / 3.0)

    def test_weights_stay_normalized(self):
        model, _, frame, refs, pset, cfg = self.prepared(n=8)
        for k in (1, 2, 4):
            propagate_part(pset, k, cfg, propagate_rng(0, 1, k))
            correct_part(pset, k, frame, refs, model, cfg)
            assert abs(pset.weights.sum() - 1.0) < 1e-12

    def test_correction_order_cannot_change_weights(self):
        model, _, frame, refs, base, cfg = self.prepared(n=7)
        propagate_part(base, 2, cfg, propagate_rng(0, 1, 2))
        propagate_part(base, 4, cfg, propagate_rng(0, 1, 4))

        forward = base.copy()
        correct_part(forward, 2, frame, refs, model, cfg)
        correct_part(forward, 4, frame, refs, model, cfg)

        backward = base.copy()
        correct_part(backward, 4, frame, refs, model, cfg)
        correct_part(backward, 2, frame, refs, model, cfg)

        np.testing.assert_array_equal(forward.weights, backward.weights)
        np.testing.assert_array_equal(forward.part_weights, backward.part_weights)

    def test_total_underflow_falls_back_to_uniform(self, caplog):
        model, _, frame, refs, pset, cfg = self.prepared(n=4)
        cfg = TrackerConfig(particle_count=4, lam=1e9, sigma_xy=25.0, seed=5)
        propagate_part(pset, 1, cfg, propagate_rng(5, 1, 1))
        pset.states[:, 0, :2] += 500.0  # move everyone far off canvas
        with caplog.at_level(logging.WARNING, logger="crtrack.tracker"):
            correct_part(pset, 1, frame, refs, model, cfg)
        np.testing.assert_array_equal(pset.weights, 0.25)
        assert any("uniform" in rec.message for rec in caplog.records)


class TestPsStep:
    def run_step(self, resampler, mode, spec=None):
        model, pose, frame, refs = small_scene(spec)
        cfg = TrackerConfig(particle_count=8, resampler=resampler, partition_mode=mode, seed=2)
        partition = partition_for(model.spec, mode)
        pset = initial_particle_set(8, pose)
        return ps_step(pset, frame, partition, model, refs, cfg, 1)

    def test_parallel_invocations_equal_level_count(self):
        _, stats = self.run_step("systematic", "parallel")
        assert stats.resample_invocations == 3

    def test_singleton_invocations_equal_part_count(self):
        _, stats = self.run_step("systematic", "singleton")
        assert stats.resample_invocations == 5

    def test_parallel_saves_resamples_on_branching_trees(self):
        spec = DbnSpec.star(2, 2)
        k = partition_for(spec, "parallel").num_steps
        p = partition_for(spec, "singleton").num_steps
        assert k < p

    @pytest.mark.parametrize("name", RESAMPLER_NAMES)
    def test_every_resampler_completes_a_frame(self, name):
        mode = "parallel"
        pset, stats = self.run_step(name, mode)
        assert pset.processed == frozenset(range(1, 6))
        np.testing.assert_array_equal(pset.weights, 1.0 / 8.0)
        assert stats.resample_seconds >= 0.0

    def test_step_is_deterministic(self):
        a, _ = self.run_step("combinatorial", "parallel")
        b, _ = self.run_step("combinatorial", "parallel")
        np.testing.assert_array_equal(a.states, b.states)


class TestEstimate:
    def test_requires_all_parts_processed(self):
        model, pose, _, _ = small_scene()
        pset = initial_particle_set(4, pose)
        pset.processed = frozenset({1, 2})
        with pytest.raises(NotFullyProcessed):
            estimate(pset)

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
            processed=frozenset({1}),
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
            processed=frozenset({1}),
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
        cfg = TrackerConfig(particle_count=4, seed=1)
        result = track_sequence(frames, pose, model, cfg)
        assert result.estimates.shape == (5, model.part_count, 3)
        assert result.errors is None
        assert result.mean_error is None
        assert result.resample_invocations == 3 * 4
        assert result.total_seconds >= result.resample_seconds >= 0.0

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
