"""End-to-end acceptance checks.

Each test covers one acceptance criterion and registers a PASS/FAIL line that
conftest prints in the terminal summary.  Monte Carlo checks use fixed seeds
and documented tolerance budgets; runtime ceilings are asserted where the
criterion carries one.
"""

import dataclasses
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from crtrack.cli import main
from crtrack.dbn import DbnSpec, compute_partition
from crtrack.harness import (
    SequenceSpec,
    build_model,
    generate_sequence,
    load_frames,
    read_results_csv,
    run_benchmark,
    simulate_sequence,
)
from crtrack.resampling import (
    assemble_combinatorial,
    combinatorial_draw,
    group_compatibility,
    group_log_weights,
    multinomial_resample,
    residual_draw,
    residual_resample,
    stratified_resample,
    systematic_draw,
    systematic_resample,
    weighted_resample,
)
from crtrack.tracker import RESAMPLER_NAMES, TrackerConfig, track_sequence

from oracles import (
    group_members,
    random_small_instance,
    reference_rearrangements,
    union_group_masses,
    union_particle_law,
)

RESULTS: dict[int, tuple[str, str]] = {}


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        RESULTS[num] = (title, "FAIL")
        raise
    RESULTS[num] = (title, "PASS")


def fragment_key(pset, spec, stage, i):
    cols = [k - 1 for k in sorted(compute_partition(spec).processed_through(stage - 1))]
    return pset.states[i][cols].tobytes()


def normalized_group_masses(pset, spec, stage):
    groups = group_compatibility(pset, spec, stage)
    logw = group_log_weights(groups)
    mass = np.exp(logw - logw.max())
    return groups, mass / mass.sum()


def test_criterion_1_group_masses_match_exact_enumeration():
    with criterion(1, "closed-form group masses match exact count-weights"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260823)
        instances = 0
        for _ in range(200):
            pset, spec, stage = random_small_instance(rng)
            groups, impl = normalized_group_masses(pset, spec, stage)
            oracle = union_group_masses(pset, spec, stage)
            total = sum(oracle.values())
            for h, members in enumerate(group_members(groups)):
                rep = int(members[0])
                exact = Fraction(oracle[fragment_key(pset, spec, stage, rep)], total)
                assert abs(impl[h] - float(exact)) <= 1e-9 * float(exact)
            instances += 1
        assert instances >= 200
        assert time.perf_counter() - start < 60.0


def empirical_union_law(pset, spec, stage, draws, rng):
    """Law of one draw through the library's sampler, counted exactly.

    Draw (group, donors) tuples are packed into integers and counted with
    numpy; each distinct tuple is assembled once, so counting 10^6 draws
    costs a few array passes."""
    groups, chosen, donors = combinatorial_draw(pset, spec, stage, rng, size=draws)
    n = pset.n
    packed = chosen.astype(np.int64)
    for k in groups.parts:
        packed = packed * (n + 1) + donors[k]
    law: dict[bytes, float] = {}
    for value, count in zip(*np.unique(packed, return_counts=True)):
        value = int(value)
        decoded = {}
        for k in reversed(groups.parts):
            value, d = divmod(value, n + 1)
            decoded[k] = np.array([d])
        row = assemble_combinatorial(
            pset, spec, stage, groups, np.array([value]), decoded
        )[0]
        key = row.tobytes()
        law[key] = law.get(key, 0.0) + count / draws
    return law


def total_variation(empirical, exact):
    keys = set(empirical) | set(exact)
    return 0.5 * sum(
        abs(empirical.get(k, 0.0) - float(exact.get(k, 0))) for k in keys
    )


def test_criterion_2_single_particle_law(five_part_instance):
    with criterion(2, "single-particle law matches pooled enumeration"):
        start = time.perf_counter()
        draws = 1_000_000
        pset, spec, stage = five_part_instance
        exact = union_particle_law(pset, spec, stage)
        tv = total_variation(
            empirical_union_law(pset, spec, stage, draws, np.random.default_rng(1)), exact
        )
        assert tv <= 0.005

        rng = np.random.default_rng(424242)
        accepted = 0
        while accepted < 20:
            pset, spec, stage = random_small_instance(rng)
            exact = union_particle_law(pset, spec, stage)
            if len(exact) > 80:  # keep the 1e6-draw TV budget under 0.005
                continue
            tv = total_variation(
                empirical_union_law(pset, spec, stage, draws, rng), exact
            )
            assert tv <= 0.005
            accepted += 1
        assert time.perf_counter() - start < 300.0


def test_criterion_3_worked_example_enumeration(three_particle_instance):
    import itertools

    from oracles import blocks_of

    with criterion(3, "three-particle worked example yields exactly 8 sets"):
        pset, spec, stage = three_particle_instance
        sets = [states for states, _ in reference_rearrangements(pset, spec, stage)]
        assert len(sets) == 8
        expected = set()
        for swaps in itertools.product([False, True], repeat=3):
            states = pset.states.copy()
            for do_swap, k in zip(swaps, (2, 4, 6)):
                if do_swap:
                    cols = blocks_of(spec, k)
                    states[np.ix_([0, 1], cols)] = states[np.ix_([1, 0], cols)]
            expected.add(states.tobytes())
        assert {s.tobytes() for s in sets} == expected


def test_criterion_4_parallel_partition(six_part_tree):
    with criterion(4, "six-part tree partitions into [{1},{2,4,6},{3,5}]"):
        assert compute_partition(six_part_tree).steps == ((1,), (2, 4, 6), (3, 5))


def _unbiasedness_counts(name, weights, repeats, seed):
    """Total and squared-total copy counts per particle over many resamplings."""
    from crtrack.resampling import ParticleSet

    n = len(weights)
    states = np.arange(n, dtype=float).reshape(n, 1, 1).repeat(3, axis=2)
    rng = np.random.default_rng(seed)
    total = np.zeros(n)
    total_sq = np.zeros(n)
    for _ in range(repeats):
        pset = ParticleSet(
            states=states.copy(),
            part_weights=np.ones((n, 1)),
            weights=np.asarray(weights, dtype=float),
        )
        if name == "multinomial":
            out = multinomial_resample(pset, rng)
        elif name == "stratified":
            out = stratified_resample(pset, rng)
        elif name == "systematic":
            out = systematic_resample(pset, rng)
        elif name == "residual":
            out = residual_resample(pset, rng)
        else:
            out = weighted_resample(pset, lambda w: w, rng)
        picked = out.states[:, 0, 0].astype(int)
        counts = np.bincount(picked, minlength=n)
        total += counts
        total_sq += counts.astype(float) ** 2
    return total, total_sq


def test_criterion_5_classical_resampler_properties():
    with criterion(5, "classical resampler copy-count and unbiasedness checks"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)

        for _ in range(1000):
            n = int(rng.integers(2, 11))
            w = rng.dirichlet(np.ones(n))
            counts = np.bincount(systematic_draw(w, rng), minlength=n)
            lo = np.floor(n * w)
            hi = np.ceil(n * w)
            assert ((counts >= lo) & (counts <= hi)).all()

        # deterministic phase: the floor copies are always present
        for _ in range(200):
            n = int(rng.integers(2, 9))
            w = rng.dirichlet(np.ones(n))
            counts = np.bincount(residual_draw(w, rng), minlength=n)
            assert (counts >= np.floor(n * w)).all()
        assert sorted(
            residual_draw(np.array([0.5, 0.25, 0.25, 0.0]), np.random.default_rng(0)).tolist()
        ) == [0, 0, 1, 2]

        repeats = 100_000
        weights = (0.09, 0.11, 0.23, 0.26, 0.31)
        n = len(weights)
        for scheme_index, name in enumerate(
            ("multinomial", "stratified", "systematic", "residual", "weighted")
        ):
            total, total_sq = _unbiasedness_counts(name, weights, repeats, 100 + scheme_index)
            mean = total / repeats
            var = total_sq / repeats - mean**2
            se = np.sqrt(np.maximum(var, 0.0) / repeats)
            target = n * np.asarray(weights)
            assert (np.abs(mean - target) <= 3.0 * se + 1e-12).all(), name
        assert time.perf_counter() - start < 300.0


def test_criterion_6_resample_invocation_counts():
    with criterion(6, "parallel schedule costs K resamples per frame, singleton P"):
        spec = DbnSpec.star(2, 2)
        seq = SequenceSpec(
            arm_count=2, arm_length=2, frame_count=4, width=96, height=72,
            sigma_xy=0.0, sigma_theta=0.0, part_length=10.0, part_width=5.0,
        )
        model, frames, truth = simulate_sequence(seq)
        k = compute_partition(spec).num_steps
        p = spec.part_count
        assert any(len(step) > 1 for step in compute_partition(spec).steps)
        assert k < p

        def invocations(resampler, mode):
            cfg = TrackerConfig(
                particle_count=8, resampler=resampler, partition_mode=mode,
                sigma_xy=0.5, sigma_theta=0.01, seed=1,
            )
            return track_sequence(frames, truth[0], model, cfg).resample_invocations

        frames_after_first = seq.frame_count - 1
        assert invocations("combinatorial", "parallel") == k * frames_after_first
        assert invocations("systematic", "parallel") == k * frames_after_first
        assert invocations("systematic", "singleton") == p * frames_after_first


# Both kernels run the same parallel schedule so only the resampling operator
# differs; the object is the benchmark default at desk scale.
CRITERION_7_CONFIG = {
    "objects": [
        {
            "arm_count": 4,
            "arm_length": 3,
            "frame_count": 60,
            "width": 160,
            "height": 128,
            "sigma_xy": 1.0,
            "sigma_theta": 0.025,
            "part_length": 12.0,
            "part_width": 6.0,
            "seed": 11,
            "name": "desk",
        }
    ],
    "resamplers": ["multinomial", "combinatorial"],
    "particles": [50, 100],
    "runs": 12,
    "seed": 7,
    "workers": 1,
    "tracker": {"partition_mode": "parallel"},
}


def test_criterion_7_combinatorial_beats_multinomial(monkeypatch):
    with criterion(7, "combinatorial error <= multinomial at N=50 and N=100"):
        start = time.perf_counter()
        monkeypatch.delenv("CRTRACK_WORKERS", raising=False)
        report = run_benchmark(CRITERION_7_CONFIG)
        errs: dict[tuple[str, int], list[float]] = {}
        for row in report.rows:
            errs.setdefault((row.resampler, row.particles), []).append(row.mean_error_px)
        diffs = []
        for n in (50, 100):
            mult = np.array(errs[("multinomial", n)])
            comb = np.array(errs[("combinatorial", n)])
            assert len(mult) >= 10 and len(comb) >= 10
            assert comb.mean() <= mult.mean()
            diffs.extend((mult - comb).tolist())
        pvalue = stats.ttest_1samp(np.array(diffs), 0.0, alternative="greater").pvalue
        assert pvalue < 0.05
        assert time.perf_counter() - start < 300.0


def test_criterion_8_zero_noise_zero_error(tmp_path):
    with criterion(8, "zero-noise sequence tracks with exactly zero error"):
        start = time.perf_counter()
        spec = SequenceSpec(
            arm_count=2, arm_length=2, frame_count=30, width=160, height=128,
            sigma_xy=0.0, sigma_theta=0.0, seed=0, part_length=12.0,
            part_width=6.0, name="frozen",
        )
        out = generate_sequence(spec, tmp_path / "frozen")
        frames = load_frames(out)
        model, _, truth = simulate_sequence(spec)
        for name in RESAMPLER_NAMES:
            mode = "parallel" if name == "combinatorial" else "singleton"
            cfg = TrackerConfig(
                particle_count=20, resampler=name, sigma_xy=0.0, sigma_theta=0.0,
                partition_mode=mode, seed=0,
            )
            result = track_sequence(frames, truth[0], model, cfg, truth=truth)
            assert result.mean_error == 0.0, name
            np.testing.assert_array_equal(result.errors, 0.0)
        assert time.perf_counter() - start < 10.0


def test_criterion_9_benchmark_error_column_is_byte_identical(tmp_path):
    with criterion(9, "bench produces a byte-identical error column"):
        config = {
            "objects": [
                dataclasses.asdict(
                    SequenceSpec(
                        arm_count=2, arm_length=1, frame_count=4, width=64, height=48,
                        sigma_xy=0.8, sigma_theta=0.02, seed=5, part_length=8.0,
                        part_width=4.0, name="tiny",
                    )
                )
            ],
            "resamplers": ["systematic", "combinatorial"],
            "particles": [5, 8],
            "runs": 2,
            "seed": 3,
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(config))

        columns = []
        for label in ("first", "second"):
            out = tmp_path / f"{label}.csv"
            assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 0
            rows = out.read_text().strip().split("\n")[1:]
            columns.append([line.split(",")[5] for line in rows])
        assert columns[0] == columns[1]
        report = read_results_csv(tmp_path / "first.csv")
        assert len(report.rows) == 8
