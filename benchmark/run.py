#!/usr/bin/env python3
"""crtrack benchmark: offline tracking runs through ``crtrack.track_sequence``.

Run from the root of a checkout:

    python3 benchmark/run.py --workload desk-comb --seed 1 --seconds 30 --trace 0

Each workload tracks a fixed list of short synthetic sequences ("episodes")
made by ``crtrack.harness.simulate_sequence``; the sequence and tracker seeds
of every episode derive from ``--seed``.  The loop is closed: one process,
one thread, one caller, and a frame starts only after the previous one ends.

``--trace 0`` tracks every episode once, then repeats episodes until
``--seconds`` have passed, setting up again after every call; every repeat
must reproduce its first run bit for bit.  It prints the end-to-end metrics.
``--trace 1`` tracks the first half of the episodes untraced, then again with
every layer wrapped (see ``tracing.py``), checks that both give identical
estimates, and prints the per-layer metrics.

The second-to-last stdout line is a JSON report with the environment, the
checks and the sample counts; the last line is the result object.  Any
failed check makes the exit code 1.  Without ``src/crtrack`` in the
checkout the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One thread: keep BLAS from starting a pool before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import math
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer, self_times, total_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The traced run sets up this many times and reports the mean.
SETUP_REPEATS = 9

# Timed metrics read the process's CPU clock, not the wall clock.  The loop
# is one thread and does no I/O, so on an idle core the two agree; on a
# shared virtual machine the wall clock also counts the time the hypervisor
# and other processes take the core away, which varied by a quarter between
# runs of the same code.  Wall-clock figures go in the report line.
CPU_CLOCK = time.process_time


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    width: int
    height: int
    part_length: float
    part_width: float
    resampler: str
    partition_mode: str
    particles: int
    # Many short episodes rather than one long one: mean_error_px then
    # averages over independent sequences and stays steady from seed to seed.
    episodes: int
    frames: int  # per episode; frame 0 is given, the rest are tracked


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-comb",
            "the paper's method at desk scale: combinatorial resampling on the "
            "parallel schedule runs grouping, mass, donor draws and assembly 4 times a frame",
            160, 128, 12.0, 6.0, "combinatorial", "parallel", 100, 15, 7,
        ),
        Workload(
            "desk-sys-singleton",
            "same sequences, systematic resampling on the singleton schedule: bypasses "
            "the combinatorial layer and runs the weight bookkeeping 13 times a frame",
            160, 128, 12.0, 6.0, "systematic", "singleton", 100, 15, 7,
        ),
        Workload(
            "paper-comb-n400",
            "largest paper-scale cell: 800x640, N=400, big rasterization windows and "
            "many donor draws per stage, where memory and window size show",
            800, 640, 30.0, 12.0, "combinatorial", "parallel", 400, 24, 2,
        ),
    )
}

END_TO_END_UNITS = {
    "frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
    "mean_error_px": "px",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "geometry.rasterize_s": "s/frame",
    "geometry.raster_cells": "cells/frame",
    "geometry.place_s": "s/frame",
    "likelihood.histogram_s": "s/frame",
    "likelihood.distance_s": "s/frame",
    "likelihood.evals": "1/frame",
    "tracker.correct_self_s": "s/frame",
    "tracker.propagate_s": "s/frame",
    "tracker.estimate_s": "s/frame",
    "tracker.weight_resets": "count",
    "resampling.resample_s": "s/frame",
    "resampling.group_s": "s/frame",
    "resampling.mass_s": "s/frame",
    "resampling.draw_s": "s/frame",
    "resampling.assemble_s": "s/frame",
    "resampling.draw_calls": "1/stage",
    "resampling.groups": "1/stage",
    "resampling.pool_max": "count",
    "resampling.ess_frac": "fraction",
    "resampling.unique_frac": "fraction",
    "dbn.descendants_calls": "1/frame",
    "dbn.descendants_s": "s/frame",
    "harness.simulate_s": "s",
    "tracer.frames_per_s": "1/s",
    "tracer.overhead_frac": "fraction",
}

RESAMPLER_ATTRS = (
    "multinomial_resample",
    "stratified_resample",
    "systematic_resample",
    "residual_resample",
    "weighted_resample",
    "combinatorial_resample",
)


class BenchmarkError(Exception):
    """The checkout cannot run the benchmark (exit code 2, no result)."""


def import_crtrack():
    """Import crtrack from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "crtrack" / "__init__.py").is_file():
        raise BenchmarkError(f"no crtrack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crtrack
    from crtrack import dbn, geometry, harness, likelihood, resampling, tracker

    if Path(crtrack.__file__).resolve().parent != SRC / "crtrack":
        raise BenchmarkError(f"crtrack imported from {crtrack.__file__}, not from {SRC}")
    return {
        "dbn": dbn,
        "geometry": geometry,
        "harness": harness,
        "likelihood": likelihood,
        "resampling": resampling,
        "tracker": tracker,
    }


def git_sha() -> str:
    """Commit of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


@dataclass
class Episode:
    spec: object  # crtrack.harness.SequenceSpec
    cfg: object  # crtrack.tracker.TrackerConfig


def make_episodes(mods, workload: Workload, seed: int) -> list[Episode]:
    """Sequence and tracker seeds per episode, from ``seed`` alone, so both
    desk workloads track the same sequences for a given seed."""
    episodes = []
    for child in np.random.SeedSequence(seed).spawn(workload.episodes):
        sequence_seed, tracker_seed = (int(v) for v in child.generate_state(2))
        spec = mods["harness"].SequenceSpec(
            arm_count=4,
            arm_length=3,
            frame_count=workload.frames,
            width=workload.width,
            height=workload.height,
            sigma_xy=1.0,
            sigma_theta=0.025,
            seed=sequence_seed,
            part_length=workload.part_length,
            part_width=workload.part_width,
            name="star-4x3",
        )
        cfg = mods["tracker"].TrackerConfig(
            particle_count=workload.particles,
            resampler=workload.resampler,
            sigma_xy=spec.sigma_xy,
            sigma_theta=spec.sigma_theta,
            partition_mode=workload.partition_mode,
            seed=tracker_seed,
        )
        episodes.append(Episode(spec, cfg))
    return episodes


def set_up(mods, episodes: list[Episode], repeats: int) -> tuple[list, list[float], list[float]]:
    """Simulate every episode's sequence ``repeats`` times; returns the last
    simulation and the CPU and wall time of each repeat."""
    cpu_times, wall_times = [], []
    sims = []
    for _ in range(repeats):
        cpu, wall = CPU_CLOCK(), time.perf_counter()
        sims = [mods["harness"].simulate_sequence(ep.spec) for ep in episodes]
        cpu_times.append(CPU_CLOCK() - cpu)
        wall_times.append(time.perf_counter() - wall)
    return sims, cpu_times, wall_times


@dataclass
class Outcome:
    """One ``track_sequence`` call: the estimates, or the error it raised."""

    frames: int
    wall_s: float
    cpu_s: float
    estimates: object = None
    mean_error: float | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def track(mods, episode: Episode, sim) -> Outcome:
    """Track one episode and check the shape and finiteness of its output."""
    model, frames, truth = sim
    tracked = len(frames) - 1
    cpu, wall = CPU_CLOCK(), time.perf_counter()
    try:
        result = mods["tracker"].track_sequence(frames, truth[0], model, episode.cfg, truth=truth)
    except Exception as exc:  # a raising run counts all its frames as failed
        error = f"{type(exc).__name__}: {exc}"
        return Outcome(tracked, time.perf_counter() - wall, CPU_CLOCK() - cpu, error=error)
    times = (tracked, time.perf_counter() - wall, CPU_CLOCK() - cpu)
    est = result.estimates
    if est.shape != truth.shape:
        return Outcome(*times, error=f"estimate shape {est.shape} != {truth.shape}")
    if not np.all(np.isfinite(est)):
        return Outcome(*times, error="non-finite estimate")
    if result.mean_error is None or not math.isfinite(result.mean_error):
        return Outcome(*times, error="non-finite mean error")
    return Outcome(*times, estimates=est, mean_error=result.mean_error)


def same(a: Outcome, b: Outcome) -> bool:
    return (
        a.ok
        and b.ok
        and a.mean_error == b.mean_error
        and np.array_equal(a.estimates, b.estimates)
    )


class Tally:
    """Frames attempted and failed, plus the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, outcome: Outcome, index: int, reference: Outcome | None = None) -> None:
        self.attempted += outcome.frames
        message = outcome.error
        if message is None and reference is not None and not same(outcome, reference):
            message = "repeat differs from the first run of the same seed"
        if message is not None:
            self.failed += outcome.frames
            if len(self.messages) < 5:
                self.messages.append(f"episode {index}: {message}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def frame_timer(mods, clock):
    """A tracer that only times ``tracker.ps_step`` on ``clock``, one span
    per frame."""
    tracer = Tracer(clock=clock)
    if not tracer.wrap(mods["tracker"], "ps_step", "frame"):
        raise BenchmarkError("crtrack.tracker.ps_step is gone: frame latency cannot be timed")
    return tracer


def percentiles(values: list[float]) -> tuple[float | None, float | None]:
    """p50 and p90, or None for both when there are no samples."""
    if not values:
        return None, None
    p50, p90 = np.percentile(values, [50, 90]).tolist()
    return p50, p90


def run_end_to_end(mods, workload: Workload, args) -> tuple[dict, Tally, dict]:
    episodes = make_episodes(mods, workload, args.seed)
    sims, setup_times, setup_wall = set_up(mods, episodes, 1)
    tally = Tally()
    first: list[Outcome] = []
    runs: list[Outcome] = []

    def track_and_set_up(i: int) -> Outcome:
        # A shared machine's speed changes from second to second, so set-up
        # is repeated after every call, spreading its samples over the run
        # like the frames'; setup_s is their median.
        outcome = track(mods, episodes[i], sims[i])
        _, cpu, wall = set_up(mods, episodes, 1)
        setup_times.extend(cpu)
        setup_wall.extend(wall)
        return outcome

    with frame_timer(mods, time.perf_counter) as wall_timer, frame_timer(
        mods, CPU_CLOCK
    ) as cpu_timer:
        start = time.perf_counter()
        for i in range(len(episodes)):
            first.append(track_and_set_up(i))
            tally.add(first[-1], i)
        runs.extend(first)
        # Repeat episodes until the time is up, at least once, so every run
        # checks that one seed gives one answer.
        while len(runs) == len(first) or time.perf_counter() - start < args.seconds:
            i = (len(runs) - len(first)) % len(episodes)
            runs.append(track_and_set_up(i))
            tally.add(runs[-1], i, reference=first[i])
    errors = [o.mean_error for o in first if o.ok]
    frame_ms = [1000.0 * d for d in cpu_timer.durations("frame")]
    wall_ms = [1000.0 * d for d in wall_timer.durations("frame")]
    p50, p90 = percentiles(frame_ms)
    metrics = {
        # The rate three calls in four reach.  A shared machine runs at a
        # usual speed with bursts of up to 1.7 times that, whose share of a
        # run varied from 3% to 47%; a mean or median over the run moves with
        # that share, a quantile on the slow side stays on the usual speed.
        # A change to the program moves every quantile alike.
        "frames_per_s": float(np.percentile([o.frames / o.cpu_s for o in runs], 25)),
        "frame_ms_p50": p50,
        "frame_ms_p90": p90,
        "mean_error_px": statistics.fmean(errors) if errors else None,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "episodes": len(episodes),
        "frames_per_episode": workload.frames - 1,
        "repeats": len(runs) - len(first),
        "wall_frames_per_s": float(np.percentile([o.frames / o.wall_s for o in runs], 25)),
        "frame_samples": len(frame_ms),
        "frames_beyond_p90": sum(1 for v in frame_ms if v > p90),
        "wall_frame_ms_p50_p90": percentiles(wall_ms),
        "setup_repeats_s": setup_times,
        "wall_setup_repeats_s": setup_wall,
        "episode_mean_error_px": [o.mean_error for o in first],
    }
    return metrics, tally, detail


class _CountWarnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def install_layer_wrappers(tracer, mods, stats: dict) -> None:
    """Wrap every layer on the tracking path; ``stats`` collects what the
    observers see."""
    tracker, likelihood, resampling = mods["tracker"], mods["likelihood"], mods["resampling"]

    def on_mask(args, kwargs, result):
        nx, ny = args[3], args[4]
        stats["raster_cells"] += max(nx, 0) * max(ny, 0)

    def on_resample(args, kwargs, result):
        before = args[0]
        w = np.asarray(before.weights, dtype=float)
        w = w / w.sum()
        stats["ess_frac"].append(1.0 / float(np.dot(w, w)) / before.n)
        for k in before.fresh:
            distinct = len(np.unique(result.states[:, k - 1], axis=0))
            stats["unique_frac"].append(distinct / result.n)

    def on_group(args, kwargs, result):
        stats["groups"].append(result.group_count)
        stats["pool_max"].append(max(result.part_pool_max.values()))

    tracer.wrap(tracker, "ps_step", "frame")
    tracer.wrap(tracker, "propagate_part", "tracker.propagate")
    tracer.wrap(tracker, "correct_part", "tracker.correct_self")
    tracer.wrap(tracker, "estimate", "tracker.estimate")
    tracer.wrap(tracker, "place_polygon", "geometry.place")
    tracer.wrap(tracker, "region_histogram", "likelihood.histogram")
    tracer.wrap(likelihood, "polygon_mask", "geometry.rasterize", observe=on_mask)
    tracer.wrap(tracker, "bhattacharyya", "likelihood.distance")
    tracer.wrap(tracker, "part_weight_factor", "likelihood.distance")
    for attr in RESAMPLER_ATTRS:
        tracer.wrap(tracker, attr, "resampling.resample", observe=on_resample)
    tracer.wrap(resampling, "group_compatibility", "resampling.group", observe=on_group)
    tracer.wrap(resampling, "group_log_weights", "resampling.mass")
    tracer.wrap(resampling, "combinatorial_draw", "resampling.draw")
    tracer.count(resampling, "multinomial_draw", "resampling.draw_calls")
    tracer.wrap(resampling, "assemble_combinatorial", "resampling.assemble")
    tracer.wrap(resampling, "descendants_within_slice", "dbn.descendants")


def layer_metrics(
    tracer, stats: dict, frames: int, untraced_fps: float, traced_fps: float
) -> tuple[dict, dict, dict]:
    """Per-layer metrics over ``frames`` tracked frames, the self time per
    frame of every span name, and the span count of every span name."""
    spans = [s for s in tracer.spans if s is not None]
    own = self_times(spans)
    whole = total_times(spans)
    calls: dict[str, int] = {}
    for layer, *_ in spans:
        calls[layer] = calls.get(layer, 0) + 1
    stages = calls.get("resampling.resample", 0)

    def per_frame(value: float) -> float:
        return value / frames

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    metrics = {
        "geometry.rasterize_s": per_frame(own.get("geometry.rasterize", 0.0)),
        "geometry.raster_cells": per_frame(stats["raster_cells"]),
        "geometry.place_s": per_frame(own.get("geometry.place", 0.0)),
        "likelihood.histogram_s": per_frame(own.get("likelihood.histogram", 0.0)),
        "likelihood.distance_s": per_frame(own.get("likelihood.distance", 0.0)),
        "likelihood.evals": per_frame(calls.get("likelihood.histogram", 0)),
        "tracker.correct_self_s": per_frame(own.get("tracker.correct_self", 0.0)),
        "tracker.propagate_s": per_frame(own.get("tracker.propagate", 0.0)),
        "tracker.estimate_s": per_frame(own.get("tracker.estimate", 0.0)),
        "tracker.weight_resets": stats["weight_resets"],
        "resampling.resample_s": per_frame(whole.get("resampling.resample", 0.0)),
        "resampling.group_s": per_frame(own.get("resampling.group", 0.0)),
        "resampling.mass_s": per_frame(own.get("resampling.mass", 0.0)),
        "resampling.draw_s": per_frame(own.get("resampling.draw", 0.0)),
        "resampling.assemble_s": per_frame(own.get("resampling.assemble", 0.0)),
        "resampling.draw_calls": tracer.counts["resampling.draw_calls"] / stages if stages else 0.0,
        "resampling.groups": mean(stats["groups"]),
        "resampling.pool_max": mean(stats["pool_max"]),
        "resampling.ess_frac": mean(stats["ess_frac"]),
        "resampling.unique_frac": mean(stats["unique_frac"]),
        "dbn.descendants_calls": per_frame(calls.get("dbn.descendants", 0)),
        "dbn.descendants_s": per_frame(own.get("dbn.descendants", 0.0)),
        "harness.simulate_s": stats["simulate_s"],
        "tracer.frames_per_s": traced_fps,
        "tracer.overhead_frac": 1.0 - traced_fps / untraced_fps,
    }
    return metrics, {layer: per_frame(v) for layer, v in sorted(own.items())}, calls


def run_traced(mods, workload: Workload, args) -> tuple[dict, Tally, dict]:
    episodes = make_episodes(mods, workload, args.seed)
    with Tracer() as setup_tracer:
        setup_tracer.wrap(mods["harness"], "simulate_sequence", "harness.simulate")
        sims, _, _ = set_up(mods, episodes, SETUP_REPEATS)
        simulate_s = sum(setup_tracer.durations("harness.simulate")) / SETUP_REPEATS
    chosen = range(max(1, len(episodes) // 2))
    tally = Tally()

    untraced = [track(mods, episodes[i], sims[i]) for i in chosen]
    for i, outcome in zip(chosen, untraced):
        tally.add(outcome, i)

    stats = {
        "raster_cells": 0,
        "ess_frac": [],
        "unique_frac": [],
        "groups": [],
        "pool_max": [],
        "simulate_s": simulate_s,
    }
    resets = _CountWarnings()
    tracker_log = logging.getLogger("crtrack.tracker")
    tracker_log.addHandler(resets)
    try:
        with Tracer() as tracer:
            install_layer_wrappers(tracer, mods, stats)
            traced = [track(mods, episodes[i], sims[i]) for i in chosen]
    finally:
        tracker_log.removeHandler(resets)
    stats["weight_resets"] = resets.count
    for i, outcome, reference in zip(chosen, traced, untraced):
        tally.add(outcome, i, reference=reference)

    def fps(outcomes):
        return sum(o.frames for o in outcomes) / sum(o.cpu_s for o in outcomes)

    frames = sum(o.frames for o in traced)
    metrics, own, calls = layer_metrics(tracer, stats, frames, fps(untraced), fps(traced))
    detail = {
        "episodes": len(chosen),
        "frames_traced": frames,
        "spans": len(tracer.spans),
        "absent": tracer.absent,
        "untraced_frames_per_s": fps(untraced),
        "untraced_mean_error_px": [o.mean_error for o in untraced],
        "traced_mean_error_px": [o.mean_error for o in traced],
        "self_s_per_frame": own,
        "span_calls": calls,
    }
    return metrics, tally, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must lie in (0, 600]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mods = import_crtrack()
        workload = WORKLOADS[args.workload]
        if args.trace:
            values, tally, detail = run_traced(mods, workload, args)
            units = PER_LAYER_UNITS
        else:
            values, tally, detail = run_end_to_end(mods, workload, args)
            units = END_TO_END_UNITS
    except (BenchmarkError, ImportError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    correct = tally.failed == 0
    report = {
        "environment": environment(args),
        "workload_why": workload.why,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.messages,
        **detail,
    }
    print(json.dumps(report))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
