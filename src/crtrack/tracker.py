"""Staged particle filtering over an articulated-object partition.

Each frame is processed stage by stage: the parts of one partition stage are
propagated and scored, the particle weights are multiplied by their factors
and normalized once, then the whole set is resampled, so a frame costs
exactly as many resamples as the partition has stages.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .dbn import DbnSpec, Partition, check_fields, compute_partition
from .geometry import ArticulatedModel, ObjectState, _place, estimation_error, wrap_angle
from .likelihood import init_references, part_factors

# One-part forms of the scoring kernel, importable here because the
# benchmark tracer wraps the tracker's helpers by these names.
from .geometry import place_polygon  # noqa: F401
from .likelihood import bhattacharyya, part_weight_factor, region_histogram  # noqa: F401
from .resampling import (
    ParticleSet,
    combinatorial_resample,
    initial_particle_set,
    multinomial_resample,
    residual_resample,
    stratified_resample,
    systematic_resample,
    weighted_resample,
)

log = logging.getLogger(__name__)


# Each scheme as (particle set, stage, rng, config, structure) -> resampled
# set.  The entries look their resampler up as a module global at call time,
# so a resampler swapped in by name is the one used.
_RESAMPLERS = {
    "multinomial": lambda ps, stage, rng, cfg, spec: multinomial_resample(ps, rng),
    "stratified": lambda ps, stage, rng, cfg, spec: stratified_resample(ps, rng),
    "systematic": lambda ps, stage, rng, cfg, spec: systematic_resample(ps, rng),
    "residual": lambda ps, stage, rng, cfg, spec: residual_resample(ps, rng),
    "weighted": lambda ps, stage, rng, cfg, spec: weighted_resample(
        ps, lambda w: np.exp(cfg.weighted_exponent * w), rng
    ),
    "combinatorial": lambda ps, stage, rng, cfg, spec: combinatorial_resample(ps, spec, stage, rng),
}

RESAMPLER_NAMES = tuple(_RESAMPLERS)

# rng stream tags; every stream is keyed (seed, frame, tag, ...) so that the
# processing order of parts inside a stage cannot change any draw
_PROPAGATE_STREAM = 1
_RESAMPLE_STREAM = 2


@dataclass(frozen=True)
class TrackerConfig:
    """Every tracker setting and its default.  Unset, ``partition_mode`` is
    parallel for combinatorial resampling, which needs it, and singleton
    otherwise: partitioned sampling as MacCormick & Isard run it."""

    particle_count: int
    resampler: str = "systematic"
    sigma_xy: float = 1.0
    sigma_theta: float = 0.025
    lam: float = 50.0
    weighted_exponent: float = 20.0
    partition_mode: str | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.particle_count < 1:
            raise ValueError("particle_count must be >= 1")
        if self.sigma_xy < 0 or self.sigma_theta < 0:
            raise ValueError("proposal sigmas must be >= 0")
        if self.resampler not in RESAMPLER_NAMES:
            raise ValueError(f"unknown resampler {self.resampler!r}, not one of {RESAMPLER_NAMES}")
        if self.partition_mode is None:
            default = "parallel" if self.resampler == "combinatorial" else "singleton"
            object.__setattr__(self, "partition_mode", default)
        if self.partition_mode not in ("singleton", "parallel"):
            raise ValueError(f"unknown partition mode {self.partition_mode!r}")
        if self.resampler == "combinatorial" and self.partition_mode != "parallel":
            raise ValueError("combinatorial resampling needs the parallel partition")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        # weights lie in [0, 1], so exp(e w) and the correction w / rho stay finite and > 0
        if abs(self.weighted_exponent) > 700:
            raise ValueError("weighted_exponent must lie in [-700, 700]")


def partition_for(spec: DbnSpec, mode: str) -> Partition:
    """Parallel mode groups whole tree levels per step; singleton mode
    processes one part per step, parents first, so K equals P."""
    parallel = compute_partition(spec)
    if mode == "parallel":
        return parallel
    return Partition(tuple((k,) for step in parallel.steps for k in step))


def propagate_rng(seed: int, frame_index: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, frame_index, _PROPAGATE_STREAM, k])


def resample_rng(seed: int, frame_index: int, stage: int) -> np.random.Generator:
    return np.random.default_rng([seed, frame_index, _RESAMPLE_STREAM, stage])


def propagate_part(
    states: np.ndarray, k: int, cfg: TrackerConfig, rng: np.random.Generator
) -> None:
    """Move part k of every particle in ``states`` by its Gaussian proposal
    (in place)."""
    n = states.shape[0]
    col = states[:, k - 1]
    col[:, 0] += rng.normal(0.0, cfg.sigma_xy, n)
    col[:, 1] += rng.normal(0.0, cfg.sigma_xy, n)
    col[:, 2] = wrap_angle(col[:, 2] + rng.normal(0.0, cfg.sigma_theta, n))


def correct_part(
    states: np.ndarray,
    parts: tuple[int, ...],
    frame: np.ndarray,
    refs: np.ndarray,
    model: ArticulatedModel,
    cfg: TrackerConfig,
) -> np.ndarray:
    """Likelihood factors exp(-lam d^2) (N, len(parts)) of ``parts`` for
    every particle, in one ``part_factors`` pass over part-major placements
    from one ``_place`` call (so a raster batch mostly holds one part's window)."""
    cols = np.array(parts) - 1
    sizes = np.array([(model.lengths[k - 1], model.widths[k - 1]) for k in parts]).T
    corners = _place(states.transpose(1, 0, 2)[cols], *sizes[..., None, None])
    return part_factors(frame, corners, refs[cols, None], cfg.lam).T


def ps_step(
    pset: ParticleSet,
    frame: np.ndarray,
    partition: Partition,
    model: ArticulatedModel,
    refs: np.ndarray,
    cfg: TrackerConfig,
    frame_index: int,
) -> tuple[ParticleSet, float]:
    """Advance the particle set by one frame; also return the seconds spent
    resampling.

    Per partition stage: propagate each part of the stage, score them all
    in one ``correct_part`` call and multiply their factors into the
    weights, taking parts in ascending id so the result cannot depend on
    the order the partition lists them in; normalize once; resample once.
    One normalization per stage loses nothing: every factor is at most 1,
    so a product that underflows part-way stays zero.  When the final
    product is zero or not finite, the weights and the stage's part factors
    fall back to uniform with one warning for the stage instead of aborting
    the run.
    """
    resample = _RESAMPLERS[cfg.resampler]
    spent = 0.0
    for stage, parts in enumerate(partition.steps, start=1):
        parts = tuple(sorted(parts))
        columns = [k - 1 for k in parts]
        for k in parts:
            propagate_part(pset.states, k, cfg, propagate_rng(cfg.seed, frame_index, k))
        pset.part_weights[:, columns] = correct_part(pset.states, parts, frame, refs, model, cfg)
        w = pset.weights
        for column in columns:
            w = w * pset.part_weights[:, column]
        total = w.sum()
        if not np.isfinite(total) or total <= 0.0:
            log.warning("all particle weights degenerated at stage %d; resetting to uniform", stage)
            pset.weights = np.full(pset.n, 1.0 / pset.n)
            # the combinatorial resampler draws from the part factors, so
            # they restart at 1 too: every resampler sees the same uniform stage
            pset.part_weights[:, columns] = 1.0
        else:
            pset.weights = w / total
        pset.fresh = parts
        rng = resample_rng(cfg.seed, frame_index, stage)
        start = time.perf_counter()
        pset = resample(pset, stage, rng, cfg, model.spec)
        spent += time.perf_counter() - start
    return pset, spent


def estimate(pset: ParticleSet) -> ObjectState:
    """Weighted mean pose: plain means for x and y, circular mean for theta.

    Computed as offsets from particle 0 so a set of identical particles
    estimates their common state bit for bit.
    """
    w = pset.weights
    total = w.sum()
    ref = pset.states[0]
    delta = pset.states - ref[None, :, :]
    x = ref[:, 0] + (w @ delta[:, :, 0]) / total
    y = ref[:, 1] + (w @ delta[:, :, 1]) / total
    sin_sum = w @ np.sin(delta[:, :, 2])
    cos_sum = w @ np.cos(delta[:, :, 2])
    theta = wrap_angle(ref[:, 2] + np.arctan2(sin_sum, cos_sum))
    return np.column_stack((x, y, theta))


@dataclass
class TrackResult:
    estimates: np.ndarray  # (T, P, 3)
    errors: np.ndarray | None  # (T,) when ground truth was supplied
    resample_invocations: int
    resample_seconds: float
    total_seconds: float

    @property
    def mean_error(self) -> float | None:
        if self.errors is None:
            return None
        return float(np.mean(self.errors))


def track_sequence(
    frames,
    initial: ObjectState,
    model: ArticulatedModel,
    cfg: TrackerConfig,
    truth: np.ndarray | None = None,
) -> TrackResult:
    """Track a whole sequence from a known pose in the first frame.

    ``frames`` is a sequence of grayscale arrays; references are built from
    frames[0] at ``initial`` and every later frame is handled by ps_step.
    When ``truth`` (T, P, 3) is given, the per-frame corner error is recorded.
    """
    if len(frames) < 1:
        raise ValueError("need at least one frame")
    for t, frame in enumerate(frames):
        if np.ndim(frame) != 2 or getattr(frame, "dtype", None) != np.uint8:
            raise ValueError(f"frame {t} is not a 2-D uint8 array")
    pose = (model.part_count, 3)
    if np.shape(initial) != pose:
        raise ValueError(f"initial pose shape {np.shape(initial)} != {pose} (parts, 3)")
    if not np.isfinite(np.asarray(initial, dtype=float)).all():
        raise ValueError("initial pose is not finite")
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (len(frames), *pose):
            raise ValueError(
                f"ground truth shape {truth.shape} != {(len(frames), *pose)} (frames, parts, 3)"
            )
        if not np.isfinite(truth).all():
            raise ValueError("ground truth is not finite")
    start = time.perf_counter()
    partition = partition_for(model.spec, cfg.partition_mode)
    refs = init_references(frames[0], model, initial)
    pset = initial_particle_set(cfg.particle_count, initial)
    estimates = [np.array(initial, dtype=float, copy=True)]
    resample_seconds = 0.0
    for t in range(1, len(frames)):
        pset, spent = ps_step(pset, frames[t], partition, model, refs, cfg, t)
        estimates.append(estimate(pset))
        resample_seconds += spent
    stacked = np.stack(estimates)
    errors = None
    if truth is not None:
        errors = np.array(
            [estimation_error(model, stacked[t], truth[t]) for t in range(len(frames))]
        )
    return TrackResult(
        estimates=stacked,
        errors=errors,
        resample_invocations=partition.num_steps * (len(frames) - 1),
        resample_seconds=resample_seconds,
        total_seconds=time.perf_counter() - start,
    )
