"""Particle filtering for articulated-object tracking.

Partitioned sampling over a dynamic Bayesian network of object parts, with
six interchangeable resampling schemes including combinatorial resampling,
plus a synthetic benchmark harness.
"""

from .dbn import DbnSpec, Partition, compute_partition, descendants_within_slice
from .geometry import ArticulatedModel, MotionParams, default_pose, estimation_error, render_frame
from .harness import (
    BenchmarkReport,
    SequenceSpec,
    emit_convergence_plot,
    generate_sequence,
    run_benchmark,
    write_results_csv,
)
from .resampling import (
    CompatibilityGroups,
    ParticleSet,
    combinatorial_resample,
    group_compatibility,
    group_log_weights,
    initial_particle_set,
)
from .tracker import RESAMPLER_NAMES, TrackerConfig, TrackResult, estimate, track_sequence

__version__ = "0.1.0"

__all__ = [
    "ArticulatedModel",
    "BenchmarkReport",
    "CompatibilityGroups",
    "DbnSpec",
    "MotionParams",
    "Partition",
    "ParticleSet",
    "RESAMPLER_NAMES",
    "SequenceSpec",
    "TrackResult",
    "TrackerConfig",
    "combinatorial_resample",
    "compute_partition",
    "default_pose",
    "descendants_within_slice",
    "emit_convergence_plot",
    "estimate",
    "estimation_error",
    "generate_sequence",
    "group_compatibility",
    "group_log_weights",
    "initial_particle_set",
    "render_frame",
    "run_benchmark",
    "track_sequence",
    "write_results_csv",
    "__version__",
]
