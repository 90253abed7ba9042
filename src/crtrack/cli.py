"""Command line front end: generate / track / bench / plot."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from .harness import (
    ConfigError,
    InsufficientData,
    SequenceSpec,
    build_model,
    emit_convergence_plot,
    file_errors,
    generate_sequence,
    load_frames,
    load_json,
    load_object_spec,
    load_truth,
    read_results_csv,
    run_benchmark,
    tracker_config,
    write_results_csv,
)
from .tracker import RESAMPLER_NAMES, TrackerConfig, track_sequence

# SequenceSpec's defaults are the paper's protocol; desk scale overrides the
# canvas, the sequence length and the part size to keep CI runs cheap.
DESK_SCALE = {
    "width": 160,
    "height": 128,
    "frame_count": 60,
    "part_length": 12.0,
    "part_width": 6.0,
}
# (runs, particle counts) of the default bench matrix at each scale
DESK_MATRIX = {"runs": 10, "particles": [25, 50, 100]}
PAPER_MATRIX = {"runs": 30, "particles": [50, 100, 200, 400]}


def _check_output(path) -> None:
    """Reject an output file whose directory is missing or unwritable, or
    which names a directory, before any work starts."""
    parent = Path(path).parent
    if not parent.is_dir() or not os.access(parent, os.W_OK):
        raise ConfigError(f"{path}: output directory {parent} is missing or not writable")
    if Path(path).is_dir():
        raise ConfigError(f"{path}: output path is a directory")


def _cmd_generate(args) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(SequenceSpec) if hasattr(args, f.name)}
    scale = {} if args.paper_scale else DESK_SCALE
    spec = SequenceSpec(**{**scale, **given})
    with file_errors(args.out, "write"):
        out = generate_sequence(spec, args.out)
    print(f"wrote {spec.frame_count} frames ({spec.width}x{spec.height}, "
          f"{spec.part_count} parts) to {out}")
    return 0


def _cmd_track(args) -> int:
    # Every input is checked before the first frame is tracked.
    if args.out:
        _check_output(args.out)
    spec = load_object_spec(args.frames)
    model = build_model(spec)
    overrides = load_json(args.config) if args.config else {}
    cfg = tracker_config(spec, args.resampler, args.particles, args.seed, overrides)
    frames = load_frames(args.frames, (spec.width, spec.height))
    truth = load_truth(args.truth)
    expected = (len(frames), spec.part_count, 3)
    if truth.shape != expected:
        raise ConfigError(
            f"{args.truth}: ground truth has shape {truth.shape}, but {len(frames)} frames "
            f"of a {spec.part_count}-part object need {expected}"
        )
    result = track_sequence(frames, truth[0], model, cfg, truth=truth)
    print(f"frames:               {len(frames)}")
    print(f"resampler:            {cfg.resampler} ({cfg.partition_mode} partition)")
    print(f"particles:            {cfg.particle_count}")
    print(f"seed:                 {cfg.seed}")
    print(f"mean error (px):      {result.mean_error:.3f}")
    print(f"resample seconds:     {result.resample_seconds:.3f}")
    print(f"total seconds:        {result.total_seconds:.3f}")
    print(f"resample invocations: {result.resample_invocations}")
    if args.out:
        with file_errors(args.out, "write"), open(args.out, "w") as fh:
            fh.write("frame,error_px," +
                     ",".join(f"x{k},y{k},theta{k}" for k in range(1, model.spec.part_count + 1)) +
                     "\n")
            for t, (est, err) in enumerate(zip(result.estimates, result.errors), start=1):
                coords = ",".join(f"{v:.6f}" for v in est.ravel())
                fh.write(f"{t},{err:.6f},{coords}\n")
        print(f"wrote estimates to {args.out}")
    return 0


def _default_bench_config(args) -> dict:
    scale = {} if args.paper_scale else DESK_SCALE
    return {
        "seed": args.seed,
        **(PAPER_MATRIX if args.paper_scale else DESK_MATRIX),
        "resamplers": list(RESAMPLER_NAMES),
        "objects": [{**scale, "name": "star-4x3"}],
    }


def _cmd_bench(args) -> int:
    _check_output(args.out)
    config = load_json(args.config) if args.config else _default_bench_config(args)
    report = run_benchmark(config)
    with file_errors(args.out, "write"):
        write_results_csv(report, args.out)
    print(f"wrote {len(report.rows)} rows to {args.out}")
    for (obj, resampler), points in sorted(report.series().items()):
        summary = "  ".join(f"N={n}: {mean:.2f}±{std:.2f}" for n, mean, std in points)
        print(f"{obj}/{resampler}: {summary}")
    return 0


def _cmd_plot(args) -> int:
    _check_output(args.out)
    report = read_results_csv(getattr(args, "in"))
    with file_errors(args.out, "write"):
        emit_convergence_plot(report, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtrack",
        description="Articulated-object particle tracking benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate",
        help="render a synthetic sequence to PGM frames",
        argument_default=argparse.SUPPRESS,
    )
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--paper-scale", action="store_true", default=False)
    # one flag per SequenceSpec field, absent unless given
    spec_types = get_type_hints(SequenceSpec)
    renamed = {"arm_count": "--arms", "frame_count": "--frames"}
    for f in fields(SequenceSpec):
        flag = renamed.get(f.name, "--" + f.name.replace("_", "-"))
        gen.add_argument(flag, dest=f.name, type=spec_types[f.name])
    gen.set_defaults(func=_cmd_generate)

    trk = sub.add_parser("track", help="track one generated sequence")
    trk.add_argument("--frames", required=True, help="directory of frame_*.pgm")
    trk.add_argument("--truth", required=True, help="ground-truth CSV")
    trk.add_argument("--resampler", choices=RESAMPLER_NAMES, default=TrackerConfig.resampler)
    trk.add_argument("--particles", type=int, default=100)
    trk.add_argument("--seed", type=int, default=TrackerConfig.seed)
    trk.add_argument("--config", default=None, help="JSON tracker overrides")
    trk.add_argument("--out", default=None, help="write per-frame estimates CSV")
    trk.set_defaults(func=_cmd_track)

    ben = sub.add_parser("bench", help="run a benchmark matrix")
    ben.add_argument("--config", default=None, help="JSON benchmark config")
    ben.add_argument("--out", default="results.csv")
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--paper-scale", action="store_true")
    ben.set_defaults(func=_cmd_bench)

    plo = sub.add_parser("plot", help="convergence plot from results.csv")
    plo.add_argument("--in", required=True, help="results CSV")
    plo.add_argument("--out", required=True, help="output SVG")
    plo.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
