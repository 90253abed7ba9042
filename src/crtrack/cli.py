"""Command line front end: generate / track / bench / plot."""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    InsufficientData,
    SequenceSpec,
    build_model,
    emit_convergence_plot,
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
from .tracker import RESAMPLER_NAMES, track_sequence

# Desk scale keeps CI runs cheap; --paper-scale restores the full protocol.
DESK_PROFILE = {
    "width": 160,
    "height": 128,
    "frame_count": 60,
    "part_length": 12.0,
    "part_width": 6.0,
    "runs": 10,
    "particles": [25, 50, 100],
}
PAPER_PROFILE = {
    "width": 800,
    "height": 640,
    "frame_count": 300,
    "part_length": 30.0,
    "part_width": 12.0,
    "runs": 30,
    "particles": [50, 100, 200, 400],
}


def _profile(paper_scale: bool) -> dict:
    return PAPER_PROFILE if paper_scale else DESK_PROFILE


def _cmd_generate(args) -> int:
    profile = _profile(args.paper_scale)
    spec = SequenceSpec(
        arm_count=args.arms,
        arm_length=args.arm_length,
        frame_count=args.frames if args.frames is not None else profile["frame_count"],
        width=args.width if args.width is not None else profile["width"],
        height=args.height if args.height is not None else profile["height"],
        sigma_xy=args.sigma_xy,
        sigma_theta=args.sigma_theta,
        seed=args.seed,
        part_length=args.part_length if args.part_length is not None else profile["part_length"],
        part_width=args.part_width if args.part_width is not None else profile["part_width"],
        name=args.name,
    )
    out = generate_sequence(spec, args.out)
    print(f"wrote {spec.frame_count} frames ({spec.width}x{spec.height}, "
          f"{spec.part_count} parts) to {out}")
    return 0


def _cmd_track(args) -> int:
    # Every input is checked before the first frame is tracked.
    spec = load_object_spec(args.frames)
    model = build_model(spec)
    overrides = load_json(args.config) if args.config else {}
    cfg = tracker_config(spec, args.resampler, args.particles, args.seed, overrides)
    frames = load_frames(args.frames)
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
        with open(args.out, "w") as fh:
            fh.write("frame,error_px," +
                     ",".join(f"x{k},y{k},theta{k}" for k in range(1, model.spec.part_count + 1)) +
                     "\n")
            for t, (est, err) in enumerate(zip(result.estimates, result.errors), start=1):
                coords = ",".join(f"{v:.6f}" for v in est.ravel())
                fh.write(f"{t},{err:.6f},{coords}\n")
        print(f"wrote estimates to {args.out}")
    return 0


def _default_bench_config(args) -> dict:
    profile = _profile(args.paper_scale)
    obj = {
        "arm_count": 4,
        "arm_length": 3,
        "frame_count": profile["frame_count"],
        "width": profile["width"],
        "height": profile["height"],
        "part_length": profile["part_length"],
        "part_width": profile["part_width"],
        "name": "star-4x3",
    }
    return {
        "seed": args.seed,
        "runs": profile["runs"],
        "particles": profile["particles"],
        "resamplers": list(RESAMPLER_NAMES),
        "objects": [obj],
    }


def _cmd_bench(args) -> int:
    config = load_json(args.config) if args.config else _default_bench_config(args)
    report = run_benchmark(config)
    write_results_csv(report, args.out)
    print(f"wrote {len(report.rows)} rows to {args.out}")
    for (obj, resampler), points in sorted(report.series().items()):
        summary = "  ".join(f"N={n}: {mean:.2f}±{std:.2f}" for n, mean, std in points)
        print(f"{obj}/{resampler}: {summary}")
    return 0


def _cmd_plot(args) -> int:
    report = read_results_csv(getattr(args, "in"))
    emit_convergence_plot(report, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtrack",
        description="Articulated-object particle tracking benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="render a synthetic sequence to PGM frames")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--arms", type=int, default=4)
    gen.add_argument("--arm-length", type=int, default=3)
    gen.add_argument("--frames", type=int, default=None)
    gen.add_argument("--width", type=int, default=None)
    gen.add_argument("--height", type=int, default=None)
    gen.add_argument("--sigma-xy", type=float, default=1.0)
    gen.add_argument("--sigma-theta", type=float, default=0.025)
    gen.add_argument("--part-length", type=float, default=None)
    gen.add_argument("--part-width", type=float, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--name", default="object")
    gen.add_argument("--paper-scale", action="store_true")
    gen.set_defaults(func=_cmd_generate)

    trk = sub.add_parser("track", help="track one generated sequence")
    trk.add_argument("--frames", required=True, help="directory of frame_*.pgm")
    trk.add_argument("--truth", required=True, help="ground-truth CSV")
    trk.add_argument("--resampler", choices=RESAMPLER_NAMES, default="systematic")
    trk.add_argument("--particles", type=int, default=100)
    trk.add_argument("--seed", type=int, default=0)
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
