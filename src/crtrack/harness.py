"""Benchmark harness: synthetic sequence generation, benchmark matrices over
resamplers and particle counts, CSV reporting and SVG convergence plots."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .dbn import DbnSpec
from .geometry import (
    ArticulatedModel,
    MotionParams,
    default_pose,
    ground_truth_step,
    render_frame,
)
from .pgm import read_pgm, write_pgm
from .tracker import TrackerConfig, track_sequence

TRUTH_FILE = "truth.csv"
OBJECT_FILE = "object.json"


class ConfigError(ValueError):
    pass


class InsufficientData(ValueError):
    pass


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class SequenceSpec:
    """Synthetic star-shaped object and the sequence to film it with.

    The object has one central part and ``arm_count`` serial arms of
    ``arm_length`` parts each, P = 1 + arm_count * arm_length in total.
    The defaults are the paper's protocol: a 4x3 star filmed for 300 frames
    on an 800x640 canvas.
    """

    arm_count: int = 4
    arm_length: int = 3
    frame_count: int = 300
    width: int = 800
    height: int = 640
    sigma_xy: float = 1.0
    sigma_theta: float = 0.025
    seed: int = 0
    part_length: float = 30.0
    part_width: float = 12.0
    name: str = "object"

    def __post_init__(self):
        types = get_type_hints(SequenceSpec)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if types[f.name] is int:
                _integer(value, f.name)
            elif types[f.name] is float and (
                isinstance(value, bool)
                or not (isinstance(value, numbers.Real) and math.isfinite(value))
            ):
                raise ConfigError(f"{f.name} must be a finite number, not {value!r}")
        if self.arm_count < 0:
            raise ConfigError("arm_count must be >= 0")
        if self.arm_count > 0 and self.arm_length < 1:
            raise ConfigError("arm_length must be >= 1")
        if self.frame_count < 1 or self.width < 1 or self.height < 1:
            raise ConfigError("frame_count and canvas dimensions must be >= 1")
        if self.part_length <= 0 or self.part_width <= 0:
            raise ConfigError("part_length and part_width must be > 0")
        if self.sigma_xy < 0 or self.sigma_theta < 0:
            raise ConfigError("sigma_xy and sigma_theta must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    @property
    def part_count(self) -> int:
        return 1 + self.arm_count * max(self.arm_length, 0)


def build_model(spec: SequenceSpec) -> ArticulatedModel:
    structure = DbnSpec.star(spec.arm_count, spec.arm_length) if spec.arm_count else DbnSpec.chain(1)
    return ArticulatedModel.uniform(structure, spec.part_length, spec.part_width)


def simulate_sequence(spec: SequenceSpec) -> tuple[ArticulatedModel, list[np.ndarray], np.ndarray]:
    """In-memory frames and ground truth, deterministic in ``spec.seed``."""
    model = build_model(spec)
    pose = default_pose(model, (spec.width / 2.0, spec.height / 2.0))
    params = MotionParams(spec.sigma_xy, spec.sigma_theta)
    rng = np.random.default_rng(spec.seed)
    margin = max(model.lengths[0], model.widths[0])
    bounds = (margin, spec.width - margin, margin, spec.height - margin)
    states = [pose]
    for _ in range(spec.frame_count - 1):
        states.append(ground_truth_step(model, states[-1], params, rng, root_bounds=bounds))
    truth = np.stack(states)
    frames = [render_frame(model, s, spec.width, spec.height) for s in states]
    return model, frames, truth


def generate_sequence(spec: SequenceSpec, out_dir) -> Path:
    """Write frame_0001.pgm.. plus truth.csv (row: frame index then x, y,
    theta per part, 6 decimals) and object.json recording the generation
    parameters.  File problems surface as OSError."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, frames, truth = simulate_sequence(spec)
    for t, frame in enumerate(frames, start=1):
        write_pgm(out / f"frame_{t:04d}.pgm", frame)
    with open(out / TRUTH_FILE, "w", newline="") as fh:
        for t in range(len(frames)):
            row = ",".join(f"{v:.6f}" for v in truth[t].ravel())
            fh.write(f"{t + 1},{row}\n")
    with open(out / OBJECT_FILE, "w") as fh:
        json.dump(dataclasses.asdict(spec), fh, indent=2)
        fh.write("\n")
    return out


@contextmanager
def file_errors(path, action: str = "read"):
    """Turn an OSError on ``path`` into a ConfigError naming the file."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{exc.filename or path}: cannot {action}: {exc.strerror or exc}") from exc


def load_json(path):
    """Parse one JSON input file; an unreadable or malformed file is a
    ConfigError naming the file."""
    with file_errors(path):
        text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: not valid JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}"
        ) from exc


def load_truth(path) -> np.ndarray:
    """(T, P, 3) ground truth from a truth.csv; an unreadable file or a
    malformed or non-finite row is a ConfigError naming the file (and the
    row)."""
    rows = []
    with file_errors(path), open(path, newline="") as fh:
        reader = csv.reader(fh)
        for record in reader:
            if not record:
                continue
            where = f"{path}, row {reader.line_num}"
            try:
                values = [float(v) for v in record[1:]]
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"{where}: values must be finite")
            if len(values) % 3:
                raise ConfigError(f"{where}: {len(values)} values, not x, y, theta per part")
            if rows and len(values) != rows[0].size:
                raise ConfigError(
                    f"{where}: {len(values) // 3} parts, earlier rows have {len(rows[0])}"
                )
            rows.append(np.array(values).reshape(-1, 3))
    if not rows:
        raise ConfigError(f"{path}: no ground-truth rows")
    return np.stack(rows)


def load_frames(frames_dir, size: tuple[int, int] | None = None) -> list[np.ndarray]:
    """Every .pgm frame under ``frames_dir`` in name order; an unreadable or
    malformed frame, or one whose (width, height) is not ``size`` when given,
    is a ConfigError naming the file."""
    paths = sorted(Path(frames_dir).glob("*.pgm"))
    if not paths:
        raise ConfigError(f"no .pgm frames under {frames_dir}")
    frames = []
    for path in paths:
        with file_errors(path):
            try:
                frames.append(read_pgm(path))
            except ValueError as exc:  # read_pgm names the file
                raise ConfigError(str(exc)) from exc
        if size is not None and frames[-1].shape[::-1] != size:
            shown = "x".join(map(str, frames[-1].shape[::-1]))
            raise ConfigError(f"{path}: frame is {shown}, the sequence is {size[0]}x{size[1]}")
    return frames


def load_object_spec(frames_dir) -> SequenceSpec:
    path = Path(frames_dir) / OBJECT_FILE
    if not path.exists():
        raise ConfigError(f"{path} not found; write the sequence with `crtrack generate`")
    description = load_json(path)
    try:
        return SequenceSpec(**description)
    except (TypeError, ConfigError) as exc:  # TypeError: an unknown field, or not a JSON object
        raise ConfigError(f"{path}: bad object description: {exc}") from exc


# A run sets the particle count, the resampler and the seed itself; a tracker
# section may set every other TrackerConfig field.
_RUN_FIELDS = {"particle_count", "resampler", "seed"}
TRACKER_OVERRIDES = tuple(
    f.name for f in dataclasses.fields(TrackerConfig) if f.name not in _RUN_FIELDS
)


def tracker_config(
    spec: SequenceSpec, resampler: str, particles: int, seed: int, overrides=None
) -> TrackerConfig:
    """Tracker settings for one run over ``spec``'s sequence.

    The proposal noise defaults to the sequence's own motion noise; every
    other field keeps its ``TrackerConfig`` default.  ``overrides`` may set
    any of ``TRACKER_OVERRIDES``; another key, a null, or a setting the
    tracker rejects is a ConfigError.
    """
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise ConfigError("tracker overrides must be a JSON object")
    for key, value in overrides.items():
        if key not in TRACKER_OVERRIDES:
            raise ConfigError(
                f"unknown tracker setting {key!r} (choices: {', '.join(TRACKER_OVERRIDES)})"
            )
        if value is None:  # null would otherwise pick the default partition
            raise ConfigError(f"tracker setting {key!r} must not be null")
    settings = {"sigma_xy": spec.sigma_xy, "sigma_theta": spec.sigma_theta, **overrides}
    try:
        return TrackerConfig(
            particle_count=particles, resampler=resampler, seed=seed, **settings
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad tracker settings: {exc}") from exc


@dataclass(frozen=True)
class BenchmarkRow:
    object_name: str
    resampler: str
    particles: int
    run: int
    seed: int
    mean_error_px: float
    resample_seconds: float
    total_seconds: float
    resample_invocations: int


# One column per BenchmarkRow field, in order; the first is headed "object".
CSV_HEADER = ("object", *(f.name for f in dataclasses.fields(BenchmarkRow)[1:]))


@dataclass
class BenchmarkReport:
    rows: list[BenchmarkRow]

    def series(self) -> dict[tuple[str, str], list[tuple[int, float, float]]]:
        """Per (object, resampler): sorted (N, mean, std) aggregated over runs."""
        pools: dict[tuple[str, str], dict[int, list[float]]] = {}
        for row in self.rows:
            key = (row.object_name, row.resampler)
            pools.setdefault(key, {}).setdefault(row.particles, []).append(row.mean_error_px)
        return {
            key: [(n, float(np.mean(e)), float(np.std(e))) for n, e in sorted(by_n.items())]
            for key, by_n in pools.items()
        }


def _cell_seed(master_seed: int, *indices: int) -> int:
    return int(np.random.SeedSequence([master_seed, *indices]).generate_state(1)[0])


def run_benchmark(config: dict) -> BenchmarkReport:
    """Run every (object, resampler, N, run) cell of a declarative config.

    Config keys: ``objects`` (list of SequenceSpec fields), ``resamplers``,
    ``particles``, ``runs``, ``seed`` (master) and optional ``tracker``
    overrides (see ``tracker_config``); other top-level keys are ignored.
    Every cell gets an independent seed derived from the master seed and the
    cell indices, so the error table is a pure function of the config.
    """
    try:
        objects = [SequenceSpec(**obj) for obj in config["objects"]]
        resamplers = list(config["resamplers"])
        particles = [_integer(n, "particles") for n in config["particles"]]
        runs = _integer(config["runs"], "runs")
        master_seed = _integer(config.get("seed", 0), "seed")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad benchmark config: {exc}") from exc
    if not objects or not resamplers or not particles or runs < 1:
        raise ConfigError("objects, resamplers, particles and runs must be non-empty")
    if master_seed < 0:
        raise ConfigError("seed must be >= 0")
    overrides = config.get("tracker", {})
    # every cell's settings are checked before any sequence is simulated
    cells = [
        (
            obj_idx,
            run,
            tracker_config(
                spec, name, n, _cell_seed(master_seed, obj_idx, res_idx, n_idx, run), overrides
            ),
        )
        for obj_idx, spec in enumerate(objects)
        for res_idx, name in enumerate(resamplers)
        for n_idx, n in enumerate(particles)
        for run in range(runs)
    ]
    simulated = [simulate_sequence(obj) for obj in objects]
    rows = []
    for obj_idx, run, cfg in cells:
        model, frames, truth = simulated[obj_idx]
        result = track_sequence(frames, truth[0], model, cfg, truth=truth)
        rows.append(
            BenchmarkRow(
                object_name=objects[obj_idx].name,
                resampler=cfg.resampler,
                particles=cfg.particle_count,
                run=run,
                seed=cfg.seed,
                mean_error_px=result.mean_error,
                resample_seconds=result.resample_seconds,
                total_seconds=result.total_seconds,
                resample_invocations=result.resample_invocations,
            )
        )
    return BenchmarkReport(rows)


def write_results_csv(report: BenchmarkReport, path) -> None:
    """One header row then one row per cell.  ``csv`` writes a float as
    ``str``, which is its shortest round-tripping form, so parsing the file
    reproduces the report exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(dataclasses.astuple(row) for row in report.rows)


def read_results_csv(path) -> BenchmarkReport:
    """Rows of a results CSV, each field parsed by its declared type; an
    unreadable file, a wrong header or a malformed row is a ConfigError
    naming the file (and the row)."""
    types = get_type_hints(BenchmarkRow)
    parsers = [types[f.name] for f in dataclasses.fields(BenchmarkRow)]
    rows: list[BenchmarkRow] = []
    with file_errors(path), open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ConfigError(f"{path}: unexpected header {header!r}")
        for record in reader:
            if not record:
                continue
            where = f"{path}, row {reader.line_num}"
            if len(record) != len(CSV_HEADER):
                raise ConfigError(f"{where}: {len(record)} fields, not {len(CSV_HEADER)}")
            try:
                rows.append(BenchmarkRow(*(parse(v) for parse, v in zip(parsers, record))))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
    return BenchmarkReport(rows)


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#17becf")


def emit_convergence_plot(report: BenchmarkReport, path) -> None:
    """Mean error against particle count, one polyline per resampler,
    written as self-contained SVG 1.1 (no external renderer)."""
    series = report.series()
    multi_object = len({obj for obj, _ in series}) > 1
    lines = []
    for (obj, resampler), points in sorted(series.items()):
        if len(points) >= 2:
            label = f"{obj}/{resampler}" if multi_object else resampler
            lines.append((label, points))
    if not lines:
        raise InsufficientData("need at least two particle counts for one resampler")

    width, height = 640, 440
    left, right, top, bottom = 70, 170, 20, 50
    xs = sorted({n for _, pts in lines for n, _, _ in pts})
    ymax = max(err for _, pts in lines for _, err, _ in pts)
    ymax = ymax if ymax > 0 else 1.0
    x0, x1 = min(xs), max(xs)
    span = (x1 - x0) if x1 > x0 else 1

    def px(n: float) -> float:
        return left + (n - x0) / span * (width - left - right)

    def py(err: float) -> float:
        return top + (1.0 - err / ymax) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
    ]
    for n in xs:
        parts.append(
            f'<text x="{px(n):.1f}" y="{height - bottom + 18}" font-size="11" '
            f'text-anchor="middle">{n}</text>'
        )
    for i in range(5):
        err = ymax * i / 4
        parts.append(
            f'<text x="{left - 6}" y="{py(err):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{err:.3g}</text>'
        )
    parts.append(
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">particles</text>'
    )
    parts.append(
        f'<text x="16" y="{(top + height - bottom) / 2:.1f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {(top + height - bottom) / 2:.1f})">'
        "mean error (px)</text>"
    )
    for i, (label, points) in enumerate(lines):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{px(n):.2f},{py(err):.2f}" for n, err, _ in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        ly = top + 16 + 18 * i
        parts.append(
            f'<line x1="{width - right + 8}" y1="{ly}" x2="{width - right + 28}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - right + 34}" y="{ly + 4}" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
