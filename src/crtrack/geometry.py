"""Rectangular part geometry, ground-truth motion and frame rendering.

A part state is a row (x, y, theta): rectangle centre in pixels and
orientation in radians, theta wrapped to (-pi, pi].  An object state is an
(P, 3) float array with part k in row k - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dbn import DbnSpec, compute_partition

# ObjectState: np.ndarray of shape (P, 3), columns (x, y, theta).
ObjectState = np.ndarray

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Wrap to (-pi, pi].  Values already in range are returned unchanged
    (bit for bit), so adding a zero perturbation is an exact identity."""
    t = np.asarray(theta, dtype=float)
    wrapped = np.pi - np.mod(np.pi - t, TWO_PI)
    out = np.where((t > -np.pi) & (t <= np.pi), t, wrapped)
    if np.isscalar(theta) or out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class MotionParams:
    """Per-step Gaussian sigmas: translation in pixels, rotation in radians."""

    sigma_xy: float
    sigma_theta: float

    def __post_init__(self):
        if self.sigma_xy < 0 or self.sigma_theta < 0:
            raise ValueError("motion sigmas must be >= 0")


@dataclass(frozen=True)
class ArticulatedModel:
    """Link structure plus the rectangle dimensions of every part."""

    spec: DbnSpec
    lengths: tuple[float, ...]
    widths: tuple[float, ...]

    def __post_init__(self):
        p = self.spec.part_count
        if len(self.lengths) != p or len(self.widths) != p:
            raise ValueError("need one length and width per part")
        if any(v <= 0 for v in self.lengths + self.widths):
            raise ValueError("part dimensions must be positive")

    @classmethod
    def uniform(cls, spec: DbnSpec, length: float, width: float) -> "ArticulatedModel":
        p = spec.part_count
        return cls(spec, (float(length),) * p, (float(width),) * p)

    @property
    def part_count(self) -> int:
        return self.spec.part_count


# Unit corner offsets, counterclockwise from the base-left corner.  The base
# is the edge through which a part attaches to its parent (local -x side),
# the tip is the opposite edge (local +x side).
_CORNERS = np.array([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])


def _place(states: np.ndarray, lengths, widths) -> np.ndarray:
    # Corners (N, 4, 2) of N rectangles, sizes scalar or per-row columns.
    # Cosines and sines come from ``math``, one call per row.
    theta = states[:, 2].tolist()
    c = np.array([math.cos(t) for t in theta])[:, None]
    s = np.array([math.sin(t) for t in theta])[:, None]
    lx, ly = _CORNERS[:, 0] * lengths, _CORNERS[:, 1] * widths
    x, y = states[:, 0, None], states[:, 1, None]
    return np.stack((x + lx * c - ly * s, y + lx * s + ly * c), axis=2)


def place_polygons(model: ArticulatedModel, k: int, states) -> np.ndarray:
    """Corners (N, 4, 2) of part k at every (x, y, theta) row of ``states``.

    Order is fixed: counterclockwise starting at the base-left corner, i.e.
    local (-L/2, -W/2), (L/2, -W/2), (L/2, W/2), (-L/2, W/2) rotated by theta
    and translated to the centre.
    """
    return _place(np.asarray(states, dtype=float), model.lengths[k - 1], model.widths[k - 1])


def place_polygon(model: ArticulatedModel, k: int, state) -> np.ndarray:
    """Corners (4, 2) of part k at one (x, y, theta): ``place_polygons`` for
    one row."""
    return place_polygons(model, k, np.asarray(state, dtype=float)[None])[0]


def object_corners(model: ArticulatedModel, state: ObjectState) -> np.ndarray:
    """Corners of every part, shape (P, 4, 2); row k - 1 equals
    ``place_polygons(model, k, state[k - 1 : k])[0]`` bit for bit."""
    lengths, widths = np.asarray(model.lengths)[:, None], np.asarray(model.widths)[:, None]
    return _place(np.asarray(state, dtype=float), lengths, widths)


def tip_point(model: ArticulatedModel, k: int, state) -> tuple[float, float]:
    """Midpoint of part k's tip edge, where children attach."""
    x, y, theta = float(state[0]), float(state[1]), float(state[2])
    half = model.lengths[k - 1] / 2.0
    return (x + half * math.cos(theta), y + half * math.sin(theta))


def _attach_centre(model: ArticulatedModel, k: int, theta: float, tip: tuple[float, float]) -> tuple[float, float]:
    # Centre such that the base midpoint of part k lands on the parent tip.
    half = model.lengths[k - 1] / 2.0
    return (tip[0] + half * math.cos(theta), tip[1] + half * math.sin(theta))


def default_pose(model: ArticulatedModel, centre: tuple[float, float]) -> ObjectState:
    """Joint-consistent rest pose: roots at ``centre`` facing +x, children of
    each part fanned evenly over the open interval (-pi, pi) relative to the
    parent (a single child continues straight; nothing folds back over its
    parent).  Built with the same attachment arithmetic as
    ``ground_truth_step`` so stepping it with zero noise is an exact no-op.
    """
    spec = model.spec
    state = np.zeros((spec.part_count, 3))
    for step in compute_partition(spec).steps:
        for k in step:
            parent = spec.parent_of(k)
            if parent is None:
                state[k - 1] = (centre[0], centre[1], 0.0)
                continue
            siblings = spec.children_of(parent)
            rank = siblings.index(k)
            rel = -np.pi + TWO_PI * (rank + 1) / (len(siblings) + 1)
            theta = wrap_angle(state[parent - 1, 2] + rel)
            tip = tip_point(model, parent, state[parent - 1])
            cx, cy = _attach_centre(model, k, theta, tip)
            state[k - 1] = (cx, cy, theta)
    return state


def ground_truth_step(
    model: ArticulatedModel,
    state: ObjectState,
    params: MotionParams,
    rng: np.random.Generator,
    root_bounds: tuple[float, float, float, float] | None = None,
) -> ObjectState:
    """One motion step that keeps joints attached.

    Roots take Gaussian steps in x, y and theta; every other part gets a
    Gaussian perturbation of its joint angle and is re-placed so its base
    midpoint stays on its parent's tip midpoint.  ``root_bounds``
    (xmin, xmax, ymin, ymax) clamps root centres after the step.

    The input must itself satisfy the joint rule (as poses built by
    ``default_pose`` and previous steps do); with all-zero sigmas the output
    then equals the input exactly.
    """
    spec = model.spec
    out = np.array(state, dtype=float, copy=True)
    # total rotation applied to each part this step, carried down the tree so
    # children follow their parent rigidly before their own joint noise
    applied = np.zeros(spec.part_count)
    for step in compute_partition(spec).steps:
        for k in step:
            parent = spec.parent_of(k)
            if parent is None:
                dx = rng.normal(0.0, params.sigma_xy)
                dy = rng.normal(0.0, params.sigma_xy)
                dt = rng.normal(0.0, params.sigma_theta)
                x = out[k - 1, 0] + dx
                y = out[k - 1, 1] + dy
                if root_bounds is not None:
                    x = min(max(x, root_bounds[0]), root_bounds[1])
                    y = min(max(y, root_bounds[2]), root_bounds[3])
                out[k - 1] = (x, y, wrap_angle(out[k - 1, 2] + dt))
                applied[k - 1] = dt
            else:
                dt = rng.normal(0.0, params.sigma_theta)
                inc = applied[parent - 1] + dt
                theta = wrap_angle(out[k - 1, 2] + inc)
                tip = tip_point(model, parent, out[parent - 1])
                cx, cy = _attach_centre(model, k, theta, tip)
                out[k - 1] = (cx, cy, theta)
                applied[k - 1] = inc
    return out


def polygon_masks(
    corners: np.ndarray, x0: np.ndarray, y0: np.ndarray, nx: np.ndarray, ny: np.ndarray
) -> np.ndarray:
    """Scanline fills of N simple polygons at once, shape (N, max ny, max nx).

    Entry i covers the pixel block of size (ny[i], nx[i]) at (x0[i], y0[i])
    in its top-left corner.  A pixel belongs to a polygon iff its centre
    (ix + 0.5, iy + 0.5) lies inside under the even-odd crossing rule with
    half-open edge spans (y1 <= yc < y2) and a strict x comparison.  Centres
    strictly inside are always in; centres exactly on the boundary resolve
    consistently, so translating a polygon by whole pixels translates its
    fill.  Padded cells are never set: their rows get no crossing and their
    columns a centre at +inf.
    """
    n, m = corners.shape[:2]
    rows = np.arange(int(ny.max(initial=0)))
    cols = np.arange(int(nx.max(initial=0)))
    yc = y0[:, None] + rows + 0.5
    xc = np.where(cols < nx[:, None], x0[:, None] + cols + 0.5, np.inf)
    padded = rows >= ny[:, None]
    mask = np.zeros((n, len(rows), len(cols)), dtype=bool)
    crossed = np.empty_like(mask)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for e in range(m):
            x1, y1 = corners[:, e, 0, None], corners[:, e, 1, None]
            x2, y2 = corners[:, (e + 1) % m, 0, None], corners[:, (e + 1) % m, 1, None]
            spans = ((y1 <= yc) & (yc < y2)) | ((y2 <= yc) & (yc < y1))
            xint = x1 + (yc - y1) / (y2 - y1) * (x2 - x1)
            xint[~spans | padded] = -np.inf
            np.less(xc[:, None, :], xint[:, :, None], out=crossed)
            mask ^= crossed
    return mask


def polygon_mask(corners: np.ndarray, x0: int, y0: int, nx: int, ny: int) -> np.ndarray:
    """Fill (ny, nx) of one polygon over the block at (x0, y0):
    ``polygon_masks`` for one polygon."""
    return polygon_masks(corners[None], *(np.array([v]) for v in (x0, y0, nx, ny)))[0]


def polygon_bboxes(corners: np.ndarray, width: int, height: int):
    """Pixel blocks covering N polygons, corners (N, 4, 2), clipped to the
    canvas: int arrays (x0, y0, nx, ny).  A polygon wholly off the canvas
    gets an empty block."""
    lo = np.floor(corners.min(axis=1) - 0.5)
    hi = np.ceil(corners.max(axis=1) + 0.5)
    size = np.array([width, height])
    start = np.clip(lo, 0, size)
    stop = np.minimum(hi, size - 1)
    extent = np.maximum(0, stop - start + 1)
    x0, y0 = start.astype(np.intp).T
    nx, ny = extent.astype(np.intp).T
    return x0, y0, nx, ny


def part_intensity(k: int, part_count: int) -> int:
    """Deterministic distinct gray level per part.

    Part 1 is brightest; later parts cycle through the six 32-wide intensity
    bands between the background band and part 1's band, with a per-part
    offset keeping levels distinct for part counts up to 85.  Consecutive
    parts therefore never share an 8-bin histogram interval with each other,
    with part 1 or with the intensity-0 background, which keeps neighbouring
    parts distinguishable to histogram likelihoods.
    """
    if k == 1 or part_count == 1:
        return 255
    band = 1 + (k - 2) % 6
    return 32 * band + 4 + (k - 2) % 28


def render_frame(model: ArticulatedModel, state: ObjectState, width: int, height: int) -> np.ndarray:
    """Grayscale frame (height, width) uint8: background 0, each part filled
    with its own intensity, higher part ids painted on top."""
    img = np.zeros((height, width), dtype=np.uint8)
    p = model.part_count
    corners = object_corners(model, state)
    x0, y0, nx, ny = polygon_bboxes(corners, width, height)
    masks = polygon_masks(corners, x0, y0, nx, ny)
    for i in range(p):
        block = img[y0[i] : y0[i] + ny[i], x0[i] : x0[i] + nx[i]]
        block[masks[i, : ny[i], : nx[i]]] = part_intensity(i + 1, p)
    return img


def estimation_error(model: ArticulatedModel, estimate: ObjectState, truth: ObjectState) -> float:
    """Sum over parts and their four corners of Euclidean corner distances."""
    diff = object_corners(model, estimate) - object_corners(model, truth)
    return float(np.sqrt((diff * diff).sum(axis=2)).sum())
