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
    return np.where((t > -np.pi) & (t <= np.pi), t, wrapped)[()]


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
        if not all(0 < v < math.inf for v in self.lengths + self.widths):
            raise ValueError("part dimensions must be positive and finite")

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
    # Corners (..., 4, 2) at states (..., 3), sizes scalar or (..., 1) arrays.
    c, s = np.cos(states[..., 2, None]), np.sin(states[..., 2, None])
    lx, ly = _CORNERS[:, 0] * lengths, _CORNERS[:, 1] * widths
    x, y = states[..., 0, None], states[..., 1, None]
    return np.stack((x + lx * c - ly * s, y + lx * s + ly * c), axis=-1)


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


def _attach(state, cols, pcols, hp, hk, theta) -> None:
    # The joint rule: parts ``cols`` take angles ``theta`` and sit with their
    # base midpoints on the tip midpoints of parts ``pcols``; hp and hk are
    # the half lengths of the parents and the parts.
    parent = state[..., pcols, :]
    tp = parent[..., 2]
    state[..., cols, 0] = parent[..., 0] + hp * np.cos(tp) + hk * np.cos(theta)
    state[..., cols, 1] = parent[..., 1] + hp * np.sin(tp) + hk * np.sin(theta)
    state[..., cols, 2] = theta


def _stages(model: ArticulatedModel):
    # (cols, pcols, hp, hk) of each partition stage after the roots
    spec = model.spec
    half = np.asarray(model.lengths) / 2.0
    for step in compute_partition(spec).steps[1:]:
        cols = np.array(step) - 1
        pcols = np.array([spec.parent_of(k) for k in step]) - 1
        yield cols, pcols, half[pcols], half[cols]


def default_pose(model: ArticulatedModel, centre: tuple[float, float]) -> ObjectState:
    """Joint-consistent rest pose: roots at ``centre`` facing +x, children of
    each part fanned evenly over the open interval (-pi, pi) relative to the
    parent (a single child continues straight; nothing folds back over its
    parent).  Built with the same attachment rule as ``ground_truth_step``
    so stepping it with zero noise is an exact no-op.
    """
    state = np.zeros((model.part_count, 3))
    state[np.array(compute_partition(model.spec).steps[0]) - 1, :2] = centre
    for cols, pcols, hp, hk in _stages(model):
        # siblings share a stage: each part's rank by id among them, and their count
        same = pcols[:, None] == pcols
        rank = (same & (cols < cols[:, None])).sum(axis=1)
        rel = -np.pi + TWO_PI * (rank + 1) / (same.sum(axis=1) + 1)
        _attach(state, cols, pcols, hp, hk, wrap_angle(state[pcols, 2] + rel))
    return state


def ground_truth_step(
    model: ArticulatedModel,
    state: ObjectState,
    sigma_xy: float,
    sigma_theta: float,
    rng: np.random.Generator,
    root_bounds: tuple[float, float, float, float] | None = None,
) -> ObjectState:
    """One motion step that keeps joints attached.

    Roots take Gaussian steps in x, y (``sigma_xy``, pixels) and theta
    (``sigma_theta``, radians); every other part's joint angle gets a
    Gaussian perturbation, and the part is re-placed so its base midpoint
    stays on its parent's tip midpoint.  ``root_bounds``
    (xmin, xmax, ymin, ymax) clamps root centres after the step.  The draws
    are (dx, dy, dtheta) of each root, then dtheta of each later part, in
    partition order.

    The input must itself satisfy the joint rule (as poses built by
    ``default_pose`` and previous steps do); with all-zero sigmas the output
    then equals the input exactly.
    """
    out = np.array(state, dtype=float, copy=True)
    roots = np.array(compute_partition(model.spec).steps[0]) - 1
    step = rng.normal(0.0, (sigma_xy, sigma_xy, sigma_theta), (len(roots), 3))
    out[roots] += step
    if root_bounds is not None:
        out[roots, :2] = np.minimum(np.maximum(out[roots, :2], root_bounds[::2]), root_bounds[1::2])
    out[roots, 2] = wrap_angle(out[roots, 2])
    # total rotation applied to each part this step, carried down the tree so
    # children follow their parent rigidly before their own joint noise
    applied = np.zeros(model.part_count)
    applied[roots] = step[:, 2]
    for cols, pcols, hp, hk in _stages(model):
        applied[cols] = applied[pcols] + rng.normal(0.0, sigma_theta, len(cols))
        _attach(out, cols, pcols, hp, hk, wrap_angle(out[cols, 2] + applied[cols]))
    return out


def polygon_run_batches(corners, x0, y0, nx, ny, cells=None):
    """Runs of N convex polygons, corners (N, m, 2), yielded as (batch, lo,
    hi), row-major (ny[batch].max(), placements): row r of placement i fills
    the block columns [lo[r, i], hi[r, i]) under the ``polygon_fills`` rule.
    Batches hold at most ``cells`` cells (placements x the call's largest
    block's cells); with ``cells`` None, one batch, even for N = 0.  Once per
    call, from one coordinate-major (2, m, N) copy of the corners: each edge's
    x1, y1, dx = x2 - x1, dy = y2 - y1 and span bounds as (m, 1, N) arrays
    that broadcast over a batch's rows, float64 x0, y0 and nx, the row
    centres r + 0.5 and the count dtype (narrowest signed above ``nx.max()``)."""
    n, rows, width = len(x0), int(ny.max(initial=0)), int(nx.max(initial=0))
    step = max(1, n if cells is None else cells // max(1, rows * width))
    dtype = np.min_scalar_type(-width - 1)
    centres = np.arange(0.5, rows)[:, None]
    x1, y1 = xy = np.ascontiguousarray(corners.transpose(2, 1, 0))[:, :, None]
    x2, y2 = np.concatenate((xy[:, 1:], xy[:, :1]), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        spans = np.minimum(y1, y2), np.minimum(np.maximum(y1, y2), y0 + ny)
        per_call = (x1, y1, x2 - x1, y2 - y1, *spans, *(v.astype(float) for v in (x0, y0, nx)))
    for start in range(0, max(n, 1), step):
        batch = slice(start, start + step)
        yc = centres[: int(ny[batch].max(initial=0))]
        yield batch, *_batch_runs([v[..., batch] for v in per_call], yc, dtype)


def _batch_runs(per_call, centres, dtype):
    # Runs (rows, placements) of one batch at row centres r + 0.5 (rows, 1).
    # Entry (e, r, i) of its crossing columns counts the columns c < nx[i] of
    # block i whose centre x0 + c + 0.5 lies strictly left of edge e's crossing
    # xint at row centre y0 + r + 0.5, or is 0 where the edge's half-open span
    # misses the row or r >= ny[i]: ceil(xint - 0.5) - x0 clipped to [0, nx], a
    # whole number (exact for blocks inside [0, 2**52), 0 for a NaN crossing),
    # so it is cast before the span mask.  The arrays die on return: held across
    # a yield, they made the allocator trim and refault the heap every call.
    x1, y1, dx, dy, lo_y, hi_y, x0, y0, nx = per_call
    yc = y0 + centres
    spans = lo_y <= yc
    spans &= yc < hi_y
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # xint = x1 + (yc - y1) / (y2 - y1) * (x2 - x1), then the count
        cols = np.subtract(yc, y1)
        cols /= dy
        cols *= dx
        cols += x1
        cols -= 0.5
        np.ceil(cols, out=cols)
        cols -= x0
        np.fmax(cols, 0, out=cols)
        np.minimum(cols, nx, out=cols)
    ints = cols.astype(dtype)
    ints *= spans
    # a convex polygon's row crosses two edges or none: its run lies between
    # its two largest counts (a streaming top two)
    s0, s1, *rest = ints
    lo, hi = np.minimum(s0, s1), np.maximum(s0, s1)
    for t in rest:
        lo, hi = np.maximum(lo, np.minimum(hi, t)), np.maximum(hi, t)
    return lo, hi


def polygon_fills(corners, x0, y0, nx, ny) -> np.ndarray:
    """Scanline fills (N, max ny, max nx) of N convex polygons at once, from
    the one batch of their ``polygon_run_batches``.

    Entry i covers the pixel block of size (ny[i], nx[i]) at (x0[i], y0[i])
    in its top-left corner.  A pixel belongs to a polygon iff its centre
    (ix + 0.5, iy + 0.5) lies inside under the even-odd crossing rule with
    half-open edge spans (y1 <= yc < y2) and a strict x comparison.  Centres
    strictly inside are always in; centres exactly on the boundary resolve
    consistently, so translating a polygon by whole pixels translates its
    fill.  Padded cells are never set: ``polygon_run_batches`` gives their
    rows no crossing and clips every crossing to the block's width.
    """
    ((_, lo, hi),) = polygon_run_batches(corners, x0, y0, nx, ny)
    c = np.arange(int(nx.max(initial=0)), dtype=lo.dtype)
    return (c >= lo.T[..., None]) & (c < hi.T[..., None])


def polygon_mask(corners: np.ndarray, x0: int, y0: int, nx: int, ny: int) -> np.ndarray:
    """Fill (ny, nx) of one polygon over the block at (x0, y0):
    ``polygon_fills`` for one polygon."""
    return polygon_fills(corners[None], *(np.array([v]) for v in (x0, y0, nx, ny)))[0]


def polygon_bboxes(corners: np.ndarray, width: int, height: int):
    """Pixel blocks covering N polygons, corners (N, m, 2), clipped to the
    canvas: int arrays (x0, y0, nx, ny).  A polygon wholly off the canvas
    gets an empty block; a NaN or infinite corner raises ValueError.  The min
    and max read m contiguous rows of a coordinate-major (2, m, N) copy, or of
    the array a transposed view is of."""
    xy = np.ascontiguousarray(corners.transpose(2, 1, 0))
    lo = np.floor(xy.min(axis=1) - 0.5)
    hi = np.ceil(xy.max(axis=1) + 0.5)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("polygon corners must be finite")
    size = np.array([[width], [height]])
    start = np.minimum(np.maximum(lo, 0), size)
    stop = np.minimum(hi, size - 1)
    extent = np.maximum(0, stop - start + 1)
    x0, y0 = start.astype(np.intp)
    nx, ny = extent.astype(np.intp)
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
    masks = polygon_fills(corners, x0, y0, nx, ny)
    for i in range(p):
        block = img[y0[i] : y0[i] + ny[i], x0[i] : x0[i] + nx[i]]
        block[masks[i, : ny[i], : nx[i]]] = part_intensity(i + 1, p)
    return img


def estimation_error(model: ArticulatedModel, estimate: ObjectState, truth: ObjectState):
    """Sum over parts and their four corners of Euclidean corner distances,
    one per pose of stacked poses (..., P, 3), a float for one pose (P, 3)."""
    diff = object_corners(model, estimate) - object_corners(model, truth)
    errors = np.sqrt((diff * diff).sum(axis=-1)).sum(axis=(-2, -1))
    return errors if errors.ndim else float(errors)
