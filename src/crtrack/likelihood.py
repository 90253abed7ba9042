"""Appearance model: 8-bin gray histograms compared with the Bhattacharyya
distance, turned into per-part likelihood factors."""

from __future__ import annotations

import logging
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import (
    ArticulatedModel,
    ObjectState,
    object_corners,
    polygon_bboxes,
    polygon_mask,
    polygon_masks,
)

log = logging.getLogger(__name__)

BIN_COUNT = 8

# Most cells (particles x window rows x window columns) rasterized in one
# pass; larger batches are split over particles to bound memory.
WINDOW_CELLS = 1 << 18


def region_counts(image: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Pixel counts (N, 8) per intensity bin of N quadrilaterals with corners
    (N, 4, 2).

    Bin i collects intensities [32 i, 32 i + 31] of the pixels whose centres
    fall inside (the ``polygon_masks`` rule).  All regions are rasterized
    over one window sized to the largest clipped bounding box (split over
    particles beyond ``WINDOW_CELLS``), and all counts come from one
    ``np.bincount`` over ``particle * 8 + bin``.
    """
    height, width = image.shape
    n = len(corners)
    x0, y0, nx, ny = polygon_bboxes(corners, width, height)
    counts = np.zeros((n, BIN_COUNT), dtype=np.int64)
    wy, wx = int(ny.max(initial=0)), int(nx.max(initial=0))
    # windows[i] is the (wy, wx) block at (x0[i], y0[i]); the zero padding
    # keeps blocks at the far edges in bounds and is always masked out
    padded = np.zeros((height + wy, width + wx), dtype=image.dtype)
    padded[:height, :width] = image
    windows = sliding_window_view(padded, (wy, wx))
    step = max(1, WINDOW_CELLS // max(1, wy * wx))
    for lo in range(0, n, step):
        batch = slice(lo, lo + step)
        mask = polygon_masks(corners[batch], x0[batch], y0[batch], nx[batch], ny[batch])
        values = windows[y0[batch], x0[batch], : mask.shape[1], : mask.shape[2]][mask] >> 5
        keys = np.repeat(np.arange(len(mask)) * BIN_COUNT, np.count_nonzero(mask, axis=(1, 2)))
        keys += values
        counts[batch] = np.bincount(keys, minlength=len(mask) * BIN_COUNT).reshape(-1, BIN_COUNT)
    return counts


def _normalized(counts: np.ndarray) -> np.ndarray:
    """Histograms (N, 8) from bin counts; uniform for a region with no pixel."""
    sizes = counts.sum(axis=1, keepdims=True)
    hists = np.full(counts.shape, 1.0 / BIN_COUNT)
    np.divide(counts, sizes, out=hists, where=sizes > 0)
    return hists


def region_histograms(image: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Normalized histograms (N, 8) of N quadrilaterals, uniform for a region
    with no pixel."""
    return _normalized(region_counts(image, corners))


def region_histogram(image: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Histogram (8,) of one quadrilateral, corners (4, 2)."""
    return region_histograms(image, corners[None])[0]


def bhattacharyya(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances in [0, 1] between normalized histograms along the last axis.

    sqrt(1 - sum_i sqrt(p_i q_i)), with the argument clamped at zero so
    rounding can never produce a NaN.
    """
    return np.sqrt(np.maximum(0.0, 1.0 - np.sqrt(p * q).sum(axis=-1)))


def part_weight_factor(distance: np.ndarray, lam: float) -> np.ndarray:
    """Likelihood factors exp(-lam d^2) of an array of distances, any shape.

    The exponential is taken with ``math.exp`` per entry because ``np.exp``
    rounds some arguments differently from the scalar reference.
    """
    exponents = -lam * distance * distance
    return np.array([math.exp(v) for v in exponents.ravel().tolist()]).reshape(exponents.shape)


def part_factors(image: np.ndarray, corners: np.ndarray, refs: np.ndarray, lam: float) -> np.ndarray:
    """Likelihood factors of placements with corners (..., 4, 2) against
    reference histograms (..., 8) that broadcast with them, all regions
    counted in one ``region_counts`` pass."""
    hists = region_histograms(image, corners.reshape(-1, *corners.shape[-2:]))
    distances = bhattacharyya(hists.reshape(*corners.shape[:-2], BIN_COUNT), refs)
    return part_weight_factor(distances, lam)


def init_references(image: np.ndarray, model: ArticulatedModel, initial: ObjectState) -> np.ndarray:
    """Reference histograms (P, 8), row k - 1 for part k, taken from the
    first frame at the known initial pose and kept fixed afterwards.  Parts
    landing outside the canvas get a uniform reference and a warning.  The
    counts equal ``region_counts`` over ``object_corners``; each part goes
    through ``polygon_mask`` because the benchmark tracer counts cells there.
    """
    height, width = image.shape
    corners = object_corners(model, initial)
    counts = np.zeros((len(corners), BIN_COUNT), dtype=np.int64)
    for i, (x0, y0, nx, ny) in enumerate(zip(*polygon_bboxes(corners, width, height))):
        values = image[y0 : y0 + ny, x0 : x0 + nx][polygon_mask(corners[i], x0, y0, nx, ny)]
        counts[i] = np.bincount(values >> 5, minlength=BIN_COUNT)
    for k in np.flatnonzero(counts.sum(axis=1) == 0) + 1:
        log.warning("part %d covers no pixel at the initial pose; using a uniform reference", k)
    return _normalized(counts)
