"""Appearance model: 8-bin gray histograms compared with the Bhattacharyya
distance, turned into per-part likelihood factors."""

from __future__ import annotations

import logging

import numpy as np

from .geometry import (
    ArticulatedModel,
    ObjectState,
    object_corners,
    polygon_bboxes,
    polygon_mask,
    polygon_run_batches,
)

log = logging.getLogger(__name__)

BIN_COUNT = 8

# Most cells (particles x the call's largest box's cells) in a batch: this
# bounds the crossing arrays, edges x the batch's tallest box's rows x
# particles, and the (rows, particles, words) table reads; none spans columns.
WINDOW_CELLS = 1 << 18


def _field_ones(bits: int) -> np.ndarray:
    """Cell values (256, 8 * bits // 64) uint64 of an intensity v for fields
    of ``bits`` bits, 64 // bits to a word: a one in field (v >> 5) % fields
    of word (v >> 5) // fields, in row v for a cell-major gather."""
    fields = 64 // bits
    bins = np.arange(256, dtype=np.uint64)[:, None] >> 5
    words = np.arange(BIN_COUNT // fields)
    return np.where(bins // fields == words, np.uint64(1) << bins % fields * bits, np.uint64(0))


# Cell values for each packed field width, narrowest first
_FIELD_ONES = {bits: _field_ones(bits) for bits in (8, 16, 32)}


def region_counts(image: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Pixel counts (N, 8) per intensity bin of N quadrilaterals with corners
    (N, 4, 2) on a 2-D uint8 ``image``; any other image raises ValueError.

    Bin i collects intensities [32 i, 32 i + 31] of the pixels whose centres
    fall inside (the ``polygon_fills`` rule).  The window is the union of the
    non-empty clipped boxes.  Each of its cells maps to a one in the bits
    field of its bin, packed ``64 // bits`` fields to a uint64 word, where
    ``bits`` in (8, 16, 32) is the narrowest width above the largest box's
    cell count, so no field of a placement's sum can carry.  The table is
    cell-major, (h * w + 1, words): one ``np.take`` of ``_field_ones`` rows
    after a leading zero cell, then one running sum over every cell of the
    window, row after row.  Packing is linear modulo 2**64, so entry j is the
    packed sum of the first j cells and a ``polygon_runs`` run's packed sum is
    the difference of two entries, however often the sum before it wrapped;
    a run costs two (words,) reads.  The boxes and the run batches
    (``WINDOW_CELLS``) get a transposed view of one (2, 4, N) coordinate-major
    copy of the corners, which they read without a copy.
    """
    if getattr(image, "dtype", None) != np.uint8 or image.ndim != 2:
        raise ValueError("expected a 2-D uint8 image")
    height, width = image.shape
    n = len(corners)
    corners = np.ascontiguousarray(corners.transpose(2, 1, 0)).transpose(2, 1, 0)
    x0, y0, nx, ny = polygon_bboxes(corners, width, height)
    counts = np.zeros((n, BIN_COUNT), dtype=np.int64)
    cells = nx * ny
    boxed = cells > 0
    if not boxed.any():
        return counts
    left, top = x0[boxed].min(), y0[boxed].min()
    w, h = (x0 + nx)[boxed].max() - left, (y0 + ny)[boxed].max() - top
    bits = next(b for b in _FIELD_ONES if cells.max() < 1 << b)
    ones = _FIELD_ONES[bits]
    flat = np.zeros((h * w + 1, ones.shape[1]), dtype=np.uint64)
    np.take(ones, image[top : top + h, left : left + w].ravel(), axis=0, out=flat[1:], mode="clip")
    np.cumsum(flat, axis=0, out=flat)
    shifts = np.arange(0, 64, bits, dtype=np.uint64)
    mask = np.uint64((1 << bits) - 1)
    for batch, lo, hi in polygon_run_batches(corners, x0, y0, nx, ny, WINDOW_CELLS):
        # row r of placement i starts at cell (y0 + r - top) * w + x0 - left;
        # a padded row or empty box has lo == hi, so any clipped index reads 0
        stride = np.arange(0, len(lo) * w, w)[:, None]
        first = (y0[batch] - top) * w + x0[batch] - left + stride
        packed = np.take(flat, first + hi, axis=0, mode="clip")
        packed -= np.take(flat, first + lo, axis=0, mode="clip")
        sums = packed.sum(axis=0)
        counts[batch] = (sums[..., None] >> shifts & mask).reshape(-1, BIN_COUNT)
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
    """Likelihood factors exp(-lam d^2) of an array of distances, any shape."""
    return np.exp(-lam * distance * distance)


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
