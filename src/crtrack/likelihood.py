"""Appearance model: 8-bin gray histograms compared with the Bhattacharyya
distance, turned into per-part likelihood factors."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import (
    ArticulatedModel,
    ObjectState,
    place_polygon,
    polygon_bbox,
    polygon_bboxes,
    polygon_mask,
    polygon_masks,
)

log = logging.getLogger(__name__)

BIN_COUNT = 8
_UNIFORM = np.full(BIN_COUNT, 1.0 / BIN_COUNT)

# Most cells (particles x window rows x window columns) rasterized in one
# pass; larger batches are split over particles to bound memory.
WINDOW_CELLS = 1 << 18


@dataclass(frozen=True)
class LikelihoodParams:
    """``lam`` scales the squared distance in the likelihood exponent."""

    lam: float = 50.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")


@dataclass(frozen=True)
class Histogram8:
    """Normalized 8-bin intensity histogram over [0, 255].

    ``empty`` marks a region containing no pixel; the bins are then uniform so
    every downstream distance stays defined.
    """

    bins: np.ndarray
    empty: bool = False


def region_histogram(image: np.ndarray, corners: np.ndarray) -> Histogram8:
    """Histogram of the pixels whose centres fall inside the quadrilateral.

    Bin i collects intensities [32 i, 32 i + 31].  Pixel membership follows
    the same boundary rule as rendering (``polygon_mask``).
    """
    height, width = image.shape
    x0, y0, nx, ny = polygon_bbox(corners, width, height)
    if nx > 0 and ny > 0:
        mask = polygon_mask(corners, x0, y0, nx, ny)
        values = image[y0 : y0 + ny, x0 : x0 + nx][mask]
        if values.size:
            counts = np.bincount(values >> 5, minlength=BIN_COUNT)
            return Histogram8(counts / values.size)
    return Histogram8(_UNIFORM.copy(), empty=True)


def bhattacharyya(p: Histogram8, q: Histogram8) -> float:
    """Distance in [0, 1] between two normalized histograms.

    sqrt(1 - sum_i sqrt(p_i q_i)), with the argument clamped at zero so
    rounding can never produce a NaN.
    """
    coeff = float(np.sqrt(p.bins * q.bins).sum())
    return math.sqrt(max(0.0, 1.0 - coeff))


def part_weight_factor(distance: float, params: LikelihoodParams) -> float:
    """Likelihood factor exp(-lam * d^2) for one part."""
    return math.exp(-params.lam * distance * distance)


def region_histograms(image: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Histograms (N, 8) of N quadrilaterals with corners (N, 4, 2).

    Row i equals ``region_histogram(image, corners[i]).bins`` bit for bit,
    uniform for a region with no pixel.  All regions are rasterized over one
    window sized to the largest clipped bounding box (split over particles
    beyond ``WINDOW_CELLS``), and all counts come from one ``np.bincount``
    over ``particle * 8 + bin``.
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
    sizes = counts.sum(axis=1, keepdims=True)
    hists = np.full((n, BIN_COUNT), 1.0 / BIN_COUNT)
    np.divide(counts, sizes, out=hists, where=sizes > 0)
    return hists


def part_factors(image: np.ndarray, corners: np.ndarray, ref: Histogram8, lam: float) -> np.ndarray:
    """Likelihood factors exp(-lam d^2) of N placements of one part, corners
    (N, 4, 2), against its reference histogram.

    Entry i equals ``part_weight_factor(bhattacharyya(region_histogram(image,
    corners[i]), ref), LikelihoodParams(lam))`` bit for bit; the exponential
    is taken with ``math.exp`` per placement because ``np.exp`` rounds some
    arguments differently.
    """
    coeff = np.sqrt(region_histograms(image, corners) * ref.bins).sum(axis=1)
    distance = np.sqrt(np.maximum(0.0, 1.0 - coeff))
    return np.array([math.exp(v) for v in (-lam * distance * distance).tolist()])


def init_references(
    image: np.ndarray, model: ArticulatedModel, initial: ObjectState
) -> list[Histogram8]:
    """Reference histogram per part, taken from the first frame at the known
    initial pose and kept fixed afterwards.  Parts landing outside the canvas
    get a uniform reference and a warning."""
    refs: list[Histogram8] = []
    for k in range(1, model.part_count + 1):
        hist = region_histogram(image, place_polygon(model, k, initial[k - 1]))
        if hist.empty:
            log.warning("part %d covers no pixel at the initial pose; using a uniform reference", k)
        refs.append(hist)
    return refs
