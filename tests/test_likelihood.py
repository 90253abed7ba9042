import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtrack.dbn import DbnSpec
from crtrack.geometry import (
    ArticulatedModel,
    default_pose,
    object_corners,
    part_intensity,
    place_polygons,
    polygon_bboxes,
    polygon_runs,
    render_frame,
)
from crtrack import likelihood
from crtrack.likelihood import (
    BIN_COUNT,
    WINDOW_CELLS,
    init_references,
    part_factors,
    region_counts,
    region_histograms,
)

from oracles import (
    Histogram8,
    brute_force_mask,
    mask_region_counts,
    part_factor,
    place_polygon,
    region_histogram,
)

UNIFORM = np.full(BIN_COUNT, 1.0 / BIN_COUNT)


def hist(*bins):
    return np.asarray(bins, dtype=float)


def rect_corners(cx, cy, hx, hy, theta=0.0):
    c, s = math.cos(theta), math.sin(theta)
    local = [(-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy)]
    return np.array([(cx + c * x - s * y, cy + s * x + c * y) for x, y in local])


def histogram_of_one(image, corners):
    """``region_histograms`` of one region."""
    return region_histograms(image, corners[None])[0]


def row_of_bins(counts):
    """A one-row image holding ``counts[i]`` pixels of bin i, and the corners
    (1, 4, 2) of a rectangle covering exactly that row."""
    image = np.repeat(np.arange(BIN_COUNT, dtype=np.uint8) * 32 + 7, counts)[None, :]
    width = float(image.shape[1])
    return image, np.array([[(0.0, 0.0), (width, 0.0), (width, 1.0), (0.0, 1.0)]])


def factor(counts, ref, lam):
    """``part_factors`` of a region whose bin counts are ``counts``."""
    image, corners = row_of_bins(counts)
    return float(part_factors(image, corners, ref, lam)[0])


class TestRegionHistogram:
    def test_constant_black_region(self):
        image = np.zeros((20, 20), dtype=np.uint8)
        corners = rect_corners(10, 10, 5, 5)
        assert region_counts(image, corners[None]).sum() > 0
        np.testing.assert_array_equal(histogram_of_one(image, corners), [1, 0, 0, 0, 0, 0, 0, 0])

    def test_half_black_half_white(self):
        image = np.zeros((20, 40), dtype=np.uint8)
        image[:, 20:] = 255
        h = histogram_of_one(image, rect_corners(20, 10, 8, 5))
        np.testing.assert_array_equal(h, [0.5, 0, 0, 0, 0, 0, 0, 0.5])

    @pytest.mark.parametrize(
        "value,bin_index", [(0, 0), (31, 0), (32, 1), (63, 1), (64, 2), (224, 7), (255, 7)]
    )
    def test_bin_edges(self, value, bin_index):
        image = np.full((10, 10), value, dtype=np.uint8)
        h = histogram_of_one(image, rect_corners(5, 5, 3, 3))
        expected = np.zeros(BIN_COUNT)
        expected[bin_index] = 1.0
        np.testing.assert_array_equal(h, expected)

    def test_empty_region_is_uniform_and_flagged(self):
        image = np.zeros((10, 10), dtype=np.uint8)
        corners = rect_corners(50, 50, 2, 2)
        np.testing.assert_array_equal(region_counts(image, corners[None]), 0)
        np.testing.assert_array_equal(
            histogram_of_one(image, corners), np.full(BIN_COUNT, 1.0 / BIN_COUNT)
        )

    def test_zero_area_region(self):
        image = np.zeros((10, 10), dtype=np.uint8)
        corners = np.array([[(3.0, 3.0)] * 4])
        np.testing.assert_array_equal(region_counts(image, corners), 0)

    def test_partial_clipping_counts_inside_pixels_only(self):
        image = np.zeros((12, 12), dtype=np.uint8)
        image[:, :] = 96
        corners = rect_corners(0, 6, 4, 2)
        # the centres x = 0.5 .. 3.5 of 4 rows lie inside the clipped rectangle
        np.testing.assert_array_equal(region_counts(image, corners[None]), [[0, 0, 0, 16, 0, 0, 0, 0]])
        np.testing.assert_array_equal(histogram_of_one(image, corners), [0, 0, 0, 1, 0, 0, 0, 0])

    @pytest.mark.parametrize("case", range(12))
    def test_matches_brute_force_membership(self, case):
        """Dual route: accumulate the histogram from the scalar point-in-polygon
        oracle over the full canvas and compare bit for bit."""
        rng = np.random.default_rng(case)
        image = rng.integers(0, 256, size=(24, 31)).astype(np.uint8)
        corners = rect_corners(
            cx=float(rng.uniform(-4, 35)),
            cy=float(rng.uniform(-4, 28)),
            hx=float(rng.uniform(0.5, 9)),
            hy=float(rng.uniform(0.5, 6)),
            theta=float(rng.uniform(0, 2 * math.pi)),
        )
        mask = brute_force_mask(corners, 0, 0, 31, 24)
        values = image[mask]
        counts = region_counts(image, corners[None])[0]
        h = histogram_of_one(image, corners)
        if values.size == 0:
            np.testing.assert_array_equal(counts, 0)
            np.testing.assert_array_equal(h, np.full(BIN_COUNT, 1.0 / BIN_COUNT))
        else:
            expected = np.bincount(values >> 5, minlength=BIN_COUNT)
            np.testing.assert_array_equal(counts, expected)
            np.testing.assert_array_equal(h, expected / values.size)


bin_counts = st.lists(st.integers(0, 40), min_size=BIN_COUNT, max_size=BIN_COUNT).filter(
    lambda c: sum(c) > 0
)


class TestBhattacharyya:
    """The distance d inside ``part_factors``, read through lam = 1, where
    the factor is exp(-d^2)."""

    def test_identical_is_zero(self):
        assert factor([1, 1, 2, 0, 0, 0, 0, 0], hist(0.25, 0.25, 0.5, 0, 0, 0, 0, 0), 1.0) == 1.0

    def test_disjoint_is_one(self):
        assert factor([3, 0, 0, 0, 0, 0, 0, 0], hist(0, 0, 0, 0, 0, 0, 0, 1), 1.0) == math.exp(-1.0)

    def test_black_versus_half_and_half(self):
        got = factor([4, 0, 0, 0, 0, 0, 0, 0], hist(0.5, 0, 0, 0, 0, 0, 0, 0.5), 1.0)
        assert got == pytest.approx(math.exp(-(0.5411961001461971**2)), rel=1e-15)

    def test_rounding_never_goes_negative(self):
        assert factor([1] * BIN_COUNT, UNIFORM, 1.0) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(bin_counts, bin_counts)
    def test_symmetric_and_in_range(self, a, b):
        ref_a, ref_b = (np.array(c) / sum(c) for c in (a, b))
        f = factor(a, ref_b, 1.0)
        assert math.exp(-1.0) <= f <= 1.0
        assert f == factor(b, ref_a, 1.0)


class TestPartWeightFactor:
    """exp(-lam d^2) as ``part_factors`` returns it."""

    def test_zero_distance(self):
        assert factor([2, 0, 0, 0, 0, 0, 0, 0], hist(1, 0, 0, 0, 0, 0, 0, 0), 50.0) == 1.0

    def test_frozen_midpoint_value(self):
        # sqrt(1 * 0.5625) = 0.75 exactly, so d = 0.5
        got = factor([5, 0, 0, 0, 0, 0, 0, 0], hist(0.5625, 0.4375, 0, 0, 0, 0, 0, 0), 50.0)
        assert got == pytest.approx(3.7266531720786709e-06, rel=1e-14)

    def test_lam_zero_is_flat(self):
        assert factor([0, 0, 0, 0, 0, 0, 0, 9], hist(1, 0, 0, 0, 0, 0, 0, 0), 0.0) == 1.0

    def test_monotone_in_distance(self):
        refs = [hist(1 - t, t, 0, 0, 0, 0, 0, 0) for t in np.linspace(0, 1, 11)]
        factors = [factor([6, 0, 0, 0, 0, 0, 0, 0], ref, 50.0) for ref in refs]
        assert all(a > b for a, b in zip(factors, factors[1:]))


class TestElementaryFunctionsRoundAlike:
    """The oracles take ``np.exp``, ``np.cos`` and ``np.sin`` of one Python
    float at a time, the library of whole (often strided) arrays; the bitwise
    checks against the oracles hold only if numpy rounds a value the same
    way wherever it sits.  Only positive strides are covered: on CPUs with
    AVX-512, ``np.exp`` of a reversed view takes another loop that rounds
    some values differently, and the library never hands it one."""

    @pytest.mark.parametrize("fn", [np.exp, np.cos, np.sin], ids=lambda fn: fn.__name__)
    def test_a_float_rounds_as_at_any_array_position(self, fn):
        rng = np.random.default_rng(7)
        x = np.concatenate((rng.uniform(-50.0, 0.0, 2000), rng.uniform(-math.pi, math.pi, 2000)))
        alone = np.array([fn(v) for v in x.tolist()]).view(np.int64)
        for shift in range(17):
            np.testing.assert_array_equal(fn(x[shift:]).view(np.int64), alone[shift:])
        for size in range(1, 18):
            chunks = [fn(x[lo : lo + size]) for lo in range(0, len(x), size)]
            np.testing.assert_array_equal(np.concatenate(chunks).view(np.int64), alone)
        rows = np.zeros((len(x), 3))
        rows[:, 2] = x
        np.testing.assert_array_equal(fn(rows[:, 2]).view(np.int64), alone)
        np.testing.assert_array_equal(fn(rows[:, 2, None]).view(np.int64)[:, 0], alone)


RIGHT_ANGLES = (0.0, math.pi / 2, -math.pi / 2, math.pi)


@st.composite
def scored_batches(draw):
    """A random frame, one part's rectangle and a batch of its poses.

    Poses mix anywhere-on-canvas placements, placements straddling one of
    the four borders, placements fully off the canvas and, on the quarter
    pixel grid, right-angle placements whose horizontal edges and corners
    land on pixel-centre lines.
    """
    width, height = draw(st.integers(1, 48)), draw(st.integers(1, 40))
    image = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, 256, size=(height, width), dtype=np.uint8
    )
    quarters = st.integers(1, 80).map(lambda v: v / 4.0)
    length, part_width = draw(st.one_of(st.floats(0.25, 20.0), quarters)), draw(quarters)
    reach = length + part_width
    theta = st.one_of(
        st.sampled_from(RIGHT_ANGLES), st.floats(-math.pi, math.pi, exclude_min=True)
    )

    def near(edge):
        return st.floats(edge - reach, edge + reach)

    on_canvas = st.tuples(st.floats(0, width), st.floats(0, height), theta)
    straddling = st.one_of(
        st.tuples(near(0), st.floats(0, height), theta),
        st.tuples(near(width), st.floats(0, height), theta),
        st.tuples(st.floats(0, width), near(0), theta),
        st.tuples(st.floats(0, width), near(height), theta),
    )
    off_canvas = st.tuples(
        st.sampled_from((-reach - 1.0, width + reach + 1.0)), st.floats(-50, height + 50), theta
    )
    on_grid = st.tuples(
        st.integers(-8, 4 * width + 8).map(lambda v: v / 4.0),
        st.integers(-8, 4 * height + 8).map(lambda v: v / 4.0),
        st.sampled_from(RIGHT_ANGLES),
    )
    poses = draw(
        st.lists(st.one_of(on_canvas, straddling, off_canvas, on_grid), min_size=1, max_size=16)
    )
    model = ArticulatedModel.uniform(DbnSpec.chain(1), length, part_width)
    ref_counts = np.array(draw(st.lists(st.integers(0, 9), min_size=BIN_COUNT, max_size=BIN_COUNT)))
    ref = ref_counts / ref_counts.sum() if ref_counts.sum() else UNIFORM
    return image, model, np.array(poses), ref


def scalar_factors(image, model, states, ref, lam):
    return np.array(
        [part_factor(image, place_polygon(model, 1, row), Histogram8(ref), lam) for row in states]
    )


class TestBatchedKernel:
    """``region_histograms`` and ``part_factors`` against the oracles' scalar
    histogram -> distance -> ``np.exp`` chain, compared bit for bit."""

    @given(scored_batches(), st.sampled_from((0.0, 1.0, 50.0, 200.0)))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_scalar_path(self, batch, lam):
        image, model, states, ref = batch
        corners = place_polygons(model, 1, states)
        hists = region_histograms(image, corners)
        for i, row in enumerate(states):
            want = region_histogram(image, place_polygon(model, 1, row)).bins
            np.testing.assert_array_equal(hists[i].view(np.int64), want.view(np.int64))
        got = part_factors(image, corners, ref, lam)
        want = scalar_factors(image, model, states, ref, lam)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_off_canvas_batch_is_uniform(self):
        image = np.full((10, 12), 200, dtype=np.uint8)
        model = ArticulatedModel.uniform(DbnSpec.chain(1), 4.0, 2.0)
        states = np.array([(-20.0, 5.0, 0.0), (40.0, 5.0, 1.0), (6.0, 60.0, -2.0)])
        hists = region_histograms(image, place_polygons(model, 1, states))
        np.testing.assert_array_equal(hists, np.full((3, BIN_COUNT), 1.0 / BIN_COUNT))

    def test_single_particle(self):
        image = np.random.default_rng(4).integers(0, 256, size=(30, 40), dtype=np.uint8)
        model = ArticulatedModel.uniform(DbnSpec.chain(1), 9.0, 3.0)
        states = np.array([(17.25, 11.5, 0.3)])
        ref = region_histogram(image, place_polygon(model, 1, (15.0, 12.0, 0.0))).bins
        got = part_factors(image, place_polygons(model, 1, states), ref, 50.0)
        want = scalar_factors(image, model, states, ref, 50.0)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_batches_split_over_particles_match(self, monkeypatch):
        image = np.random.default_rng(5).integers(0, 256, size=(40, 50), dtype=np.uint8)
        model = ArticulatedModel.uniform(DbnSpec.chain(1), 12.0, 5.0)
        rng = np.random.default_rng(6)
        states = np.column_stack(
            (rng.uniform(-5, 55, 40), rng.uniform(-5, 45, 40), rng.uniform(-3, 3, 40))
        )
        corners = place_polygons(model, 1, states)
        whole = region_histograms(image, corners)
        monkeypatch.setattr("crtrack.likelihood.WINDOW_CELLS", 1)
        np.testing.assert_array_equal(region_histograms(image, corners), whole)


@st.composite
def counted_batches(draw):
    """A random frame and rectangles of mixed sizes: anywhere on or near the
    canvas, flush with its bottom and right edges (their blocks end on the
    last row and column, so a taller block in the batch pads their rows
    past the frame), wholly off it, of zero area (a point or a segment), and
    on the quarter-pixel grid at right angles."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 32))
    image = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, 256, size=(height, width), dtype=np.uint8
    )

    def quarters(lo, hi):
        return st.integers(4 * lo, 4 * hi).map(lambda v: v / 4.0)

    half = st.one_of(quarters(0, 10), st.floats(0.0, 10.0))
    theta = st.one_of(
        st.sampled_from(RIGHT_ANGLES), st.floats(-math.pi, math.pi, exclude_min=True)
    )
    anywhere = st.builds(
        rect_corners, st.floats(-12, width + 12), st.floats(-12, height + 12), half, half, theta
    )
    flush = st.builds(
        lambda hx, hy, dx, dy, t: rect_corners(width - hx + dx, height - hy + dy, hx, hy, t),
        half, half, quarters(-1, 1), quarters(-1, 1), st.sampled_from((0.0, math.pi)),
    )
    off_canvas = st.builds(
        rect_corners, st.sampled_from((-25.0, width + 25.0)), st.floats(-25, height + 25),
        half, half, theta,
    )
    on_grid = st.builds(
        rect_corners, quarters(-2, width + 2), quarters(-2, height + 2), quarters(0, 10),
        quarters(0, 10), st.sampled_from(RIGHT_ANGLES),
    )
    placements = st.one_of(anywhere, flush, off_canvas, on_grid)
    return image, np.stack(draw(st.lists(placements, min_size=1, max_size=16)))


class TestRowPrefixTable:
    """``region_counts`` reads each row's run from one packed running sum
    over the cells of the union of the boxes; the oracle
    ``mask_region_counts`` masks a shared window.  They agree bit for bit."""

    @given(counted_batches(), st.sampled_from((1, 40, 500, WINDOW_CELLS)))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_mask_route(self, batch, window_cells):
        image, corners = batch
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(likelihood, "WINDOW_CELLS", window_cells)
            got, want = region_counts(image, corners), mask_region_counts(image, corners)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_short_block_in_the_far_corner_beside_a_tall_one(self):
        # the tall box has 16 rows from row 0, the corner box 3 from row 13:
        # its padded rows 3-15 lie below the window and read nothing
        image = np.random.default_rng(10).integers(0, 256, size=(16, 20), dtype=np.uint8)
        corners = np.stack((rect_corners(4.0, 8.0, 1.5, 7.0), rect_corners(18.5, 15.0, 1.5, 1.0)))
        got = region_counts(image, corners)
        np.testing.assert_array_equal(got, mask_region_counts(image, corners))
        np.testing.assert_array_equal(got.sum(axis=1), [3 * 14, 3 * 2])

    @pytest.mark.parametrize("value", [0, 100, 255])
    @pytest.mark.parametrize("shape", [(15, 17), (16, 16), (255, 257), (256, 256)])
    def test_a_full_field_does_not_carry(self, shape, value):
        # a rectangle over the whole frame counts every box cell in one bin:
        # 255 and 65,535 fill an 8- and a 16-bit field, 256 and 65,536 need
        # the next width
        image = np.full(shape, value, dtype=np.uint8)
        height, width = shape
        corners = np.stack((rect_corners(width / 2, height / 2, width, height), rect_corners(3, 3, 1, 1)))
        got = region_counts(image, corners)
        np.testing.assert_array_equal(got, mask_region_counts(image, corners))
        assert got[0, value >> 5] == height * width

    @pytest.mark.parametrize("value", [0, 100, 255])
    def test_row_prefixes_past_a_field_stay_exact(self, value):
        # 8-bit fields (boxes of 100 cells) and window rows of 600 cells of one
        # bin: the prefix fields carry into their neighbours, or past the top
        # of the word for bin 7, and every difference is still exact
        image = np.full((12, 600), value, dtype=np.uint8)
        corners = np.stack((rect_corners(5, 5, 4, 4), rect_corners(594, 6, 4, 4)))
        got = region_counts(image, corners)
        np.testing.assert_array_equal(got, mask_region_counts(image, corners))
        np.testing.assert_array_equal(got[:, value >> 5], [64, 64])

    @pytest.mark.parametrize("noise", [False, True])
    def test_a_running_sum_that_wraps_over_many_rows_stays_exact(self, noise):
        # 8-bit fields (boxes under 256 cells) over a 300 x 700 window of
        # intensity 255: each cell adds 2**56, so the running sum wraps 2**64
        # every 256 cells, hundreds of times before the last rows are read
        rng = np.random.default_rng(14)
        image = np.full((300, 700), 255, dtype=np.uint8)
        if noise:
            image[rng.random(image.shape) < 0.3] = rng.integers(0, 255, dtype=np.uint8)
        centres = [(x, y) for x in (4.0, 350.5, 695.0) for y in (3.5, 150.0, 296.0)]
        corners = np.stack([rect_corners(x, y, 4.5, 3.5, 0.4 * i) for i, (x, y) in enumerate(centres)])
        x0, y0, nx, ny = polygon_bboxes(corners, 700, 300)
        assert (nx * ny).max() < 256
        assert (x0 + nx).max() - x0.min() == 700 and (y0 + ny).max() - y0.min() == 300
        got = region_counts(image, corners)
        np.testing.assert_array_equal(got, mask_region_counts(image, corners))
        if not noise:
            np.testing.assert_array_equal(got[:, 7], got.sum(axis=1))
            assert (got[:, 7] > 40).all()

    def test_boxes_in_opposite_corners_span_the_frame(self):
        image = np.random.default_rng(11).integers(0, 256, size=(40, 60), dtype=np.uint8)
        corners = np.stack((rect_corners(1.0, 1.5, 3.0, 2.5, 0.3), rect_corners(58.5, 38.0, 2.5, 3.0, -0.2)))
        np.testing.assert_array_equal(region_counts(image, corners), mask_region_counts(image, corners))

    def test_no_corners_give_no_rows(self):
        image = np.zeros((10, 10), dtype=np.uint8)
        got = region_counts(image, np.zeros((0, 4, 2)))
        assert got.shape == (0, BIN_COUNT) and got.dtype == np.int64

    @pytest.mark.parametrize("window_cells", [1, WINDOW_CELLS])
    def test_off_canvas_placements_beside_on_canvas_ones(self, monkeypatch, window_cells):
        # off-canvas boxes are clipped to x0 = width or y0 = height with no
        # cell and must not widen the window; one cell a batch puts each
        # placement in its own batch, so some batches hold only empty boxes
        monkeypatch.setattr(likelihood, "WINDOW_CELLS", window_cells)
        image = np.random.default_rng(12).integers(0, 256, size=(30, 40), dtype=np.uint8)
        on = [rect_corners(20.0, 15.0, 4.0, 2.0, 0.4), rect_corners(6.0, 25.0, 2.0, 3.0)]
        off = [rect_corners(x, y, 3.0, 2.0) for x, y in ((70.0, 10.0), (10.0, 50.0), (-20.0, -20.0))]
        corners = np.stack(off[:1] + on[:1] + off[1:] + on[1:])
        got = region_counts(image, corners)
        np.testing.assert_array_equal(got, mask_region_counts(image, corners))
        np.testing.assert_array_equal(got.sum(axis=1) > 0, [False, True, False, False, True])
        np.testing.assert_array_equal(region_counts(image, np.stack(off)), 0)


class TestRunBatches:
    """``region_counts`` takes its boxes and run batches from one
    coordinate-major copy of the corners; the edge constants, the row centres
    and the dtype are taken once per call and sliced for every batch, and
    each batch computes only its own tallest box's rows."""

    def test_a_short_last_batch_of_small_boxes_counts_exactly(self, monkeypatch):
        # six large boxes then two small ones, three boxes a batch: the last
        # batch holds two placements, fewer than the others, and computes
        # only its own tallest box's rows; no value of an earlier batch may
        # reach its counts
        image = np.random.default_rng(13).integers(0, 256, size=(40, 50), dtype=np.uint8)
        large = [rect_corners(8.0 + 6 * i, 10.0 + 3 * i, 4.5, 3.5, 0.3 * i) for i in range(6)]
        small = [rect_corners(30.0, 32.0, 1.5, 1.0), rect_corners(12.0, 34.0, 1.0, 2.0, 0.7)]
        corners = np.stack(large + small)
        x0, y0, nx, ny = polygon_bboxes(corners, 50, 40)
        rows = int(ny.max())
        assert (ny[6:] < ny[:6].min()).all() and (nx[6:] < nx[:6].min()).all()
        monkeypatch.setattr(likelihood, "WINDOW_CELLS", 3 * int(nx.max()) * rows)
        seen = []
        batches = likelihood.polygon_run_batches

        def recording(*args):
            for batch, lo, hi in batches(*args):
                seen.append((batch.indices(len(corners))[:2], lo.shape, hi.shape))
                yield batch, lo, hi

        monkeypatch.setattr(likelihood, "polygon_run_batches", recording)
        got = region_counts(image, corners)
        bounds = ((0, 3), (3, 6), (6, 8))
        shapes = [(int(ny[a:b].max()), b - a) for a, b in bounds]
        assert seen == [(ab, shape, shape) for ab, shape in zip(bounds, shapes)]
        assert int(ny[6:].max()) < rows
        want = mask_region_counts(image, corners)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert (got.sum(axis=1) > 0).all()

    @pytest.mark.parametrize("layout", ["strided", "fortran", "coordinate-major view"])
    def test_corners_are_left_unchanged_in_any_layout(self, layout):
        # every other placement of a batch is copied; a Fortran-order array
        # and a transposed view of a (2, 4, N) array are read in place
        image = np.random.default_rng(14).integers(0, 256, size=(30, 40), dtype=np.uint8)
        model = ArticulatedModel.uniform(DbnSpec.chain(1), 11.0, 4.0)
        rng = np.random.default_rng(15)
        states = np.column_stack(
            (rng.uniform(-8, 48, 24), rng.uniform(-8, 38, 24), rng.uniform(-3, 3, 24))
        )
        big = place_polygons(model, 1, states)
        corners = {
            "strided": big[::2],
            "fortran": np.asfortranarray(big),
            "coordinate-major view": np.ascontiguousarray(big.transpose(2, 1, 0)).transpose(2, 1, 0),
        }[layout]
        assert not corners.flags.c_contiguous
        before = corners.copy()
        plain = np.ascontiguousarray(corners)
        boxes = polygon_bboxes(corners, 40, 30)
        for got, want in zip(boxes, polygon_bboxes(plain, 40, 30)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        for got, want in zip(polygon_runs(corners, *boxes), polygon_runs(plain, *boxes)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        counts = region_counts(image, corners)
        np.testing.assert_array_equal(counts, region_counts(image, plain))
        np.testing.assert_array_equal(counts, mask_region_counts(image, plain))
        np.testing.assert_array_equal(corners, before)
        np.testing.assert_array_equal(plain, before)


class TestImageContract:
    """The kernel counts 2-D uint8 frames only; any other frame is rejected
    once per ``region_counts`` call, before it can be counted wrongly."""

    FRAMES = {
        "int64 of -1": np.full((10, 12), -1, dtype=np.int64),
        "int64 of 300": np.full((10, 12), 300, dtype=np.int64),
        "float": np.full((10, 12), 100.0),
        "three channels": np.zeros((10, 12, 3), dtype=np.uint8),
    }
    ENTRY_POINTS = {
        "region_counts": region_counts,
        "region_histograms": region_histograms,
        "part_factors": lambda image, corners: part_factors(image, corners, UNIFORM, 50.0),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("frame", sorted(FRAMES))
    def test_rejected(self, frame, entry):
        corners = rect_corners(6.0, 5.0, 3.0, 2.0)[None]
        with pytest.raises(ValueError, match="2-D uint8"):
            self.ENTRY_POINTS[entry](self.FRAMES[frame], corners)

    def test_a_uint8_view_is_accepted(self):
        frame = np.arange(240, dtype=np.uint8).reshape(12, 20)[::2, ::2]
        corners = rect_corners(5.0, 3.0, 5.0, 3.0)[None]
        np.testing.assert_array_equal(region_counts(frame, corners), mask_region_counts(frame, corners))


class TestOnePartForms:
    """The one-part names are the batched kernel with N=1, not a second path."""

    def test_region_histogram_is_row_zero_of_the_batch(self):
        image = np.random.default_rng(7).integers(0, 256, size=(30, 40), dtype=np.uint8)
        model = ArticulatedModel.uniform(DbnSpec.chain(1), 12.0, 5.0)
        rng = np.random.default_rng(8)
        states = np.column_stack(
            (rng.uniform(-10, 50, 60), rng.uniform(-10, 40, 60), rng.uniform(-3, 3, 60))
        )
        corners = place_polygons(model, 1, states)
        hists = region_histograms(image, corners)
        empty = region_counts(image, corners).sum(axis=1) == 0
        assert empty.any() and not empty.all()
        for i in range(len(corners)):
            one = likelihood.region_histogram(image, corners[i])
            np.testing.assert_array_equal(one.view(np.int64), hists[i].view(np.int64))
            if empty[i]:
                np.testing.assert_array_equal(one, UNIFORM)

    def test_part_factors_is_distance_then_factor(self):
        image = np.random.default_rng(9).integers(0, 256, size=(30, 40), dtype=np.uint8)
        model = ArticulatedModel.uniform(DbnSpec.chain(1), 12.0, 5.0)
        states = np.column_stack((np.linspace(0, 40, 25), np.linspace(0, 30, 25), np.linspace(-3, 3, 25)))
        corners = place_polygons(model, 1, states)
        ref = likelihood.region_histogram(image, corners[12])
        distance = likelihood.bhattacharyya(region_histograms(image, corners), ref)
        assert distance[12] < 1e-7 and ((0.0 <= distance) & (distance <= 1.0)).all()
        np.testing.assert_array_equal(
            part_factors(image, corners, ref, 50.0), likelihood.part_weight_factor(distance, 50.0)
        )


class TestInitReferences:
    def test_single_part_reference_is_its_own_band(self):
        spec = DbnSpec.chain(1)
        model = ArticulatedModel.uniform(spec, length=10.0, width=4.0)
        pose = default_pose(model, (20.0, 15.0))
        image = render_frame(model, pose, 40, 30)
        refs = init_references(image, model, pose)
        assert len(refs) == 1
        expected = np.zeros(BIN_COUNT)
        expected[part_intensity(1, 1) >> 5] = 1.0
        np.testing.assert_array_equal(refs[0], expected)

    def test_multi_part_references_are_concentrated(self):
        spec = DbnSpec.star(2, 2)
        model = ArticulatedModel.uniform(spec, length=10.0, width=4.0)
        pose = default_pose(model, (40.0, 30.0))
        image = render_frame(model, pose, 80, 60)
        refs = init_references(image, model, pose)
        assert refs.shape == (model.part_count, BIN_COUNT)
        for k, ref in enumerate(refs, start=1):
            own_bin = part_intensity(k, model.part_count) >> 5
            assert ref[own_bin] >= 0.5

    @pytest.mark.parametrize("case", range(8))
    def test_matches_the_oracle_histograms(self, case, caplog):
        """Every reference equals the oracle's histogram bit for bit, and
        the parts warned about are the oracle's empty ones, for rendered and
        random frames, with parts straddling the border and parts off the
        canvas."""
        rng = np.random.default_rng(case)
        spec = DbnSpec.star(3, 2)
        model = ArticulatedModel(
            spec, tuple(rng.uniform(3.0, 14.0, 7)), tuple(rng.uniform(1.5, 6.0, 7))
        )
        width, height = int(rng.integers(20, 60)), int(rng.integers(16, 48))
        pose = default_pose(model, (rng.uniform(-10, width + 10), rng.uniform(-10, height + 10)))
        pose[:, 2] += rng.uniform(-0.4, 0.4, 7)
        if case % 2:
            image = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
        else:
            image = render_frame(model, pose, width, height)
        with caplog.at_level(logging.WARNING, logger="crtrack.likelihood"):
            refs = init_references(image, model, pose)
        warned = {int(rec.message.split()[1]) for rec in caplog.records}
        for k, ref in enumerate(refs, start=1):
            want = region_histogram(image, place_polygon(model, k, pose[k - 1]))
            assert (k in warned) == want.empty
            np.testing.assert_array_equal(ref.view(np.int64), want.bins.view(np.int64))
        batched = region_histograms(image, object_corners(model, pose))
        np.testing.assert_array_equal(refs.view(np.int64), batched.view(np.int64))

    def test_off_canvas_part_warns_and_falls_back(self, caplog):
        spec = DbnSpec.chain(1)
        model = ArticulatedModel.uniform(spec, length=10.0, width=4.0)
        pose = default_pose(model, (500.0, 500.0))
        image = np.zeros((30, 40), dtype=np.uint8)
        with caplog.at_level(logging.WARNING, logger="crtrack.likelihood"):
            refs = init_references(image, model, pose)
        np.testing.assert_array_equal(refs[0], UNIFORM)
        assert any("uniform reference" in rec.message for rec in caplog.records)
