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
    render_frame,
)
from crtrack import likelihood
from crtrack.likelihood import (
    BIN_COUNT,
    init_references,
    part_factors,
    region_counts,
    region_histograms,
)

from oracles import Histogram8, brute_force_mask, part_factor, place_polygon, region_histogram

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
    histogram -> distance -> ``math.exp`` chain, compared bit for bit."""

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
