import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crtrack import geometry, likelihood
from crtrack.dbn import DbnSpec
from crtrack.geometry import (
    ArticulatedModel,
    default_pose,
    estimation_error,
    ground_truth_step,
    object_corners,
    part_intensity,
    place_polygons,
    polygon_bboxes,
    polygon_fills,
    polygon_run_batches,
    render_frame,
    wrap_angle,
)

import oracles
from oracles import brute_force_mask, place_polygon, polygon_bbox, polygon_mask, tip_point


def chain_model(parts, length=10.0, width=4.0):
    return ArticulatedModel.uniform(DbnSpec.chain(parts), length, width)


def star_model(arms, arm_length, length=10.0, width=4.0):
    return ArticulatedModel.uniform(DbnSpec.star(arms, arm_length), length, width)


def base_midpoint(model, k, state_row):
    corners = place_polygons(model, k, [state_row])[0]
    return (corners[0] + corners[3]) / 2.0


def mask_of_one(corners, x0, y0, nx, ny):
    """``polygon_fills`` of one polygon on one block."""
    return polygon_fills(np.asarray(corners)[None], *(np.array([v]) for v in (x0, y0, nx, ny)))[0]


def bbox_of_one(corners, width, height):
    """``polygon_bboxes`` of one polygon, as plain ints."""
    return tuple(int(v[0]) for v in polygon_bboxes(np.asarray(corners)[None], width, height))


class TestWrapAngle:
    def test_in_range_is_bitwise_identity(self):
        for theta in (0.0, 1.5, -3.1415, math.pi, np.nextafter(-math.pi, 0.0)):
            assert wrap_angle(theta) == theta
            assert type(wrap_angle(theta)) is np.float64

    def test_wraps_beyond_pi(self):
        assert wrap_angle(math.pi + 0.5) == pytest.approx(-math.pi + 0.5)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(7.0 * math.pi) == pytest.approx(math.pi)

    def test_array_input(self):
        out = wrap_angle(np.array([0.0, 2.0 * math.pi, -4.0 * math.pi]))
        assert out.shape == (3,)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0], atol=1e-12)

    @given(st.floats(-50.0, 50.0))
    def test_range_and_direction_preserved(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)


class TestModelValidation:
    def test_uniform(self):
        model = chain_model(3, 8.0, 2.0)
        assert model.lengths == (8.0, 8.0, 8.0)
        assert model.part_count == 3

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            ArticulatedModel(DbnSpec.chain(2), (10.0,), (4.0, 4.0))

    def test_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            ArticulatedModel.uniform(DbnSpec.chain(2), 10.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_dimension(self, value):
        star, chain = DbnSpec.star(2, 1), DbnSpec.chain(2)
        for build in (
            lambda: ArticulatedModel.uniform(star, value, 4.0),
            lambda: ArticulatedModel.uniform(star, 10.0, value),
            lambda: ArticulatedModel(chain, (10.0, value), (4.0, 4.0)),
            lambda: ArticulatedModel(chain, (10.0, 10.0), (value, 4.0)),
        ):
            with pytest.raises(ValueError, match="part dimensions must be positive and finite"):
                build()

    def test_negative_sigma(self):
        model = chain_model(2)
        state = default_pose(model, (50.0, 50.0))
        with pytest.raises(ValueError):
            ground_truth_step(model, state, -1.0, 0.1, np.random.default_rng(0))


class TestPlacement:
    def test_identity_pose_corners(self):
        model = chain_model(1, 10.0, 4.0)
        corners = place_polygons(model, 1, np.array([[0.0, 0.0, 0.0]]))[0]
        np.testing.assert_array_equal(
            corners, [(-5.0, -2.0), (5.0, -2.0), (5.0, 2.0), (-5.0, 2.0)]
        )

    def test_translation_and_rotation(self):
        model = chain_model(1, 10.0, 4.0)
        corners = place_polygons(model, 1, np.array([[3.0, 7.0, math.pi / 2.0]]))[0]
        np.testing.assert_allclose(
            corners, [(5.0, 2.0), (5.0, 12.0), (1.0, 12.0), (1.0, 2.0)], atol=1e-12
        )

    def test_object_corners_matches_per_part_placement(self):
        model = star_model(3, 2)
        rng = np.random.default_rng(1)
        state = np.column_stack(
            (rng.uniform(0, 100, 7), rng.uniform(0, 100, 7), rng.uniform(-3, 3, 7))
        )
        allc = object_corners(model, state)
        assert allc.shape == (7, 4, 2)
        for k in range(1, 8):
            one = place_polygons(model, k, state[k - 1 : k])[0]
            np.testing.assert_array_equal(allc[k - 1].view(np.int64), one.view(np.int64))
            want = place_polygon(model, k, state[k - 1])
            np.testing.assert_array_equal(allc[k - 1].view(np.int64), want.view(np.int64))

    def test_tip_point(self):
        model = chain_model(1, 10.0, 4.0)
        assert tip_point(model, 1, np.array([2.0, 3.0, 0.0])) == (7.0, 3.0)
        tx, ty = tip_point(model, 1, np.array([0.0, 0.0, math.pi / 2.0]))
        assert (tx, ty) == pytest.approx((0.0, 5.0), abs=1e-12)


class TestDefaultPose:
    def test_root_at_centre_facing_x(self):
        model = star_model(4, 3)
        state = default_pose(model, (80.0, 64.0))
        np.testing.assert_array_equal(state[0], [80.0, 64.0, 0.0])

    def test_chain_continues_straight(self):
        model = chain_model(4, 10.0, 4.0)
        state = default_pose(model, (0.0, 0.0))
        np.testing.assert_allclose(state[:, 2], 0.0, atol=1e-12)
        np.testing.assert_allclose(state[:, 0], [0.0, 10.0, 20.0, 30.0], atol=1e-12)

    @pytest.mark.parametrize("arms", [2, 3, 4, 6])
    def test_no_child_folds_back_onto_parent(self, arms):
        model = star_model(arms, 2)
        state = default_pose(model, (0.0, 0.0))
        spec = model.spec
        for k in spec.part_ids:
            parent = spec.parent_of(k)
            if parent is None:
                continue
            rel = abs(wrap_angle(state[k - 1, 2] - state[parent - 1, 2]))
            assert rel < math.pi - 1e-9

    def test_joint_rule_holds(self):
        model = star_model(3, 2, 12.0, 5.0)
        state = default_pose(model, (50.0, 40.0))
        spec = model.spec
        for k in spec.part_ids:
            parent = spec.parent_of(k)
            if parent is None:
                continue
            np.testing.assert_allclose(
                base_midpoint(model, k, state[k - 1]),
                tip_point(model, parent, state[parent - 1]),
                atol=1e-9,
            )


class TestGroundTruthStep:
    def test_zero_noise_is_bitwise_identity(self):
        model = star_model(4, 3)
        state = default_pose(model, (80.0, 64.0))
        rng = np.random.default_rng(0)
        out = ground_truth_step(model, state, 0.0, 0.0, rng)
        assert np.array_equal(out, state)

    def test_joint_rule_preserved_under_noise(self):
        model = star_model(3, 3, 11.0, 5.0)
        state = default_pose(model, (100.0, 100.0))
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = ground_truth_step(model, state, 2.0, 0.3, rng)
        spec = model.spec
        for k in spec.part_ids:
            parent = spec.parent_of(k)
            if parent is None:
                continue
            np.testing.assert_allclose(
                base_midpoint(model, k, state[k - 1]),
                tip_point(model, parent, state[parent - 1]),
                atol=1e-9,
            )

    def test_children_follow_parent_rotation(self):
        # zero child noise, nonzero root rotation: the object moves rigidly
        model = chain_model(3)
        state = default_pose(model, (0.0, 0.0))

        class FixedRng:
            def __init__(self, dx, dy, dt):
                self.vals = iter([dx, dy, dt, 0.0, 0.0])

            def normal(self, loc, scale, size):
                scale = np.broadcast_to(scale, size)
                queued = np.array([next(self.vals) for _ in range(scale.size)]).reshape(size)
                return np.where(scale > 0, queued, 0.0)

        out = ground_truth_step(model, state, 1.0, 0.5, FixedRng(0.0, 0.0, 0.4))
        np.testing.assert_allclose(out[:, 2], 0.4, atol=1e-12)
        # every part centre rotated by 0.4 around the root centre
        for k in (2, 3):
            vec = state[k - 1, :2] - state[0, :2]
            c, s = math.cos(0.4), math.sin(0.4)
            rotated = (vec[0] * c - vec[1] * s, vec[0] * s + vec[1] * c)
            np.testing.assert_allclose(out[k - 1, :2], rotated, atol=1e-9)

    def test_root_bounds_clamp(self):
        model = chain_model(1)
        state = np.array([[5.0, 5.0, 0.0]])
        rng = np.random.default_rng(3)
        for _ in range(10):
            state = ground_truth_step(model, state, 100.0, 0.0, rng, root_bounds=(2.0, 8.0, 1.0, 9.0))
            assert 2.0 <= state[0, 0] <= 8.0
            assert 1.0 <= state[0, 1] <= 9.0

    def test_determinism(self):
        model = star_model(2, 2)
        state = default_pose(model, (30.0, 30.0))
        a = ground_truth_step(model, state, 1.0, 0.1, np.random.default_rng(42))
        b = ground_truth_step(model, state, 1.0, 0.1, np.random.default_rng(42))
        assert np.array_equal(a, b)


@st.composite
def forest_models(draw, max_parts=12):
    """Models over random forests (any id order, several roots allowed),
    chains and stars, with per-part sizes."""
    kind = draw(st.sampled_from(["forest", "chain", "star"]))
    if kind == "chain":
        spec = DbnSpec.chain(draw(st.integers(1, max_parts)))
    elif kind == "star":
        arms = draw(st.integers(1, 4))
        spec = DbnSpec.star(arms, draw(st.integers(1, (max_parts - 1) // arms)))
    else:
        p = draw(st.integers(1, max_parts))
        # parents drawn in a topological order, then ids shuffled
        order = draw(st.permutations(range(1, p + 1)))
        parents = [None] * p
        for i in range(1, p):
            j = draw(st.one_of(st.none(), st.integers(0, i - 1)))
            parents[order[i] - 1] = None if j is None else order[j]
        spec = DbnSpec(p, tuple(parents))
    sizes = st.lists(st.floats(0.5, 40.0), min_size=spec.part_count, max_size=spec.part_count)
    return ArticulatedModel(spec, tuple(draw(sizes)), tuple(draw(sizes)))


class TestStageWalkMatchesScalarWalk:
    """``default_pose`` and ``ground_truth_step`` advance a partition stage
    at a time; the part-by-part oracles draw one scalar per value."""

    @settings(max_examples=300, deadline=None)
    @given(
        forest_models(),
        st.tuples(st.floats(-50.0, 250.0), st.floats(-50.0, 250.0)),
        st.sampled_from([0.0, 0.5, 4.0]),
        st.sampled_from([0.0, 0.05, 1.5]),
        st.one_of(st.none(), st.tuples(*[st.floats(-20.0, 220.0)] * 4)),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_poses_and_stream(self, model, centre, sigma_xy, sigma_theta, bounds, steps, seed):
        want = oracles.default_pose(model, centre)
        got = default_pose(model, centre)
        assert np.array_equal(got, want)
        rng_want, rng_got = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(steps):
            want = oracles.ground_truth_step(model, want, sigma_xy, sigma_theta, rng_want, bounds)
            got = ground_truth_step(model, got, sigma_xy, sigma_theta, rng_got, bounds)
            assert np.array_equal(got, want)
        assert rng_got.normal() == rng_want.normal()


@st.composite
def convex_polygons(draw, min_corners=3, max_corners=6):
    """Convex polygons: corners on one circle at sorted distinct angles, a
    multiple of half a degree apart, so rounding cannot dent the outline."""
    cx = draw(st.floats(2.0, 14.0))
    cy = draw(st.floats(2.0, 14.0))
    r = draw(st.floats(1.0, 6.0))
    m = draw(st.integers(min_corners, max_corners))
    steps = sorted(draw(st.lists(st.integers(0, 719), min_size=m, max_size=m, unique=True)))
    angles = [k * math.pi / 360.0 for k in steps]
    return np.array([(cx + r * math.cos(a), cy + r * math.sin(a)) for a in angles])


class TestRasterization:
    def test_axis_aligned_rectangle_pixel_set(self):
        corners = np.array([(0.5, 0.5), (2.5, 0.5), (2.5, 2.5), (0.5, 2.5)])
        mask = mask_of_one(corners, 0, 0, 4, 4)
        expected = np.zeros((4, 4), dtype=bool)
        expected[0:2, 0:2] = True
        np.testing.assert_array_equal(mask, expected)

    def test_ten_by_four_rectangle_has_forty_pixels(self):
        model = chain_model(1, 10.0, 4.0)
        corners = place_polygons(model, 1, np.array([[10.0, 8.0, 0.0]]))[0]
        mask = mask_of_one(corners, 0, 0, 20, 16)
        assert mask.sum() == 40

    def test_whole_pixel_translation_translates_fill(self):
        corners = np.array([(3.2, 2.7), (8.9, 3.4), (6.1, 7.8)])
        base = mask_of_one(corners, 0, 0, 16, 16)
        moved = mask_of_one(corners + (3.0, 2.0), 0, 0, 16, 16)
        np.testing.assert_array_equal(moved[2:, 3:], base[: 16 - 2, : 16 - 3])

    def test_empty_block(self):
        corners = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])
        assert mask_of_one(corners, 0, 0, 0, 5).size == 0

    def test_vertex_order_irrelevant(self):
        corners = np.array([(3.2, 2.7), (8.9, 3.4), (6.1, 7.8), (2.0, 6.0)])
        base = mask_of_one(corners, 0, 0, 12, 12)
        np.testing.assert_array_equal(mask_of_one(np.roll(corners, 1, axis=0), 0, 0, 12, 12), base)
        np.testing.assert_array_equal(mask_of_one(corners[::-1], 0, 0, 12, 12), base)

    @given(convex_polygons())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_crossing_oracle(self, corners):
        mask = mask_of_one(corners, 0, 0, 18, 18)
        np.testing.assert_array_equal(mask, brute_force_mask(corners, 0, 0, 18, 18))

    def test_bbox_covers_fill(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            # a convex quad: corners on one circle, as in convex_polygons
            angles = np.sort(rng.choice(720, size=4, replace=False)) * math.pi / 360.0
            ring = np.column_stack((np.cos(angles), np.sin(angles)))
            corners = rng.uniform(8.0, 24.0, size=2) + rng.uniform(1.0, 6.0) * ring
            x0, y0, nx, ny = bbox_of_one(corners, 32, 32)
            full = mask_of_one(corners, 0, 0, 32, 32)
            ys, xs = np.nonzero(full)
            if ys.size:
                assert x0 <= xs.min() and xs.max() < x0 + nx
                assert y0 <= ys.min() and ys.max() < y0 + ny

    def test_bbox_clipped_to_canvas(self):
        corners = np.array([(-5.0, -5.0), (3.0, -5.0), (3.0, 3.0), (-5.0, 3.0)])
        x0, y0, nx, ny = bbox_of_one(corners, 10, 10)
        assert (x0, y0) == (0, 0)
        assert nx <= 10 and ny <= 10
        # wholly past the far edges: an empty block
        _, _, nx, ny = bbox_of_one(corners + 40.0, 10, 10)
        assert (nx, ny) == (0, 0)


# Quarter-pixel coordinates put corners, edges and pixel centres on one
# another's lines, where the half-open crossing rule decides.
quarter_pixels = st.integers(-40, 120).map(lambda v: v / 4.0)
right_angles = st.sampled_from((0.0, math.pi / 2, -math.pi / 2, math.pi))
part_sizes = st.one_of(st.integers(1, 80).map(lambda v: v / 4.0), st.floats(0.1, 30.0))
placed_rectangles = st.builds(
    lambda x, y, theta, length, width: place_polygons(
        chain_model(1, length, width), 1, [(x, y, theta)]
    )[0],
    quarter_pixels,
    quarter_pixels,
    st.one_of(right_angles, st.floats(-math.pi, math.pi, exclude_min=True)),
    part_sizes,
    part_sizes,
)
convex_quads = st.one_of(placed_rectangles, convex_polygons(4, 4))


class TestBatchedGeometry:
    """The batched helpers equal the scalar oracles bit for bit."""

    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 150),
                st.floats(-50, 150),
                st.one_of(right_angles, st.floats(-math.pi, math.pi, exclude_min=True)),
            ),
            min_size=1,
            max_size=12,
        ),
        st.floats(0.5, 30.0),
        st.floats(0.5, 12.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_place_polygons_matches_place_polygon(self, rows, length, width):
        model = chain_model(1, length, width)
        states = np.array(rows)
        got = place_polygons(model, 1, states)
        assert got.shape == (len(rows), 4, 2)
        for i, row in enumerate(states):
            want = place_polygon(model, 1, row)
            np.testing.assert_array_equal(got[i].view(np.int64), want.view(np.int64))

    @given(st.lists(convex_quads, min_size=1, max_size=8), st.integers(1, 24), st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    # a centre on a diagonal edge traversed both ways: the crossing order
    # decides, and brute_force_mask's differs
    @example([np.array([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (11.0, 11.0)])], 4, 4)
    # an edge of subnormal height: its crossing overflows to inf on every row
    # outside its span, where it is discarded, so no warning may escape
    @example([np.array([(0.0, 0.0), (3.0, 5e-324), (3.0, 3.0), (0.0, 3.0)])], 4, 4)
    # a vertical edge on the pixel centres x = 3.5: the strict compare leaves
    # column 3 out
    @example([np.array([(3.5, 0.25), (8.0, 0.25), (8.0, 6.0), (3.5, 6.0)])], 10, 8)
    # crossings near 1e16, where ceil(xint - 0.5) must clip to the block width
    @example([np.array([(-1e16, 1.0), (1e16, 1.25), (1e16 + 4.0, 5.0), (-1e16, 5.5)])], 8, 8)
    @pytest.mark.filterwarnings("error")
    def test_masks_and_bboxes_match_the_scalar_fill(self, polys, width, height):
        corners = np.stack(polys)
        x0, y0, nx, ny = polygon_bboxes(corners, width, height)
        masks = polygon_fills(corners, x0, y0, nx, ny)
        for i, c in enumerate(corners):
            bx, by, bnx, bny = polygon_bbox(c, width, height)
            assert (nx[i], ny[i]) == (bnx, bny)
            if bnx and bny:
                assert (x0[i], y0[i]) == (bx, by)
            expected = np.zeros(masks.shape[1:], dtype=bool)
            expected[:bny, :bnx] = polygon_mask(c, bx, by, bnx, bny)
            np.testing.assert_array_equal(masks[i], expected)

    @given(st.lists(convex_quads, min_size=1, max_size=8), st.integers(1, 24), st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_runs_bound_each_row_of_the_scalar_fill(self, polys, width, height):
        corners = np.stack(polys)
        x0, y0, nx, ny = polygon_bboxes(corners, width, height)
        ((_, lo, hi),) = polygon_run_batches(corners, x0, y0, nx, ny)
        assert lo.shape == hi.shape == (ny.max(), len(corners))
        for i, c in enumerate(corners):
            mask = polygon_mask(c, x0[i], y0[i], nx[i], ny[i])
            for r in range(lo.shape[0]):
                inside = np.flatnonzero(mask[r]) if r < ny[i] else []
                if len(inside):
                    # the first inside column and the one past the last, with
                    # every column between them inside
                    assert (lo[r, i], hi[r, i]) == (inside[0], inside[-1] + 1)
                    assert hi[r, i] - lo[r, i] == len(inside)
                else:
                    assert lo[r, i] == hi[r, i]

    def test_blocks_wider_than_int16_fill_exactly(self):
        # a 2 x 40,000 canvas: the quad's block spans more than 32,767 columns
        image = np.full((2, 40_000), 100, dtype=np.uint8)
        corners = np.array([[(0.3, 0.2), (39_999.6, 0.7), (39_990.2, 1.9), (10.1, 1.6)]])
        x0, y0, nx, ny = polygon_bboxes(corners, 40_000, 2)
        assert nx[0] > 32_767
        mask = polygon_fills(corners, x0, y0, nx, ny)[0]
        np.testing.assert_array_equal(mask, polygon_mask(corners[0], x0[0], y0[0], nx[0], ny[0]))
        assert likelihood.region_counts(image, corners)[0, 3] == mask.sum() > 32_767

    def test_all_blocks_empty(self):
        corners = np.array([[(-9.0, -9.0), (-5.0, -9.0), (-5.0, -5.0), (-9.0, -5.0)]] * 3)
        x0, y0, nx, ny = polygon_bboxes(corners, 10, 10)
        np.testing.assert_array_equal(nx, 0)
        masks = polygon_fills(corners, x0, y0, nx, ny)
        assert masks.shape == (3, 0, 0)



class TestOnePartForms:
    """``place_polygon`` and ``polygon_mask`` are the batched functions with N=1."""

    def test_place_polygon_is_one_row_of_place_polygons(self):
        model = star_model(3, 2)
        rng = np.random.default_rng(11)
        states = np.column_stack((rng.uniform(-50, 50, 30), rng.uniform(-50, 50, 30), rng.uniform(-7, 7, 30)))
        for k in (1, 4):
            batch = place_polygons(model, k, states)
            for i in range(len(states)):
                np.testing.assert_array_equal(geometry.place_polygon(model, k, states[i]), batch[i])

    @settings(max_examples=60, deadline=None)
    @given(convex_polygons())
    def test_polygon_mask_is_one_polygon_of_polygon_fills(self, corners):
        x0, y0, nx, ny = (int(v[0]) for v in polygon_bboxes(corners[None], 16, 16))
        np.testing.assert_array_equal(
            geometry.polygon_mask(corners, x0, y0, nx, ny), mask_of_one(corners, x0, y0, nx, ny)
        )


class TestIntensity:
    def test_single_part_is_brightest(self):
        assert part_intensity(1, 1) == 255
        assert part_intensity(1, 13) == 255

    @pytest.mark.parametrize("p", [2, 5, 13, 40, 85])
    def test_distinct_and_out_of_background_band(self, p):
        values = [part_intensity(k, p) for k in range(1, p + 1)]
        assert len(set(values)) == p
        assert all(32 <= v <= 255 for v in values)

    def test_consecutive_parts_in_different_bins(self):
        for p in (3, 7, 13, 25):
            bins = [part_intensity(k, p) >> 5 for k in range(1, p + 1)]
            assert all(a != b for a, b in zip(bins, bins[1:]))
            assert all(b > 0 for b in bins)


class TestRenderFrame:
    def test_single_part_fill_count_and_value(self):
        model = chain_model(1, 10.0, 4.0)
        state = np.array([[10.0, 8.0, 0.0]])
        img = render_frame(model, state, 20, 16)
        assert img.dtype == np.uint8
        assert (img == 255).sum() == 40
        assert (img == 0).sum() == 20 * 16 - 40

    def test_higher_id_painted_on_top(self):
        model = ArticulatedModel(DbnSpec(2, (None, None)), (10.0, 10.0), (4.0, 4.0))
        state = np.array([[10.0, 8.0, 0.0], [10.0, 8.0, 0.0]])
        img = render_frame(model, state, 20, 16)
        assert (img == part_intensity(2, 2)).sum() == 40
        assert (img == part_intensity(1, 2)).sum() == 0

    def test_off_canvas_part_ignored(self):
        model = chain_model(1)
        img = render_frame(model, np.array([[-50.0, -50.0, 0.0]]), 20, 16)
        assert not img.any()

    @pytest.mark.parametrize("case", range(16))
    def test_matches_the_oracle_painting(self, case):
        """Random multi-part poses mixing overlapping, border-straddling,
        off-canvas and quarter-pixel right-angle parts, against the oracle
        that paints part by part in ascending id."""
        rng = np.random.default_rng(case)
        spec = DbnSpec.star(3, 2)
        p = spec.part_count
        model = ArticulatedModel(
            spec, tuple(rng.uniform(2.0, 16.0, p)), tuple(rng.integers(2, 24, p) / 4.0)
        )
        width, height = int(rng.integers(8, 40)), int(rng.integers(8, 32))
        state = np.empty((p, 3))
        for i in range(p):
            kind = rng.integers(4)
            if kind == 0:  # anywhere on the canvas, most parts overlap
                row = (rng.uniform(0, width), rng.uniform(0, height), rng.uniform(-3.1, 3.1))
            elif kind == 1:  # across one of the four borders
                x, y = rng.uniform(0, width), rng.uniform(0, height)
                x, y = ((0.0, y), (float(width), y), (x, 0.0), (x, float(height)))[rng.integers(4)]
                row = (x, y, rng.uniform(-3.1, 3.1))
            elif kind == 2:  # wholly off the canvas
                row = (rng.choice((-30.0, width + 30.0)), rng.uniform(-30, height + 30), 1.0)
            else:  # on the quarter-pixel grid at a right angle
                row = (
                    rng.integers(0, 4 * width) / 4.0,
                    rng.integers(0, 4 * height) / 4.0,
                    rng.choice((0.0, math.pi / 2, -math.pi / 2, math.pi)),
                )
            state[i] = row
        state[-1] = state[0]  # one exact overlap: the higher id must win
        got = render_frame(model, state, width, height)
        np.testing.assert_array_equal(got, oracles.render_frame(model, state, width, height))


class TestEstimationError:
    def test_zero_for_identical(self):
        model = star_model(2, 2)
        state = default_pose(model, (40.0, 40.0))
        assert estimation_error(model, state, state) == 0.0

    def test_uniform_translation(self):
        model = chain_model(3)
        state = default_pose(model, (40.0, 40.0))
        shifted = state.copy()
        shifted[:, 0] += 3.0
        shifted[:, 1] += 4.0
        assert estimation_error(model, shifted, state) == pytest.approx(3 * 4 * 5.0)

    @pytest.mark.parametrize("length, width, scale", [(12.0, 6.0, 1.0), (30.0, 12.0, 5.0)])
    def test_stacked_poses_equal_their_own_calls_bit_for_bit(self, length, width, scale):
        model = ArticulatedModel.uniform(DbnSpec.star(4, 3), length, width)
        rng = np.random.default_rng(5)
        truth = [default_pose(model, (80.0 * scale, 64.0 * scale))]
        for _ in range(11):
            truth.append(ground_truth_step(model, truth[-1], scale, 0.025, rng))
        truth = np.stack(truth).reshape(3, 4, model.part_count, 3)
        noise = rng.normal(0.0, (2.0 * scale, 2.0 * scale, 0.2), truth.shape)
        estimates = truth + noise
        errors = estimation_error(model, estimates, truth)
        assert errors.shape == (3, 4)
        for i in range(3):
            for t in range(4):
                one = estimation_error(model, estimates[i, t], truth[i, t])
                assert type(one) is float
                assert one == errors[i, t]
            np.testing.assert_array_equal(estimation_error(model, estimates[i], truth[i]), errors[i])
