"""Independent reference computations for the test suite.

Everything here is deliberately written the slow, obvious way (scalar loops,
one polygon and one pixel at a time, exact integer arithmetic, pure-python
permutation enumeration) so the fast library code can be checked against a
second route that shares no logic with it beyond the data containers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln

from crtrack import likelihood
from crtrack.dbn import DbnSpec, compute_partition
from crtrack.geometry import part_intensity, polygon_bboxes, polygon_fills, wrap_angle
from crtrack.likelihood import BIN_COUNT
from crtrack.resampling import ParticleSet, multinomial_draw


@dataclass(frozen=True)
class Histogram8:
    """Normalized 8-bin intensity histogram over [0, 255].

    ``empty`` marks a region containing no pixel; the bins are then uniform so
    every downstream distance stays defined.
    """

    bins: np.ndarray
    empty: bool = False


def point_in_polygon(px: float, py: float, corners) -> bool:
    """Scalar even-odd crossing test with half-open edges, matching the
    rasterizer's boundary convention."""
    inside = False
    m = len(corners)
    for a in range(m):
        x1, y1 = corners[a]
        x2, y2 = corners[(a + 1) % m]
        if (y1 <= py < y2) or (y2 <= py < y1):
            xcross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < xcross:
                inside = not inside
    return inside


def brute_force_mask(corners, x0: int, y0: int, nx: int, ny: int) -> np.ndarray:
    mask = np.zeros((ny, nx), dtype=bool)
    for row in range(ny):
        for col in range(nx):
            mask[row, col] = point_in_polygon(x0 + col + 0.5, y0 + row + 0.5, corners)
    return mask


def polygon_mask(corners, x0: int, y0: int, nx: int, ny: int) -> np.ndarray:
    """Scanline fill of one simple polygon over the pixel block at (x0, y0),
    shape (ny, nx): even-odd crossings with half-open edge spans
    (y1 <= yc < y2) and a strict x comparison at the pixel centres.

    This is the scalar rasterizer the batched ``polygon_fills`` reproduces,
    float expression for float expression, for convex polygons; it fills
    concave and self-intersecting ones too.  ``brute_force_mask`` computes
    each crossing in another order, which can round a centre lying exactly
    on an edge to the other side (a diagonal edge traversed both ways, as in
    a degenerate quad, shows it), so the bit-for-bit checks use this one.
    """
    mask = np.zeros((ny, nx), dtype=bool)
    if nx <= 0 or ny <= 0:
        return mask
    yc = y0 + np.arange(ny) + 0.5
    xc = x0 + np.arange(nx) + 0.5
    n = len(corners)
    for e in range(n):
        x1, y1 = corners[e]
        x2, y2 = corners[(e + 1) % n]
        if y1 == y2:
            continue
        rows = ((y1 <= yc) & (yc < y2)) | ((y2 <= yc) & (yc < y1))
        if not rows.any():
            continue
        t = (yc[rows] - y1) / (y2 - y1)
        xint = x1 + t * (x2 - x1)
        mask[rows] ^= xc[None, :] < xint[:, None]
    return mask


def place_polygon(model, k: int, state) -> np.ndarray:
    """Corners (4, 2) of part k at one (x, y, theta) row: counterclockwise
    from local (-L/2, -W/2), rotated with ``np.cos``/``np.sin`` of one float."""
    x, y, theta = float(state[0]), float(state[1]), float(state[2])
    length, width = model.lengths[k - 1], model.widths[k - 1]
    c, s = float(np.cos(theta)), float(np.sin(theta))
    local = np.array([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]) * (length, width)
    return np.column_stack(
        (x + local[:, 0] * c - local[:, 1] * s, y + local[:, 0] * s + local[:, 1] * c)
    )


def polygon_bbox(corners, width: int, height: int) -> tuple[int, int, int, int]:
    """Pixel block (x0, y0, nx, ny) covering one polygon, clipped to canvas."""
    x0 = max(0, int(math.floor(corners[:, 0].min() - 0.5)))
    y0 = max(0, int(math.floor(corners[:, 1].min() - 0.5)))
    x1 = min(width - 1, int(math.ceil(corners[:, 0].max() + 0.5)))
    y1 = min(height - 1, int(math.ceil(corners[:, 1].max() + 0.5)))
    return x0, y0, max(0, x1 - x0 + 1), max(0, y1 - y0 + 1)


def region_histogram(image: np.ndarray, corners) -> Histogram8:
    """Histogram of the pixels of ``image`` whose centres fall inside one
    quadrilateral (``polygon_mask`` over its clipped bounding box); uniform
    and flagged empty for a region with no pixel."""
    height, width = image.shape
    x0, y0, nx, ny = polygon_bbox(corners, width, height)
    if nx > 0 and ny > 0:
        values = image[y0 : y0 + ny, x0 : x0 + nx][polygon_mask(corners, x0, y0, nx, ny)]
        if values.size:
            return Histogram8(np.bincount(values >> 5, minlength=BIN_COUNT) / values.size)
    return Histogram8(np.full(BIN_COUNT, 1.0 / BIN_COUNT), empty=True)


def mask_region_counts(image: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """``likelihood.region_counts`` by the mask route: every region is
    rasterized with ``polygon_fills`` over one window sized to the largest
    clipped bounding box (split over particles beyond the library's
    ``WINDOW_CELLS``, read at call time), the windows are views of a
    zero-padded copy of the frame, and the masked cells are gathered and
    counted with one ``np.bincount``.  The library counts the same pixels
    from their runs instead; the two must agree bit for bit."""
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
    step = max(1, likelihood.WINDOW_CELLS // max(1, wy * wx))
    for lo in range(0, n, step):
        batch = slice(lo, lo + step)
        mask = polygon_fills(corners[batch], x0[batch], y0[batch], nx[batch], ny[batch])
        values = windows[y0[batch], x0[batch], : mask.shape[1], : mask.shape[2]][mask] >> 5
        keys = np.repeat(np.arange(len(mask)) * BIN_COUNT, mask.sum(axis=(1, 2)))
        keys += values
        counts[batch] = np.bincount(keys, minlength=len(mask) * BIN_COUNT).reshape(-1, BIN_COUNT)
    return counts


def bhattacharyya(p: Histogram8, q: Histogram8) -> float:
    """sqrt(1 - sum_i sqrt(p_i q_i)), the argument clamped at zero."""
    coeff = float(np.sqrt(p.bins * q.bins).sum())
    return math.sqrt(max(0.0, 1.0 - coeff))


def part_factor(image: np.ndarray, corners, ref: Histogram8, lam: float) -> float:
    """Likelihood factor exp(-lam d^2) of one placement against ``ref``."""
    distance = bhattacharyya(region_histogram(image, corners), ref)
    return float(np.exp(-lam * distance * distance))


def render_frame(model, state, width: int, height: int) -> np.ndarray:
    """Frame painted part by part in ascending id, each part's pixels from
    ``polygon_mask`` over its clipped bounding box."""
    img = np.zeros((height, width), dtype=np.uint8)
    p = model.part_count
    for k in range(1, p + 1):
        corners = place_polygon(model, k, state[k - 1])
        x0, y0, nx, ny = polygon_bbox(corners, width, height)
        if nx > 0 and ny > 0:
            block = img[y0 : y0 + ny, x0 : x0 + nx]
            block[polygon_mask(corners, x0, y0, nx, ny)] = part_intensity(k, p)
    return img


def _ancestors(spec: DbnSpec, k: int) -> list[int]:
    out = []
    a = spec.parents[k - 1]
    while a is not None:
        out.append(a)
        a = spec.parents[a - 1]
    return out


def _descendants(spec: DbnSpec, k: int) -> list[int]:
    return sorted(d for d in range(1, spec.part_count + 1) if k in _ancestors(spec, d))


def _depth_steps(spec: DbnSpec) -> list[tuple[int, ...]]:
    """Parts grouped by ancestor count; the oracle's own notion of the
    parallel processing order."""
    depth = {k: len(_ancestors(spec, k)) for k in range(1, spec.part_count + 1)}
    return [
        tuple(sorted(k for k, d in depth.items() if d == level))
        for level in range(max(depth.values()) + 1)
    ]


def tip_point(model, k: int, state) -> tuple[float, float]:
    """Midpoint of part k's tip edge, where children attach."""
    x, y, theta = float(state[0]), float(state[1]), float(state[2])
    half = model.lengths[k - 1] / 2.0
    return (x + half * float(np.cos(theta)), y + half * float(np.sin(theta)))


def _attach_centre(model, k: int, theta: float, tip: tuple[float, float]) -> tuple[float, float]:
    # Centre such that the base midpoint of part k lands on the parent tip.
    half = model.lengths[k - 1] / 2.0
    return (tip[0] + half * float(np.cos(theta)), tip[1] + half * float(np.sin(theta)))


def default_pose(model, centre: tuple[float, float]) -> np.ndarray:
    """The rest pose walked one part at a time: roots at ``centre`` facing
    +x, the children of each part fanned over (-pi, pi) by sibling rank."""
    spec = model.spec
    state = np.zeros((spec.part_count, 3))
    for step in _depth_steps(spec):
        for k in step:
            parent = spec.parent_of(k)
            if parent is None:
                state[k - 1] = (centre[0], centre[1], 0.0)
                continue
            siblings = spec.children_of(parent)
            rank = siblings.index(k)
            rel = -np.pi + 2.0 * math.pi * (rank + 1) / (len(siblings) + 1)
            theta = wrap_angle(state[parent - 1, 2] + rel)
            tip = tip_point(model, parent, state[parent - 1])
            cx, cy = _attach_centre(model, k, theta, tip)
            state[k - 1] = (cx, cy, theta)
    return state


def ground_truth_step(model, state, sigma_xy, sigma_theta, rng, root_bounds=None) -> np.ndarray:
    """One motion step walked one part at a time, with one scalar draw per
    value: (dx, dy, dtheta) of each root, then dtheta of each later part."""
    spec = model.spec
    out = np.array(state, dtype=float, copy=True)
    applied = np.zeros(spec.part_count)
    for step in _depth_steps(spec):
        for k in step:
            parent = spec.parent_of(k)
            if parent is None:
                dx = rng.normal(0.0, sigma_xy)
                dy = rng.normal(0.0, sigma_xy)
                dt = rng.normal(0.0, sigma_theta)
                x = out[k - 1, 0] + dx
                y = out[k - 1, 1] + dy
                if root_bounds is not None:
                    x = min(max(x, root_bounds[0]), root_bounds[1])
                    y = min(max(y, root_bounds[2]), root_bounds[3])
                out[k - 1] = (x, y, wrap_angle(out[k - 1, 2] + dt))
                applied[k - 1] = dt
            else:
                dt = rng.normal(0.0, sigma_theta)
                inc = applied[parent - 1] + dt
                theta = wrap_angle(out[k - 1, 2] + inc)
                tip = tip_point(model, parent, out[parent - 1])
                cx, cy = _attach_centre(model, k, theta, tip)
                out[k - 1] = (cx, cy, theta)
                applied[k - 1] = inc
    return out


def blocks_of(spec: DbnSpec, k: int) -> list[int]:
    """Column indexes of part k plus its pending within-slice descendants."""
    return [k - 1] + [d - 1 for d in _descendants(spec, k)]


def _stage_columns(spec: DbnSpec, stage: int) -> tuple[list[int], list[int]]:
    steps = _depth_steps(spec)
    prev_cols = sorted(k - 1 for step in steps[: stage - 1] for k in step)
    part_cols = [k - 1 for k in steps[stage - 1]]
    return prev_cols, part_cols


def reference_rearrangements(pset: ParticleSet, spec: DbnSpec, stage: int):
    """Yield (states, part_weights) for every admissible rearrangement.

    For each current-stage part, particles sharing the parent value may trade
    their block (the part plus its pending descendants, with the part's
    weight); one rearrangement per combination of within-class permutations.
    """
    parts = _depth_steps(spec)[stage - 1]
    n = pset.n
    classes_per_part = []
    for k in parts:
        parent = spec.parents[k - 1]
        by: dict[bytes, list[int]] = {}
        for i in range(n):
            key = b"root" if parent is None else pset.states[i, parent - 1].tobytes()
            by.setdefault(key, []).append(i)
        classes_per_part.append(list(by.values()))

    def index_maps(classes):
        for combo in itertools.product(*(itertools.permutations(c) for c in classes)):
            sigma = list(range(n))
            for cls, perm in zip(classes, combo):
                for slot, src in zip(cls, perm):
                    sigma[slot] = src
            yield sigma

    for sigmas in itertools.product(*(list(index_maps(c)) for c in classes_per_part)):
        states = pset.states.copy()
        part_weights = pset.part_weights.copy()
        for k, sigma in zip(parts, sigmas):
            cols = blocks_of(spec, k)
            for i in range(n):
                states[i, cols] = pset.states[sigma[i], cols]
                part_weights[i, k - 1] = pset.part_weights[sigma[i], k - 1]
        yield states, part_weights


def group_members(groups) -> tuple[np.ndarray, ...]:
    """The particles of each group of a library grouping, ascending."""
    return tuple(np.flatnonzero(groups.labels == h) for h in range(groups.group_count))


def gammaln_log_masses(groups) -> np.ndarray:
    """Log group masses of a library grouping from the paper's closed form,
    term by term through log-gamma, without cancelling anything:

        N_h * prod_k [ (N^k)! / A(N^k_h, N_h) ] * A(N^k_h - 1, N_h - 1) * W^k_h
    """
    sizes = groups.sizes.astype(float)
    logw = np.log(sizes)
    for k in groups.parts:
        labels, pool_sizes, sums, _ = groups.pools[k]
        pool = labels[groups.reps]
        pool_max = float(pool_sizes.max())
        pool_sizes, sums = pool_sizes[pool].astype(float), sums[pool]
        with np.errstate(divide="ignore"):
            logw += (
                gammaln(pool_max + 1.0)
                - (gammaln(pool_sizes + 1.0) - gammaln(pool_sizes - sizes + 1.0))
                + (gammaln(pool_sizes) - gammaln(pool_sizes - sizes + 1.0))
                + np.log(sums)
            )
    return logw


def reference_combinatorial_resample(
    pset: ParticleSet, spec: DbnSpec, stage: int, rng: np.random.Generator, per_pool: bool = False
) -> np.ndarray:
    """Resampled states of the combinatorial scheme, the slow way.

    Groups and donor pools come from per-row ``tobytes`` dictionaries, the
    group mass from the closed form term by term, and the donors of each
    (part, group) from their own draw, groups in ascending order.

    By default the arithmetic is the library's: each pool sums its weights
    one at a time in ascending index order, and a donor draw u targets
    ``below + u`` in one running sum of the weights, each divided by its own
    pool's sum, over the pools in first-occurrence order (``below`` is the
    running sum before the pool), kept above ``below`` and at most the
    running sum at the pool's last member.  The library draws the same
    stream in one pass per part, so the two must agree bit for bit, on CDF
    steps too.

    ``per_pool=True`` is the textbook form: pairwise pool sums (numpy's
    ``.sum()``) and one ``multinomial_draw`` per (part, group) over its pool
    alone.  It draws from the same law and differs only for a uniform within
    rounding of a CDF step.
    """
    prev_cols, _ = _stage_columns(spec, stage)
    parts = _depth_steps(spec)[stage - 1]
    n = pset.n

    def first_occurrence_labels(keys):
        order: dict[bytes, int] = {}
        for key in keys:
            order.setdefault(key, len(order))
        return np.array([order[key] for key in keys])

    def sequential_sum(values):
        total = 0.0
        for v in values:
            total += float(v)
        return total

    labels = first_occurrence_labels([pset.states[i][prev_cols].tobytes() for i in range(n)])
    members = [np.flatnonzero(labels == h) for h in range(labels.max() + 1)]
    sizes = np.array([len(m) for m in members]).astype(float)
    logw = np.log(sizes)
    part_pools = {}
    for k in parts:
        parent = spec.parents[k - 1]
        if parent is None:
            pools = [np.arange(n)]
            pool_of_group = np.zeros(len(members), dtype=int)
        else:
            plabels = first_occurrence_labels(
                [pset.states[i, parent - 1].tobytes() for i in range(n)]
            )
            pools = [np.flatnonzero(plabels == c) for c in range(plabels.max() + 1)]
            pool_of_group = np.array([plabels[m[0]] for m in members])
        w = pset.part_weights[:, k - 1]
        pool_sums = [float(w[pool].sum()) if per_pool else sequential_sum(w[pool]) for pool in pools]
        part_pools[k] = (pools, pool_of_group, pool_sums)
        pool_sizes = np.array([len(pools[c]) for c in pool_of_group]).astype(float)
        sums = np.array(pool_sums)[pool_of_group]
        with np.errstate(divide="ignore"):
            logw += np.log(sums) - np.log(pool_sizes)
    mass = np.exp(logw - logw[np.isfinite(logw)].max())
    mass[~np.isfinite(logw)] = 0.0
    chosen = multinomial_draw(mass, rng, size=n)

    states = np.empty_like(pset.states)
    for j in range(n):
        states[j][prev_cols] = pset.states[members[chosen[j]][0]][prev_cols]
    for k in parts:
        pools, pool_of_group, pool_sums = part_pools[k]
        w = pset.part_weights[:, k - 1]
        # per pool: the running sum before it and after each of its members
        runs, total = [], 0.0
        for pool, pool_sum in zip(pools, pool_sums):
            below, running = total, []
            for i in pool:
                total += float(w[i]) / pool_sum if pool_sum > 0 else 0.0
                running.append(total)
            runs.append((below, running))
        donors = np.empty(n, dtype=int)
        for h in range(len(members)):
            here = np.flatnonzero(chosen == h)
            if here.size == 0:
                continue
            pool = pools[pool_of_group[h]]
            if per_pool:
                picks = multinomial_draw(w[pool], rng, size=here.size)
            else:
                below, running = runs[pool_of_group[h]]
                picks = []
                for u in 1.0 - rng.random(here.size):
                    target = min(max(below + float(u), math.nextafter(below, math.inf)), running[-1])
                    picks.append(next(j for j, value in enumerate(running) if value >= target))
            donors[here] = pool[picks]
        cols = blocks_of(spec, k)
        for j in range(n):
            states[j][cols] = pset.states[donors[j]][cols]
    return states


def rearrangement_count(pset: ParticleSet, spec: DbnSpec, stage: int) -> int:
    parts = _depth_steps(spec)[stage - 1]
    total = 1
    for k in parts:
        parent = spec.parents[k - 1]
        by: dict[bytes, int] = {}
        for i in range(pset.n):
            key = b"root" if parent is None else pset.states[i, parent - 1].tobytes()
            by[key] = by.get(key, 0) + 1
        for size in by.values():
            total *= math.factorial(size)
    return total


def integer_mass(part_weights: np.ndarray, i: int, part_cols) -> int:
    """Product of one particle's (integer-valued) current-stage part weights,
    in exact arithmetic."""
    mass = 1
    for c in part_cols:
        w = part_weights[i, c]
        iw = int(round(w))
        if iw != w:
            raise ValueError("oracle needs integer-valued part weights")
        mass *= iw
    return mass


def union_group_masses(pset: ParticleSet, spec: DbnSpec, stage: int) -> dict[bytes, int]:
    """Total integer mass per processed-fragment value, pooled over every
    rearrangement of the set."""
    prev_cols, part_cols = _stage_columns(spec, stage)
    masses: dict[bytes, int] = {}
    for states, part_weights in reference_rearrangements(pset, spec, stage):
        for i in range(pset.n):
            key = states[i][prev_cols].tobytes()
            masses[key] = masses.get(key, 0) + integer_mass(part_weights, i, part_cols)
    return masses


def union_particle_law(pset: ParticleSet, spec: DbnSpec, stage: int) -> dict[bytes, Fraction]:
    """Exact law of one multinomial draw from the pooled rearranged ensemble,
    keyed by the full state value."""
    _, part_cols = _stage_columns(spec, stage)
    masses: dict[bytes, int] = {}
    for states, part_weights in reference_rearrangements(pset, spec, stage):
        for i in range(pset.n):
            key = states[i].tobytes()
            masses[key] = masses.get(key, 0) + integer_mass(part_weights, i, part_cols)
    total = sum(masses.values())
    return {key: Fraction(mass, total) for key, mass in masses.items()}


def part_value_row(k: int, v: int) -> tuple[float, float, float]:
    """Deterministic distinct (x, y, theta) encoding of abstract value v for
    part k; equal (k, v) gives bit-identical rows."""
    return (float(10 * k + v), float(100 * k + 7 * v), 0.125 * v)


def random_small_instance(
    rng: np.random.Generator,
    max_parts: int = 5,
    max_n: int = 6,
    stage_part_cap: int = 2,
    value_alphabet: int = 2,
    weight_high: int = 4,
    unit_weights: bool = False,
    max_rearrangements: int = 3000,
) -> tuple[ParticleSet, DbnSpec, int]:
    """Random tree, stage and particle set for oracle comparisons.

    Guarantees at least one duplicated processed fragment and a current
    stage of at most ``stage_part_cap`` parts; part weights are small
    integers so exact arithmetic applies.  Instances whose rearrangement
    ensemble would exceed ``max_rearrangements`` are redrawn to keep the
    brute-force route fast.
    """
    while True:
        p = int(rng.integers(2, max_parts + 1))
        parents: list = [None]
        for k in range(2, p + 1):
            parents.append(int(rng.integers(1, k)))
        spec = DbnSpec(p, tuple(parents))
        partition = compute_partition(spec)
        candidates = [
            j
            for j in range(2, partition.num_steps + 1)
            if len(partition.steps[j - 1]) <= stage_part_cap
        ]
        if not candidates:
            continue
        stage = int(rng.choice(candidates))

        n = int(rng.integers(2, max_n + 1))
        states = np.zeros((n, p, 3))
        for k in range(1, p + 1):
            for i in range(n):
                states[i, k - 1] = part_value_row(k, int(rng.integers(0, value_alphabet)))
        prev_cols, part_cols = _stage_columns(spec, stage)
        # force a duplicate central fragment so grouping is non-trivial
        states[1][prev_cols] = states[0][prev_cols]

        part_weights = np.ones((n, p))
        if not unit_weights:
            for c in part_cols:
                part_weights[:, c] = rng.integers(1, weight_high + 1, size=n)
        weights = np.full(n, 1.0 / n)
        pset = ParticleSet(states=states, part_weights=part_weights, weights=weights)
        if rearrangement_count(pset, spec, stage) <= max_rearrangements:
            return pset, spec, stage
