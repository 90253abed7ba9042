"""Independent reference computations for the test suite.

Everything here is deliberately written the slow, obvious way (scalar loops,
exact integer arithmetic, pure-python permutation enumeration) so the fast
library code can be checked against a second route that shares no logic with
it beyond the data containers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from crtrack.dbn import DbnSpec, compute_partition
from crtrack.resampling import ParticleSet


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
