"""Resampling schemes for partitioned particle filters.

Five classical whole-particle schemes (multinomial, stratified, systematic,
residual, weighted) plus a combinatorial scheme that, at a given processing
stage, resamples as if the set had first been enlarged with every admissible
rearrangement of same-parent part blocks between particles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dbn import DbnSpec, compute_partition, descendants_within_slice


class DegenerateWeights(RuntimeError):
    """Raised when a weight vector carries no usable mass."""


@dataclass
class ParticleSet:
    """Weighted particles over an articulated object, midway through a frame.

    ``states``: (N, P, 3) with columns (x, y, theta); rows of parts already
    processed this frame hold current-frame values, pending parts still hold
    previous-frame values.  ``part_weights``: (N, P) per-part likelihood
    factors, reset to 1 by every resample and assigned when a part is scored.
    ``weights``: (N,) total weights, normalized once per stage.  ``fresh``:
    parts scored since the last resample; resamplers reset it.  The total
    weight of a particle is proportional to the product of its fresh part
    factors.
    """

    states: np.ndarray
    part_weights: np.ndarray
    weights: np.ndarray
    fresh: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def part_count(self) -> int:
        return self.states.shape[1]

    def copy(self) -> "ParticleSet":
        return replace(
            self,
            states=self.states.copy(),
            part_weights=self.part_weights.copy(),
            weights=self.weights.copy(),
        )


def _equal_weighted(states: np.ndarray) -> ParticleSet:
    """Equal-weight set over ``states``; per-part factors start at 1."""
    n, p = states.shape[:2]
    return ParticleSet(states=states, part_weights=np.ones((n, p)), weights=np.full(n, 1.0 / n))


def initial_particle_set(n: int, state: np.ndarray) -> ParticleSet:
    """N exact copies of a known pose, uniform weights."""
    return _equal_weighted(np.repeat(np.asarray(state, dtype=float)[None, :, :], n, axis=0))


def _normalized(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DegenerateWeights("need a non-empty 1-d weight vector")
    if not np.isfinite(w).all() or (w < 0).any():
        raise DegenerateWeights("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0:
        raise DegenerateWeights("weights sum to zero")
    return w / total


def _cdf(weights) -> np.ndarray:
    cdf = np.cumsum(_normalized(weights))
    # guard the top against rounding from the last positive weight on, so a
    # draw of 1 never lands on a trailing zero weight; draws never exceed 1
    cdf[cdf == cdf[-1]] = 1.0
    return cdf


def inverse_cdf_lookup(cdf: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Index j such that cdf[j-1] < u <= cdf[j] for each draw u in (0, 1].

    A draw exactly on a boundary belongs to the interval it closes, and
    zero-weight particles (empty intervals) are never selected.
    """
    return np.searchsorted(cdf, draws, side="left")


def multinomial_draw(weights, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """``size`` independent inverse-CDF draws (default: one per weight)."""
    cdf = _cdf(weights)
    m = len(cdf) if size is None else int(size)
    return inverse_cdf_lookup(cdf, 1.0 - rng.random(m))


def stratified_draw(weights, rng: np.random.Generator) -> np.ndarray:
    """One draw per stratum ((i-1)/N, i/N]."""
    cdf = _cdf(weights)
    n = len(cdf)
    u = (np.arange(1, n + 1) - rng.random(n)) / n
    return inverse_cdf_lookup(cdf, u)


def systematic_draw(weights, rng: np.random.Generator | None = None, offset: float | None = None) -> np.ndarray:
    """Draws at (i-1)/N + offset with a single shared offset in (0, 1/N].

    The offset comes from ``rng`` unless given explicitly (tests sweep it).
    """
    cdf = _cdf(weights)
    n = len(cdf)
    if offset is None:
        offset = (1.0 - rng.random()) / n
    if not 0.0 < offset <= 1.0 / n:
        raise ValueError(f"offset must lie in (0, 1/{n}]")
    return inverse_cdf_lookup(cdf, np.arange(n) / n + offset)


def residual_counts(weights) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic copy counts floor(N w_i) and the leftover residuals."""
    w = _normalized(weights)
    scaled = len(w) * w
    counts = np.floor(scaled).astype(int)
    return counts, scaled - counts


def residual_draw(weights, rng: np.random.Generator) -> np.ndarray:
    """floor(N w_i) deterministic copies, remainder drawn multinomially from
    the residual weights."""
    counts, residuals = residual_counts(weights)
    base = np.repeat(np.arange(len(counts)), counts)
    missing = len(counts) - int(counts.sum())
    if missing > 0:
        base = np.concatenate([base, multinomial_draw(residuals, rng, size=missing)])
    return base


def multinomial_resample(pset: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    return _equal_weighted(pset.states[multinomial_draw(pset.weights, rng)])


def stratified_resample(pset: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    return _equal_weighted(pset.states[stratified_draw(pset.weights, rng)])


def systematic_resample(pset: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    return _equal_weighted(pset.states[systematic_draw(pset.weights, rng)])


def residual_resample(pset: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    return _equal_weighted(pset.states[residual_draw(pset.weights, rng)])


def weighted_resample(pset: ParticleSet, g, rng: np.random.Generator) -> ParticleSet:
    """Draw by selection probabilities rho ~ g(weight), correct each survivor
    by weight/rho, then equalize with a systematic pass.

    ``g`` maps the weight vector to strictly positive selection scores; larger
    scores focus copies on the corresponding particles while the correction
    keeps the scheme unbiased.
    """
    scores = np.asarray(g(np.asarray(pset.weights, dtype=float)), dtype=float)
    if scores.shape != pset.weights.shape or not np.all(np.isfinite(scores)) or np.any(scores <= 0):
        raise DegenerateWeights("g must yield one finite positive score per particle")
    rho = scores / scores.sum()
    picked = multinomial_draw(rho, rng)
    corrected = pset.weights[picked] / rho[picked]
    final = picked[systematic_draw(corrected, rng)]
    return _equal_weighted(pset.states[final])


def _row_labels(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label the rows of ``rows`` (N, ...) by bit-exact equality, in
    first-occurrence order; also return the lowest index of every label.
    Rows of no values are all alike: one label, whose lowest index is 0."""
    flat = np.ascontiguousarray(rows).reshape(len(rows), -1)
    if flat.shape[1] == 0:
        return np.zeros(len(rows), dtype=np.intp), np.zeros(1, dtype=np.intp)
    keys = flat.view(np.dtype((np.void, flat.dtype.itemsize * flat.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.ravel()], np.sort(first)


@lru_cache(maxsize=64)
def _stage_columns(dbn: DbnSpec, stage: int) -> tuple[tuple[int, ...], np.ndarray, tuple[np.ndarray, ...]]:
    """Parts of ``stage``, the columns processed before it, and the block
    columns (the part plus its pending descendants) of each part."""
    partition = compute_partition(dbn)
    if not 1 <= stage <= partition.num_steps:
        raise ValueError(f"stage must lie in 1..{partition.num_steps}")
    parts = partition.steps[stage - 1]
    prev_cols = np.array([k - 1 for k in sorted(partition.processed_through(stage - 1))], dtype=int)
    blocks = tuple(
        np.array([k - 1] + [d - 1 for d in sorted(descendants_within_slice(dbn, k))], dtype=int)
        for k in parts
    )
    for cols in (prev_cols, *blocks):
        cols.setflags(write=False)  # the cache hands the same arrays to every caller
    return parts, prev_cols, blocks


@dataclass
class CompatibilityGroups:
    """Grouping of a particle set at one processing stage.

    ``labels[i]`` is the group of particle i: particles whose processed-part
    fragment is bit-for-bit identical share a group, numbered in
    first-occurrence order, and ``reps[h]`` is the lowest particle of group h.
    For current-stage part k, ``pools[k]`` is (label of each particle's donor
    pool, size of each pool, part-k weight sum of each pool, pool-sorted
    order); the order lists the particles pool by pool, ascending within a
    pool, so pool p occupies ``order[start:start + size]`` with ``start`` the
    sizes of the pools before it.  Group h draws donors from pool
    ``pools[k][0][reps[h]]``.  Parts with one parent share the labels, sizes
    and order.
    """

    parts: tuple[int, ...]
    labels: np.ndarray
    reps: np.ndarray
    pools: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]

    @property
    def group_count(self) -> int:
        return len(self.reps)

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels)

    @property
    def part_pool_max(self) -> dict[int, int]:
        return {k: int(sizes.max()) for k, (_, sizes, _, _) in self.pools.items()}


def group_compatibility(pset: ParticleSet, dbn: DbnSpec, stage: int) -> CompatibilityGroups:
    """Group particles by bit-exact equality of the parts processed before
    ``stage``, and pool donor candidates per current-stage part by equality of
    the parent value alone.  At stage 1 there is a single group holding
    everything, and parts without a parent pool over the whole set.
    """
    parts, prev_cols, _ = _stage_columns(dbn, stage)
    labels, reps = _row_labels(pset.states[:, prev_cols])

    # donor-pool labels, sizes and order, built once per parent that the
    # stage's parts share.  A parent is processed before its children, so each
    # group lies in one pool and the representatives' parent values label it;
    # the first particle with a parent value is a representative, so the
    # pools keep first-occurrence order.
    tables = {}
    for p in {dbn.parent_of(k) for k in parts}:
        plabels = _row_labels(pset.states[reps][:, [] if p is None else [p - 1]])[0][labels]
        tables[p] = (plabels, np.bincount(plabels), np.argsort(plabels, kind="stable"))
    pools = {}
    for k in parts:
        plabels, sizes, order = tables[dbn.parent_of(k)]
        w = pset.part_weights[:, k - 1]
        if not np.isfinite(w).all() or (w < 0).any():
            raise DegenerateWeights(f"part {k} weights must be finite and nonnegative")
        # each pool sums its weights one by one in ascending index order
        pools[k] = (plabels, sizes, np.bincount(plabels, weights=w, minlength=len(sizes)), order)
    return CompatibilityGroups(parts=parts, labels=labels, reps=reps, pools=pools)


def group_log_weights(groups: CompatibilityGroups) -> np.ndarray:
    """Log mass that each compatibility group carries in the ensemble of all
    admissible block rearrangements.

    Swapping the block of a part (the part plus its pending descendants)
    between particles that agree on the part's parent value leaves the
    represented density unchanged.  Summing particle weights over every such
    rearrangement of the whole set concentrates, for the group with central
    fragment h, to a mass proportional to

        N_h * prod_k [ (N^k)! / A(N^k_h, N_h) ] * A(N^k_h - 1, N_h - 1) * W^k_h

    where N_h = |group h|, N^k_h = |donor pool of part k for group h|,
    N^k = max_h N^k_h, W^k_h the pool's part-weight sum and
    A(n, r) = n!/(n-r)!.  Since A(n - 1, r - 1) / A(n, r) = 1/n and (N^k)! is
    common to every group, the mass is N_h * prod_k W^k_h / N^k_h: the group
    size times the mean donor-pool weight of each part.  Groups whose pool
    weight sum vanishes get -inf and are never drawn.
    """
    logw = np.log(groups.sizes)
    for k in groups.parts:
        labels, pool_sizes, sums, _ = groups.pools[k]
        pool = labels[groups.reps]
        if not np.isfinite(sums).all() or (sums < 0).any():
            raise DegenerateWeights(f"part {k} has invalid pool weight sums")
        with np.errstate(divide="ignore"):
            logw += np.log(sums[pool]) - np.log(pool_sizes[pool])
    if not np.isfinite(logw).any():
        raise DegenerateWeights("every group has zero or invalid mass")
    return logw


def combinatorial_draw(
    pset: ParticleSet,
    dbn: DbnSpec,
    stage: int,
    rng: np.random.Generator,
    size: int | None = None,
) -> tuple[CompatibilityGroups, np.ndarray, dict[int, np.ndarray]]:
    """Independent draws of (group, donor per current-stage part).

    Groups are drawn by exp(log mass - max log mass); within the chosen
    group, each part's donor is drawn from its pool in proportion to the
    per-part weights.  Returns the grouping, the group index per draw and a
    donor particle index per part per draw.  Each part takes its uniforms
    in one ``rng.random`` call, handed out group by group and ascending within
    a group: the stream of one inverse-CDF draw per (part, group).
    """
    groups = group_compatibility(pset, dbn, stage)
    logw = group_log_weights(groups)
    mass = np.exp(logw - logw.max())
    n = pset.n if size is None else int(size)
    chosen = multinomial_draw(mass, rng, size=n)
    by_group = np.argsort(chosen, kind="stable")
    rep_of_draw = groups.reps[chosen]
    donors: dict[int, np.ndarray] = {}
    for k in groups.parts:
        labels, sizes, sums, order = groups.pools[k]
        # one prefix sum over the pool-sorted weights, each divided by its own
        # pool's sum so that every pool spans about 1 whatever its mass (raw
        # weights would let a pool of tiny mass vanish in the rounding of the
        # pools before it); pools of zero mass, never drawn, add 0
        divisor = np.where(sums > 0, sums, np.inf)[labels[order]]
        cdf = np.cumsum(pset.part_weights[order, k - 1] / divisor)
        top = cdf[np.cumsum(sizes) - 1]
        below = np.concatenate(([0.0], top[:-1]))
        u = np.empty(n)
        u[by_group] = 1.0 - rng.random(n)
        pool = labels[rep_of_draw]
        # a draw u in (0, 1] targets below + u, kept above the pools before
        # and at most the pool's top, so it lands on a positive-weight member
        target = np.minimum(np.maximum(below[pool] + u, np.nextafter(below, np.inf)[pool]), top[pool])
        donors[k] = order[np.searchsorted(cdf, target, side="left")]
    return groups, chosen, donors


def combinatorial_resample(
    pset: ParticleSet, dbn: DbnSpec, stage: int, rng: np.random.Generator
) -> ParticleSet:
    """Resample as if drawing from the pooled rearranged ensemble.

    Each output particle takes the processed fragment of a group drawn by
    ensemble mass, then each current-stage part together with its pending
    descendant fragment from an independently drawn donor.  The draws already
    account for all weights, so the output is equal-weighted.
    """
    groups, chosen, donors = combinatorial_draw(pset, dbn, stage, rng)
    return _equal_weighted(assemble_combinatorial(pset, dbn, stage, groups, chosen, donors))


def assemble_combinatorial(
    pset: ParticleSet,
    dbn: DbnSpec,
    stage: int,
    groups: CompatibilityGroups,
    chosen: np.ndarray,
    donors: dict[int, np.ndarray],
) -> np.ndarray:
    """States for a batch of (group, donors) draws: the processed fragment
    comes from the chosen group (whole rows of its representative are taken,
    then overwritten), each current-stage part plus its pending descendant
    fragment from that part's donor."""
    parts, _, blocks = _stage_columns(dbn, stage)
    states = pset.states[groups.reps[chosen]]
    for k, cols in zip(parts, blocks):
        states[:, cols] = pset.states[donors[k][:, None], cols[None, :]]
    return states
