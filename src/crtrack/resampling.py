"""Resampling schemes for partitioned particle filters.

Five classical whole-particle schemes (multinomial, stratified, systematic,
residual, weighted) plus a combinatorial scheme that, at a given processing
stage, resamples as if the set had first been enlarged with every admissible
rearrangement of same-parent part blocks between particles.  A brute-force
enumeration of that enlarged ensemble is included as the validation oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .dbn import DbnSpec, compute_partition, descendants_within_slice


class DegenerateWeights(RuntimeError):
    """Raised when a weight vector carries no usable mass."""


class InstanceTooLarge(ValueError):
    """Raised when enumerating every rearrangement would blow up factorially."""


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


def initial_particle_set(n: int, state: np.ndarray) -> ParticleSet:
    """N exact copies of a known pose, uniform weights."""
    state = np.asarray(state, dtype=float)
    p = state.shape[0]
    return ParticleSet(
        states=np.repeat(state[None, :, :], n, axis=0),
        part_weights=np.ones((n, p)),
        weights=np.full(n, 1.0 / n),
    )


def _normalized(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DegenerateWeights("need a non-empty 1-d weight vector")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DegenerateWeights("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0:
        raise DegenerateWeights("weights sum to zero")
    return w / total


def _cdf(weights) -> np.ndarray:
    cdf = np.cumsum(_normalized(weights))
    cdf[-1] = 1.0  # guard the top against rounding; draws never exceed 1
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


def _resampled(pset: ParticleSet, indices: np.ndarray) -> ParticleSet:
    """Equal-weight copy of the selected rows; per-part factors restart at 1."""
    n = len(indices)
    return ParticleSet(
        states=pset.states[indices],
        part_weights=np.ones((n, pset.part_count)),
        weights=np.full(n, 1.0 / n),
    )


def multinomial_resample(pset: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    return _resampled(pset, multinomial_draw(pset.weights, rng))


def stratified_resample(pset: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    return _resampled(pset, stratified_draw(pset.weights, rng))


def systematic_resample(pset: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    return _resampled(pset, systematic_draw(pset.weights, rng))


def residual_resample(pset: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    return _resampled(pset, residual_draw(pset.weights, rng))


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
    return _resampled(pset, final)


@dataclass
class CompatibilityGroups:
    """Grouping of a particle set at one processing stage.

    ``members[h]`` lists the 0-based particle indices whose processed-part
    fragment is bit-for-bit identical (groups appear in first-occurrence
    order).  For each current-stage part k, ``part_members[k][h]`` lists every
    particle whose value for k's parent matches group h (a superset of
    ``members[h]``); ``part_weight_sums[k][h]`` is the sum of part-k weights
    over that pool and ``part_pool_max[k]`` the largest pool size.
    """

    stage: int
    parts: tuple[int, ...]
    members: tuple[np.ndarray, ...]
    part_members: dict[int, tuple[np.ndarray, ...]]
    part_weight_sums: dict[int, np.ndarray]
    part_pool_max: dict[int, int]

    @property
    def group_count(self) -> int:
        return len(self.members)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([len(m) for m in self.members])

    def part_sizes(self, k: int) -> np.ndarray:
        return np.array([len(m) for m in self.part_members[k]])


def _first_occurrence_labels(keys: list[bytes]) -> np.ndarray:
    order: dict[bytes, int] = {}
    for key in keys:
        order.setdefault(key, len(order))
    return np.array([order[key] for key in keys])


def group_compatibility(pset: ParticleSet, dbn: DbnSpec, stage: int) -> CompatibilityGroups:
    """Group particles by bit-exact equality of the parts processed before
    ``stage``, and pool donor candidates per current-stage part by equality of
    the parent value alone.  At stage 1 there is a single group holding
    everything, and parts without a parent pool over the whole set.
    """
    partition = compute_partition(dbn)
    if not 1 <= stage <= partition.num_steps:
        raise ValueError(f"stage must lie in 1..{partition.num_steps}")
    parts = partition.steps[stage - 1]
    prev = sorted(partition.processed_through(stage - 1))
    n = pset.n
    states = pset.states

    if prev:
        cols = [k - 1 for k in prev]
        labels = _first_occurrence_labels([states[i, cols].tobytes() for i in range(n)])
    else:
        labels = np.zeros(n, dtype=int)
    members = tuple(np.flatnonzero(labels == h) for h in range(labels.max() + 1))

    part_members: dict[int, tuple[np.ndarray, ...]] = {}
    part_weight_sums: dict[int, np.ndarray] = {}
    part_pool_max: dict[int, int] = {}
    for k in parts:
        parent = dbn.parent_of(k)
        if parent is None:
            pools = [np.arange(n)]
            pool_of_group = np.zeros(len(members), dtype=int)
        else:
            plabels = _first_occurrence_labels(
                [states[i, parent - 1].tobytes() for i in range(n)]
            )
            pools = [np.flatnonzero(plabels == c) for c in range(plabels.max() + 1)]
            pool_of_group = np.array([plabels[m[0]] for m in members])
        sums = np.array([float(pset.part_weights[pool, k - 1].sum()) for pool in pools])
        part_members[k] = tuple(pools[c] for c in pool_of_group)
        part_weight_sums[k] = sums[pool_of_group]
        part_pool_max[k] = max(len(pool) for pool in pools)

    return CompatibilityGroups(
        stage=stage,
        parts=parts,
        members=members,
        part_members=part_members,
        part_weight_sums=part_weight_sums,
        part_pool_max=part_pool_max,
    )


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
    A(n, r) = n!/(n-r)!.  Factorials go through log-gamma; groups whose pool
    weight sum vanishes get -inf and are never drawn.
    """
    sizes = groups.sizes.astype(float)
    logw = np.log(sizes)
    for k in groups.parts:
        pool_sizes = groups.part_sizes(k).astype(float)
        pool_max = float(groups.part_pool_max[k])
        sums = groups.part_weight_sums[k]
        if not np.all(np.isfinite(sums)) or np.any(sums < 0):
            raise DegenerateWeights(f"part {k} has invalid pool weight sums")
        with np.errstate(divide="ignore"):
            logw += (
                gammaln(pool_max + 1.0)
                - (gammaln(pool_sizes + 1.0) - gammaln(pool_sizes - sizes + 1.0))
                + (gammaln(pool_sizes) - gammaln(pool_sizes - sizes + 1.0))
                + np.log(sums)
            )
    if not np.any(np.isfinite(logw)):
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
    donor particle index per part per draw.
    """
    groups = group_compatibility(pset, dbn, stage)
    logw = group_log_weights(groups)
    mass = np.exp(logw - logw[np.isfinite(logw)].max())
    mass[~np.isfinite(logw)] = 0.0
    n = pset.n if size is None else int(size)
    chosen = multinomial_draw(mass, rng, size=n)
    donors: dict[int, np.ndarray] = {}
    for k in groups.parts:
        idx = np.empty(n, dtype=np.intp)
        for h in range(groups.group_count):
            here = np.flatnonzero(chosen == h)
            if here.size == 0:
                continue
            pool = groups.part_members[k][h]
            picks = multinomial_draw(pset.part_weights[pool, k - 1], rng, size=here.size)
            idx[here] = pool[picks]
        donors[k] = idx
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
    states = assemble_combinatorial(pset, dbn, stage, groups, chosen, donors)
    n, p = pset.n, pset.part_count
    return ParticleSet(
        states=states,
        part_weights=np.ones((n, p)),
        weights=np.full(n, 1.0 / n),
    )


def assemble_combinatorial(
    pset: ParticleSet,
    dbn: DbnSpec,
    stage: int,
    groups: CompatibilityGroups,
    chosen: np.ndarray,
    donors: dict[int, np.ndarray],
) -> np.ndarray:
    """States for a batch of (group, donors) draws: the processed fragment
    comes from the chosen group, each current-stage part plus its pending
    descendant fragment from that part's donor."""
    partition = compute_partition(dbn)
    m = len(chosen)
    states = np.empty((m, pset.part_count, 3))
    prev_cols = np.array([k - 1 for k in sorted(partition.processed_through(stage - 1))], dtype=int)
    if prev_cols.size:
        reps = np.array([mem[0] for mem in groups.members])
        states[:, prev_cols] = pset.states[reps[chosen][:, None], prev_cols[None, :]]
    for k in groups.parts:
        cols = np.array([k - 1] + [d - 1 for d in sorted(descendants_within_slice(dbn, k))], dtype=int)
        states[:, cols] = pset.states[donors[k][:, None], cols[None, :]]
    return states


def _donor_pools_by_parent(pset: ParticleSet, dbn: DbnSpec, parts) -> list[list[list[int]]]:
    """Particle index classes sharing the parent value, one list per part."""
    out = []
    for k in parts:
        parent = dbn.parent_of(k)
        if parent is None:
            out.append([list(range(pset.n))])
            continue
        by: dict[bytes, list[int]] = {}
        for i in range(pset.n):
            by.setdefault(pset.states[i, parent - 1].tobytes(), []).append(i)
        out.append(list(by.values()))
    return out


def enumerate_combinatorial_set(
    pset: ParticleSet, dbn: DbnSpec, stage: int, max_sets: int = 20000
) -> list[ParticleSet]:
    """Materialize every admissible rearrangement of the set at this stage.

    For each current-stage part, particles sharing the parent value may trade
    their block (the part plus its pending descendant fragment, with the
    part's weight attached); one rearranged set arises per combination of
    such tradings.  Returned sets keep the input's states layout; their
    ``weights`` hold the raw per-particle product of current-stage part
    weights (the mass each particle carries inside the pooled ensemble), not
    a normalized distribution.

    Raises InstanceTooLarge beyond 8 particles, 3 current-stage parts, or
    ``max_sets`` total rearrangements.
    """
    partition = compute_partition(dbn)
    if not 1 <= stage <= partition.num_steps:
        raise ValueError(f"stage must lie in 1..{partition.num_steps}")
    parts = partition.steps[stage - 1]
    n = pset.n
    if n > 8:
        raise InstanceTooLarge(f"{n} particles is past the enumeration guard (8)")
    if len(parts) > 3:
        raise InstanceTooLarge(f"{len(parts)} parts in one stage is past the enumeration guard (3)")
    pools = _donor_pools_by_parent(pset, dbn, parts)
    total = 1
    for classes in pools:
        for cls in classes:
            total *= math.factorial(len(cls))
        if total > max_sets:
            raise InstanceTooLarge(f"more than {max_sets} rearrangements")

    def permutations_of(classes: list[list[int]]):
        # every full-set index map that permutes only within each class
        for combo in itertools.product(*(itertools.permutations(c) for c in classes)):
            sigma = np.arange(n)
            for cls, perm in zip(classes, combo):
                sigma[cls] = perm
            yield sigma

    block_cols = [
        np.array([k - 1] + [d - 1 for d in sorted(descendants_within_slice(dbn, k))], dtype=int)
        for k in parts
    ]
    part_cols = np.array([k - 1 for k in parts], dtype=int)
    out: list[ParticleSet] = []
    for sigmas in itertools.product(*(list(permutations_of(c)) for c in pools)):
        states = pset.states.copy()
        part_weights = pset.part_weights.copy()
        for k, cols, sigma in zip(parts, block_cols, sigmas):
            states[:, cols] = pset.states[sigma[:, None], cols[None, :]]
            part_weights[:, k - 1] = pset.part_weights[sigma, k - 1]
        weights = part_weights[:, part_cols].prod(axis=1)
        out.append(
            ParticleSet(
                states=states,
                part_weights=part_weights,
                weights=weights,
                fresh=pset.fresh,
            )
        )
    return out
