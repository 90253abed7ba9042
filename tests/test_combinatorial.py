import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from crtrack import resampling
from crtrack.dbn import DbnSpec, compute_partition
from crtrack.resampling import (
    DegenerateWeights,
    ParticleSet,
    assemble_combinatorial,
    combinatorial_draw,
    combinatorial_resample,
    group_compatibility,
    group_log_weights,
)

from conftest import make_particle_set
from oracles import (
    blocks_of,
    gammaln_log_masses,
    group_members,
    random_small_instance,
    reference_combinatorial_resample,
    reference_rearrangements,
    union_group_masses,
    union_particle_law,
)


def group_key(pset, spec, stage, i):
    cols = [k - 1 for k in sorted(compute_partition(spec).processed_through(stage - 1))]
    return pset.states[i][cols].tobytes()


def pool_of(groups, k, h):
    """Particles in the part-k donor pool of group h, ascending."""
    labels = groups.pools[k][0]
    return np.flatnonzero(labels == labels[groups.reps[h]])


def rearranged_sets(pset, spec, stage):
    """The oracle's rearrangements as (states, part_weights, weights) with
    the raw product of current-stage part weights per particle."""
    part_cols = [k - 1 for k in compute_partition(spec).steps[stage - 1]]
    return [
        (states, pw, pw[:, part_cols].prod(axis=1))
        for states, pw in reference_rearrangements(pset, spec, stage)
    ]


def normalized_masses(pset, spec, stage):
    logw = group_log_weights(group_compatibility(pset, spec, stage))
    mass = np.exp(logw - logw.max())
    return mass / mass.sum()


class TestGrouping:
    def test_five_part_group_members(self, five_part_instance):
        pset, spec, stage = five_part_instance
        groups = group_compatibility(pset, spec, stage)
        assert [m.tolist() for m in group_members(groups)] == [[0, 1], [2], [3, 4]]
        assert groups.parts == (3, 5)
        assert groups.sizes.sum() == pset.n

    def test_five_part_donor_pools(self, five_part_instance):
        pset, spec, stage = five_part_instance
        groups = group_compatibility(pset, spec, stage)
        assert groups.reps.tolist() == [0, 2, 3]
        assert [pool_of(groups, 3, h).tolist() for h in range(3)] == [[0, 1, 2], [0, 1, 2], [3, 4]]
        assert [pool_of(groups, 5, h).tolist() for h in range(3)] == [[0, 1], [2, 3, 4], [2, 3, 4]]
        assert groups.part_pool_max == {3: 3, 5: 3}
        for k, labels, sizes, group_sums in (
            (3, [0, 0, 0, 1, 1], [3, 2], [3.0, 3.0, 2.0]),
            (5, [0, 0, 1, 1, 1], [2, 3], [2.0, 3.0, 3.0]),
        ):
            pool_labels, pool_sizes, pool_sums, _ = groups.pools[k]
            assert pool_labels.tolist() == labels
            assert pool_sizes.tolist() == sizes
            np.testing.assert_allclose(pool_sums[pool_labels[groups.reps]], group_sums)

    def test_groups_are_subsets_of_their_pools(self, five_part_instance):
        pset, spec, stage = five_part_instance
        groups = group_compatibility(pset, spec, stage)
        members = group_members(groups)
        for k in groups.parts:
            for h in range(groups.group_count):
                assert set(members[h]) <= set(pool_of(groups, k, h))

    def test_stage_one_is_a_single_group(self, five_part_instance):
        pset, spec, _ = five_part_instance
        groups = group_compatibility(pset, spec, 1)
        assert groups.group_count == 1
        assert group_members(groups)[0].tolist() == [0, 1, 2, 3, 4]
        assert pool_of(groups, 1, 0).tolist() == [0, 1, 2, 3, 4]

    def test_stage_out_of_range(self, five_part_instance):
        pset, spec, _ = five_part_instance
        with pytest.raises(ValueError):
            group_compatibility(pset, spec, 0)
        with pytest.raises(ValueError):
            group_compatibility(pset, spec, 9)

    def test_grouping_is_bitwise(self, five_part_instance):
        pset, spec, stage = five_part_instance
        nudged = pset.copy()
        nudged.states[1, 0, 0] = np.nextafter(nudged.states[1, 0, 0], np.inf)
        groups = group_compatibility(nudged, spec, stage)
        assert groups.group_count == 4


class TestGroupMass:
    def test_five_part_unit_weight_masses(self, five_part_instance):
        pset, spec, stage = five_part_instance
        np.testing.assert_allclose(
            normalized_masses(pset, spec, stage), [0.4, 0.2, 0.4], atol=1e-12
        )

    def test_five_part_matches_enumeration_oracle(self, five_part_instance):
        pset, spec, stage = five_part_instance
        masses = union_group_masses(pset, spec, stage)
        assert masses[group_key(pset, spec, stage, 0)] == 288
        assert masses[group_key(pset, spec, stage, 2)] == 144
        assert masses[group_key(pset, spec, stage, 3)] == 288

    @pytest.mark.parametrize("seed", range(25))
    def test_masses_match_exact_count_weights(self, seed):
        rng = np.random.default_rng(seed)
        pset, spec, stage = random_small_instance(rng)
        groups = group_compatibility(pset, spec, stage)
        impl = normalized_masses(pset, spec, stage)
        oracle = union_group_masses(pset, spec, stage)
        total = sum(oracle.values())
        for h, members in enumerate(group_members(groups)):
            key = group_key(pset, spec, stage, int(members[0]))
            exact = Fraction(oracle[key], total)
            assert abs(impl[h] - float(exact)) <= 1e-9 * float(exact)

    def test_zero_weight_pool_gets_zero_mass(self, five_part_instance):
        pset, spec, stage = five_part_instance
        pset = pset.copy()
        pset.part_weights[3:, 2] = 0.0  # kills part-3 pool of the last group
        logw = group_log_weights(group_compatibility(pset, spec, stage))
        assert logw[2] == -np.inf
        assert np.isfinite(logw[:2]).all()
        _, chosen, _ = combinatorial_draw(pset, spec, stage, np.random.default_rng(0), size=500)
        assert 2 not in set(chosen.tolist())

    def test_all_zero_mass_raises(self, five_part_instance):
        pset, spec, stage = five_part_instance
        pset = pset.copy()
        pset.part_weights[:, 2] = 0.0
        with pytest.raises(DegenerateWeights):
            group_log_weights(group_compatibility(pset, spec, stage))

    @pytest.mark.parametrize("value", [math.nan, -1.0], ids=["nan", "negative"])
    def test_invalid_stage_factor_names_its_part(self, five_part_instance, value):
        pset, spec, stage = five_part_instance
        pset = pset.copy()
        pset.part_weights[1, 4] = value  # part 5 is scored at stage 3
        with pytest.raises(DegenerateWeights, match="^part 5 weights must be finite and nonnegative$"):
            group_compatibility(pset, spec, stage)

    def test_overflowing_pool_sum_raises(self):
        # four finite factors of one pool whose sum overflows to inf
        pset = make_particle_set(DbnSpec.chain(1), ((0, 0, 0, 0),), np.full((4, 1), 1e308))
        groups = group_compatibility(pset, DbnSpec.chain(1), 1)
        assert groups.pools[1][2].tolist() == [math.inf]
        with pytest.raises(DegenerateWeights, match="^part 1 has invalid pool weight sums$"):
            group_log_weights(groups)


class TestEnumeration:
    """The rearrangement ensemble, enumerated by the oracle, and the library
    sampler's support checked against it."""

    def test_three_particle_instance_has_exactly_eight_sets(self, three_particle_instance):
        pset, spec, stage = three_particle_instance
        sets = rearranged_sets(pset, spec, stage)
        assert len(sets) == 8
        assert len({states.tobytes() for states, _, _ in sets}) == 8

    def test_three_particle_sets_are_the_block_swaps(self, three_particle_instance):
        pset, spec, stage = three_particle_instance
        expected = set()
        for swaps in itertools.product([False, True], repeat=3):
            states = pset.states.copy()
            for do_swap, k in zip(swaps, (2, 4, 6)):
                if do_swap:
                    cols = blocks_of(spec, k)
                    states[np.ix_([0, 1], cols)] = states[np.ix_([1, 0], cols)]
            expected.add(states.tobytes())
        got = {states.tobytes() for states, _, _ in rearranged_sets(pset, spec, stage)}
        assert got == expected

    def test_original_set_is_enumerated(self, five_part_instance):
        pset, spec, stage = five_part_instance
        keys = {states.tobytes() for states, _, _ in rearranged_sets(pset, spec, stage)}
        assert pset.states.tobytes() in keys

    def test_weights_travel_with_blocks(self, six_part_tree):
        spec = six_part_tree
        part_values = tuple(
            tuple((1, 1, 21)[i] if k == 1 else (k, k + 10, k + 20)[i] for i in range(3))
            for k in range(1, 7)
        )
        pw = np.ones((3, 6))
        pw[:, 1] = (2, 3, 5)
        pw[:, 3] = (7, 11, 13)
        pw[:, 5] = (17, 19, 23)
        pset = make_particle_set(spec, part_values, part_weights=pw)
        sets = rearranged_sets(pset, spec, 2)
        weight_vectors = {tuple(weights.tolist()) for _, _, weights in sets}
        assert (2 * 7 * 17, 3 * 11 * 19, 5 * 13 * 23) in weight_vectors
        assert (3 * 7 * 17, 2 * 11 * 19, 5 * 13 * 23) in weight_vectors
        for _, part_weights, _ in sets:
            np.testing.assert_array_equal(np.sort(part_weights[:, 1]), [2, 3, 5])

    @pytest.mark.parametrize("seed", range(8))
    def test_enumeration_matches_independent_reference(self, seed):
        """Every (group, donors) draw the library can make, assembled, is a
        row carrying mass in the oracle's pooled ensemble, and every such row
        can be drawn."""
        rng = np.random.default_rng(700 + seed)
        pset, spec, stage = random_small_instance(rng, max_n=5)
        groups = group_compatibility(pset, spec, stage)
        logw = group_log_weights(groups)
        drawable = set()
        for h in np.flatnonzero(np.isfinite(logw)):
            per_part = [
                [d for d in pool_of(groups, k, h) if pset.part_weights[d, k - 1] > 0]
                for k in groups.parts
            ]
            for combo in itertools.product(*per_part):
                donors = {k: np.array([d]) for k, d in zip(groups.parts, combo)}
                row = assemble_combinatorial(pset, spec, stage, groups, np.array([h]), donors)[0]
                drawable.add(row.tobytes())
        ensemble = {key for key, prob in union_particle_law(pset, spec, stage).items() if prob > 0}
        assert drawable == ensemble

    def test_set_count_is_product_of_class_factorials(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            pset, spec, stage = random_small_instance(rng, max_n=5)
            parts = compute_partition(spec).steps[stage - 1]
            expected = 1
            for k in parts:
                parent = spec.parent_of(k)
                classes: dict[bytes, int] = {}
                for i in range(pset.n):
                    key = b"" if parent is None else pset.states[i, parent - 1].tobytes()
                    classes[key] = classes.get(key, 0) + 1
                for size in classes.values():
                    expected *= math.factorial(size)
            assert len(rearranged_sets(pset, spec, stage)) == expected

    def test_blocks_conserved_within_parent_classes(self):
        rng = np.random.default_rng(42)
        pset, spec, stage = random_small_instance(rng)
        parts = compute_partition(spec).steps[stage - 1]
        other_cols = sorted(
            set(range(spec.part_count))
            - {c for k in parts for c in blocks_of(spec, k)}
        )
        for states, _, _ in rearranged_sets(pset, spec, stage):
            np.testing.assert_array_equal(
                states[:, other_cols], pset.states[:, other_cols]
            )
            for k in parts:
                parent = spec.parent_of(k)
                cols = blocks_of(spec, k)
                classes: dict[bytes, list[int]] = {}
                for i in range(pset.n):
                    key = b"" if parent is None else pset.states[i, parent - 1].tobytes()
                    classes.setdefault(key, []).append(i)
                for rows in classes.values():
                    before = sorted(pset.states[np.ix_([r], cols)].tobytes() for r in rows)
                    after = sorted(states[np.ix_([r], cols)].tobytes() for r in rows)
                    assert before == after


class TestDrawAndResample:
    def test_draw_deterministic_per_seed(self, five_part_instance):
        pset, spec, stage = five_part_instance
        _, chosen_a, donors_a = combinatorial_draw(pset, spec, stage, np.random.default_rng(9))
        _, chosen_b, donors_b = combinatorial_draw(pset, spec, stage, np.random.default_rng(9))
        np.testing.assert_array_equal(chosen_a, chosen_b)
        for k in donors_a:
            np.testing.assert_array_equal(donors_a[k], donors_b[k])

    def test_donors_come_from_the_right_pool(self, five_part_instance):
        pset, spec, stage = five_part_instance
        groups, chosen, donors = combinatorial_draw(
            pset, spec, stage, np.random.default_rng(3), size=400
        )
        for j in range(400):
            h = chosen[j]
            for k in groups.parts:
                assert donors[k][j] in pool_of(groups, k, h)

    def test_resample_bookkeeping(self, five_part_instance):
        pset, spec, stage = five_part_instance
        out = combinatorial_resample(pset, spec, stage, np.random.default_rng(1))
        assert out.n == pset.n
        np.testing.assert_array_equal(out.weights, np.full(pset.n, 1.0 / pset.n))
        np.testing.assert_array_equal(out.part_weights, np.ones_like(pset.part_weights))
        assert out.fresh == ()

    def test_assembled_rows_are_joint_consistent(self, five_part_instance):
        """Each output row is a group fragment plus, per current-stage part,
        a donor block whose parent value matches that fragment."""
        pset, spec, stage = five_part_instance
        out = combinatorial_resample(pset, spec, stage, np.random.default_rng(2))
        fragments = {group_key(pset, spec, stage, i) for i in range(pset.n)}
        for row in out.states:
            cols = [k - 1 for k in sorted(compute_partition(spec).processed_through(stage - 1))]
            assert row[cols].tobytes() in fragments
            for k in (3, 5):
                parent = spec.parent_of(k)
                block = row[blocks_of(spec, k)].tobytes()
                candidates = [
                    i
                    for i in range(pset.n)
                    if pset.states[i][blocks_of(spec, k)].tobytes() == block
                ]
                assert any(
                    np.array_equal(pset.states[i, parent - 1], row[parent - 1])
                    for i in candidates
                )

    def test_single_particle_law_matches_pooled_enumeration(self, five_part_instance):
        pset, spec, stage = five_part_instance
        pset = pset.copy()
        pset.part_weights[:, 2] = (1, 2, 1, 3, 1)
        pset.part_weights[:, 4] = (2, 1, 1, 1, 2)
        exact = union_particle_law(pset, spec, stage)
        draws = 100_000
        groups, chosen, donors = combinatorial_draw(
            pset, spec, stage, np.random.default_rng(11), size=draws
        )
        states = assemble_combinatorial(pset, spec, stage, groups, chosen, donors)
        counts: dict[bytes, int] = {}
        for j in range(draws):
            key = states[j].tobytes()
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) <= set(exact)
        tv = 0.5 * sum(
            abs(counts.get(key, 0) / draws - float(prob)) for key, prob in exact.items()
        )
        assert tv < 0.02


def assert_matches_slow_path(pset, spec, stage, seed):
    """The library resample equals the per-group loop of the oracle bit for
    bit, and both leave the generator at the same point.  On a generator's
    stream it also equals the oracle's textbook form (pairwise pool sums, one
    CDF per pool): such a stream puts no uniform within rounding of a step."""
    fast_rng = np.random.default_rng(seed)
    fast = combinatorial_resample(pset, spec, stage, fast_rng).states
    after = fast_rng.random()
    for per_pool in (False, True):
        slow_rng = np.random.default_rng(seed)
        slow = reference_combinatorial_resample(pset, spec, stage, slow_rng, per_pool=per_pool)
        np.testing.assert_array_equal(fast.view(np.int64), slow.view(np.int64))
        assert slow_rng.random() == after


def crowded_set(spec, n, seed, alphabet=2):
    """N particles whose part values come from a small alphabet, signed so
    that 0.0 and -0.0 both occur: many groups, many shared parent values,
    float part weights."""
    rng = np.random.default_rng(seed)
    shape = (n, spec.part_count, 3)
    states = rng.integers(0, alphabet, size=shape) * 0.5 * rng.choice([-1.0, 1.0], size=shape)
    return ParticleSet(states=states, part_weights=rng.random((n, spec.part_count)),
                       weights=np.full(n, 1.0 / n))


CROWDED_SPECS = {
    "star": DbnSpec.star(3, 2),
    "chain": DbnSpec.chain(4),
    "forest": DbnSpec(6, (None, None, 1, 1, 2, 3)),
}


def assert_matches_gammaln_form(pset, spec, stage):
    """The cancelled masses, normalized, equal the uncancelled closed form."""
    logw = gammaln_log_masses(group_compatibility(pset, spec, stage))
    mass = np.exp(logw - logw.max())
    np.testing.assert_allclose(
        normalized_masses(pset, spec, stage), mass / mass.sum(), rtol=1e-10, atol=0
    )


class TestCancelledMass:
    """``group_log_weights`` cancels the factorials of the paper's formula;
    the masses it gives must be the ones the formula gives term by term."""

    def test_random_small_instances(self):
        for case in range(200):
            assert_matches_gammaln_form(*random_small_instance(np.random.default_rng(case)))

    @pytest.mark.parametrize("name", sorted(CROWDED_SPECS))
    @pytest.mark.parametrize("n", [40, 100, 400])
    def test_crowded_sets_at_every_stage(self, name, n):
        spec = CROWDED_SPECS[name]
        pset = crowded_set(spec, n, seed=n)
        for stage in range(1, compute_partition(spec).num_steps + 1):
            assert_matches_gammaln_form(pset, spec, stage)


class TestAgainstSlowPath:
    @pytest.mark.parametrize("case", range(30))
    def test_random_small_instances(self, case):
        pset, spec, stage = random_small_instance(np.random.default_rng(case))
        for seed in range(3):
            assert_matches_slow_path(pset, spec, stage, seed)

    @pytest.mark.parametrize("name", sorted(CROWDED_SPECS))
    @pytest.mark.parametrize("n", [40, 100, 400])
    def test_crowded_sets_at_every_stage(self, name, n):
        spec = CROWDED_SPECS[name]
        pset = crowded_set(spec, n, seed=n)
        for stage in range(1, compute_partition(spec).num_steps + 1):
            groups = group_compatibility(pset, spec, stage)
            assert groups.group_count == 1 if stage == 1 else groups.group_count > 5
            for seed in range(3):
                assert_matches_slow_path(pset, spec, stage, seed)

    @pytest.mark.parametrize("name", sorted(CROWDED_SPECS))
    def test_pools_label_only_the_representatives(self, name, monkeypatch):
        """One row sort over the whole set per stage; each donor pool labels
        only the groups' representatives, and its labels are the whole set's
        first-occurrence labels of the parent value, bit for bit."""
        spec = CROWDED_SPECS[name]
        pset = crowded_set(spec, 100, seed=7)
        rows_seen = []
        original = resampling._row_labels

        def recording(rows):
            rows_seen.append(len(rows))
            return original(rows)

        monkeypatch.setattr(resampling, "_row_labels", recording)
        for stage in range(1, compute_partition(spec).num_steps + 1):
            rows_seen.clear()
            groups = group_compatibility(pset, spec, stage)
            parents = {spec.parent_of(k) for k in groups.parts}
            assert rows_seen == [pset.n] + [groups.group_count] * len(parents)
            for k in groups.parts:
                p = spec.parent_of(k)
                first_seen = {}
                expected = [
                    first_seen.setdefault(b"" if p is None else row[p - 1].tobytes(), len(first_seen))
                    for row in pset.states
                ]
                assert groups.pools[k][0].tolist() == expected

    def test_parts_without_a_parent(self):
        spec = CROWDED_SPECS["forest"]
        pset = crowded_set(spec, 30, seed=4)
        assert compute_partition(spec).steps[0] == (1, 2)
        for seed in range(5):
            assert_matches_slow_path(pset, spec, 1, seed)

    def test_draws_on_cdf_boundaries(self):
        """Uniforms exactly on a pool's CDF steps and at its top: a pool of
        ten weights 0.1 sums its CDF to just under 1, a pool of four weights
        0.25 has steps at 0.25, 0.5 and 0.75; both groups get half the mass."""

        class BoundaryStream:
            def __init__(self):
                self.values = itertools.cycle([0.0, 0.5, 0.75, 0.25, 0.0])

            def random(self, size):
                return np.array([next(self.values) for _ in range(size)])

        spec = DbnSpec.chain(2)
        pset = make_particle_set(spec, ((0,) * 10 + (1,) * 4, tuple(range(14))))
        pset.part_weights[:, 1] = [0.1] * 10 + [0.25] * 4
        assert normalized_masses(pset, spec, 2).tolist() == [0.5, 0.5]
        fast = combinatorial_resample(pset, spec, 2, BoundaryStream()).states
        slow = reference_combinatorial_resample(pset, spec, 2, BoundaryStream())
        np.testing.assert_array_equal(fast.view(np.int64), slow.view(np.int64))

    def test_zero_mass_pool(self):
        spec = CROWDED_SPECS["star"]
        pset = crowded_set(spec, 60, seed=9, alphabet=3)
        part, parent = 2, 1
        dead = np.all(pset.states[:, parent - 1] == pset.states[0, parent - 1], axis=1)
        pset.part_weights[dead, part - 1] = 0.0
        logw = group_log_weights(group_compatibility(pset, spec, 2))
        assert np.isneginf(logw).any() and np.isfinite(logw).any()
        for seed in range(5):
            assert_matches_slow_path(pset, spec, 2, seed)


class Stream:
    """Stands in for a generator: hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = [float(v) for v in values]

    def random(self, size):
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def pooled_chain(pool_weights):
    """A two-part chain at stage 2 whose groups are its part-2 donor pools:
    pool h holds ``len(pool_weights[h])`` consecutive particles with those
    part-2 weights.  Also returns each group's mass and the particles' pool
    labels."""
    spec = DbnSpec.chain(2)
    labels = np.repeat(np.arange(len(pool_weights)), [len(w) for w in pool_weights])
    pset = make_particle_set(spec, (tuple(labels), tuple(range(len(labels)))))
    pset.part_weights[:, 1] = np.concatenate(pool_weights)
    return pset, spec, normalized_masses(pset, spec, 2), labels


def group_uniforms(mass, counts):
    """Group-draw uniforms (as ``1 - u`` generator values) that give group h
    ``counts[h]`` draws, each at the middle of the group's mass interval."""
    mids = np.cumsum(mass) - mass / 2
    return 1.0 - np.repeat(mids, counts)


class TestFlatDonorDraw:
    """The donor draw looks each part up in one prefix sum over the
    pool-sorted weights, each normalized by its own pool's sum."""

    def test_tiny_pool_after_a_heavy_one(self):
        """A pool of mass 4e-20 after one of mass 1: a prefix over raw
        weights would round the tiny pool's steps away and always draw its
        first member."""
        spec = DbnSpec.star(2, 1)
        pw = np.ones((4, 3))
        pw[:, 1] = [0.5, 0.5, 1e-20, 3e-20]
        pw[:, 2] = [1e-20, 3e-20, 0.5, 0.5]
        pset = make_particle_set(spec, ((0, 0, 1, 1), (0, 1, 2, 3), (0, 1, 2, 3)), part_weights=pw)
        np.testing.assert_allclose(normalized_masses(pset, spec, 2), [0.5, 0.5], rtol=1e-12)
        for seed in range(20):
            assert_matches_slow_path(pset, spec, 2, seed)
        _, chosen, donors = combinatorial_draw(pset, spec, 2, np.random.default_rng(5), size=4000)
        for k, h, heavier in ((2, 1, 3), (3, 0, 1)):
            picked = donors[k][chosen == h]
            assert set(picked.tolist()) == {heavier - 1, heavier}
            assert abs(np.mean(picked == heavier) - 0.75) < 0.05

    @pytest.mark.parametrize("u", [1.0, 2.0**-53])
    def test_extreme_uniforms_skip_zero_weight_pool_ends(self, u):
        """Pools whose first and last members weigh 0: a draw of u = 1 must
        stop at the pool's last positive member, though the second pool's
        running sum tops out below 1 + 1; one of u = 2^-53, which vanishes
        next to the first pool's exact sum 1, must start past the pool's
        first member.  A trailing all-zero pool has no mass."""
        pool_weights = [
            [0.0, 0.25, 0.75, 0.0],
            [0.0, 0.0, 0.1, 0.3, 0.7, 0.0],
            [0.0, 1e-3, 0.5, 0.25, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
        pset, spec, mass, labels = pooled_chain(pool_weights)
        assert mass[-1] == 0.0
        counts = [5, 7, 7, 0]
        stream = list(group_uniforms(mass, counts)) + [1.0 - u] * pset.n
        groups, chosen, donors = combinatorial_draw(pset, spec, 2, Stream(stream))
        np.testing.assert_array_equal(np.bincount(chosen, minlength=4), counts)
        assert np.all(labels[donors[2]] == chosen)
        assert np.all(pset.part_weights[donors[2], 1] > 0)
        slow = reference_combinatorial_resample(pset, spec, 2, Stream(stream))
        fast = assemble_combinatorial(pset, spec, 2, groups, chosen, donors)
        np.testing.assert_array_equal(fast.view(np.int64), slow.view(np.int64))

    @pytest.mark.parametrize("steps", ["pool-pairwise", "pool-sequential", "prefix"])
    @pytest.mark.parametrize("seed", range(4))
    def test_pools_of_eight_or_more_on_cdf_steps(self, seed, steps):
        """Pools of 9 to 16 members, where ``np.bincount`` sums (one by one)
        and pairwise ``.sum()`` can differ, drawn with a uniform exactly on
        every step of each pool's CDF.  The steps are those of the pool's own
        CDF with pairwise or sequential sums, or of the library's running sum
        less the sum before the pool.  The draws equal the slow path's bit
        for bit, and each lies within 1e-12 of the interval of the textbook
        per-pool CDF that holds its uniform."""
        rng = np.random.default_rng(seed)
        pool_weights = [rng.random(size) for size in (10, 12, 9, 16)]
        pset, spec, mass, labels = pooled_chain(pool_weights)
        sequential = np.bincount(labels, weights=pset.part_weights[:, 1])
        if seed == 0:
            assert any(w.sum() != s for w, s in zip(pool_weights, sequential))
        prefix = np.cumsum(pset.part_weights[:, 1] / sequential[labels])
        ends = np.cumsum([len(w) for w in pool_weights])
        uniforms = []
        for h, w in enumerate(pool_weights):
            if steps == "prefix":
                cdf = prefix[ends[h] - len(w):ends[h]] - (prefix[ends[h] - len(w) - 1] if h else 0.0)
            else:
                cdf = np.cumsum(w / (w.sum() if steps == "pool-pairwise" else sequential[h]))
            uniforms.extend(np.minimum(cdf, 1.0))
        uniforms = np.array(uniforms)
        stream = list(group_uniforms(mass, [len(w) for w in pool_weights])) + list(1.0 - uniforms)

        groups, chosen, donors = combinatorial_draw(pset, spec, 2, Stream(stream))
        np.testing.assert_array_equal(chosen, labels)
        slow = reference_combinatorial_resample(pset, spec, 2, Stream(stream))
        fast = assemble_combinatorial(pset, spec, 2, groups, chosen, donors)
        np.testing.assert_array_equal(fast.view(np.int64), slow.view(np.int64))

        u = 1.0 - (1.0 - uniforms)  # what the library saw
        for h, w in enumerate(pool_weights):
            cdf = np.concatenate(([0.0], np.cumsum(w / w.sum())))
            rank = donors[2][chosen == h] - (ends[h] - len(w))
            here = u[chosen == h]
            assert np.all(cdf[rank] - 1e-12 < here) and np.all(here <= cdf[rank + 1] + 1e-12)
