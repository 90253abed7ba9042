import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from crtrack.dbn import DbnSpec, compute_partition
from crtrack.resampling import (
    DegenerateWeights,
    InstanceTooLarge,
    assemble_combinatorial,
    combinatorial_draw,
    combinatorial_resample,
    enumerate_combinatorial_set,
    group_compatibility,
    group_log_weights,
)

from conftest import make_particle_set
from oracles import (
    blocks_of,
    random_small_instance,
    reference_rearrangements,
    union_group_masses,
    union_particle_law,
)


def group_key(pset, spec, stage, i):
    cols = [k - 1 for k in sorted(compute_partition(spec).processed_through(stage - 1))]
    return pset.states[i][cols].tobytes()


def normalized_masses(pset, spec, stage):
    logw = group_log_weights(group_compatibility(pset, spec, stage))
    mass = np.exp(logw - logw.max())
    return mass / mass.sum()


class TestGrouping:
    def test_five_part_group_members(self, five_part_instance):
        pset, spec, stage = five_part_instance
        groups = group_compatibility(pset, spec, stage)
        assert [m.tolist() for m in groups.members] == [[0, 1], [2], [3, 4]]
        assert groups.parts == (3, 5)
        assert groups.sizes.sum() == pset.n

    def test_five_part_donor_pools(self, five_part_instance):
        pset, spec, stage = five_part_instance
        groups = group_compatibility(pset, spec, stage)
        assert [p.tolist() for p in groups.part_members[3]] == [[0, 1, 2], [0, 1, 2], [3, 4]]
        assert [p.tolist() for p in groups.part_members[5]] == [[0, 1], [2, 3, 4], [2, 3, 4]]
        assert groups.part_pool_max == {3: 3, 5: 3}
        np.testing.assert_allclose(groups.part_weight_sums[3], [3.0, 3.0, 2.0])
        np.testing.assert_allclose(groups.part_weight_sums[5], [2.0, 3.0, 3.0])

    def test_groups_are_subsets_of_their_pools(self, five_part_instance):
        pset, spec, stage = five_part_instance
        groups = group_compatibility(pset, spec, stage)
        for k in groups.parts:
            for h in range(groups.group_count):
                assert set(groups.members[h]) <= set(groups.part_members[k][h])

    def test_stage_one_is_a_single_group(self, five_part_instance):
        pset, spec, _ = five_part_instance
        groups = group_compatibility(pset, spec, 1)
        assert groups.group_count == 1
        assert groups.members[0].tolist() == [0, 1, 2, 3, 4]
        assert groups.part_members[1][0].tolist() == [0, 1, 2, 3, 4]

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
        for h in range(groups.group_count):
            key = group_key(pset, spec, stage, int(groups.members[h][0]))
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


class TestEnumeration:
    def test_three_particle_instance_has_exactly_eight_sets(self, three_particle_instance):
        pset, spec, stage = three_particle_instance
        sets = enumerate_combinatorial_set(pset, spec, stage)
        assert len(sets) == 8
        assert len({s.states.tobytes() for s in sets}) == 8

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
        got = {s.states.tobytes() for s in enumerate_combinatorial_set(pset, spec, stage)}
        assert got == expected

    def test_original_set_is_enumerated(self, five_part_instance):
        pset, spec, stage = five_part_instance
        keys = {s.states.tobytes() for s in enumerate_combinatorial_set(pset, spec, stage)}
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
        sets = enumerate_combinatorial_set(pset, spec, 2)
        weight_vectors = {tuple(s.weights.tolist()) for s in sets}
        assert (2 * 7 * 17, 3 * 11 * 19, 5 * 13 * 23) in weight_vectors
        assert (3 * 7 * 17, 2 * 11 * 19, 5 * 13 * 23) in weight_vectors
        for s in sets:
            np.testing.assert_array_equal(
                np.sort(s.part_weights[:, 1]), [2, 3, 5]
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_enumeration_matches_independent_reference(self, seed):
        rng = np.random.default_rng(700 + seed)
        pset, spec, stage = random_small_instance(rng, max_n=5)
        lib = sorted(
            (s.states.tobytes(), s.part_weights.tobytes())
            for s in enumerate_combinatorial_set(pset, spec, stage)
        )
        ref = sorted(
            (states.tobytes(), pw.tobytes())
            for states, pw in reference_rearrangements(pset, spec, stage)
        )
        assert lib == ref

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
            assert len(enumerate_combinatorial_set(pset, spec, stage)) == expected

    def test_blocks_conserved_within_parent_classes(self):
        rng = np.random.default_rng(42)
        pset, spec, stage = random_small_instance(rng)
        parts = compute_partition(spec).steps[stage - 1]
        other_cols = sorted(
            set(range(spec.part_count))
            - {c for k in parts for c in blocks_of(spec, k)}
        )
        for s in enumerate_combinatorial_set(pset, spec, stage):
            np.testing.assert_array_equal(
                s.states[:, other_cols], pset.states[:, other_cols]
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
                    after = sorted(s.states[np.ix_([r], cols)].tobytes() for r in rows)
                    assert before == after

    def test_too_many_particles(self):
        spec = DbnSpec.chain(2)
        values = (tuple(range(9)), tuple(range(9)))
        pset = make_particle_set(spec, values)
        with pytest.raises(InstanceTooLarge):
            enumerate_combinatorial_set(pset, spec, 2)

    def test_too_many_stage_parts(self):
        spec = DbnSpec.star(4, 1)
        values = tuple((0, 1) for _ in range(5))
        pset = make_particle_set(spec, values)
        with pytest.raises(InstanceTooLarge):
            enumerate_combinatorial_set(pset, spec, 2)

    def test_max_sets_guard(self):
        spec = DbnSpec.chain(2)
        values = ((0, 0, 0, 0, 0, 0), (1, 2, 3, 4, 5, 6))
        pset = make_particle_set(spec, values)
        with pytest.raises(InstanceTooLarge):
            enumerate_combinatorial_set(pset, spec, 2, max_sets=100)


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
                assert donors[k][j] in groups.part_members[k][h]

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
