import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtrack.dbn import (
    BadIndex,
    CycleDetected,
    DbnSpec,
    EmptyModel,
    StructureError,
    compute_partition,
    descendants_within_slice,
    validate_structure,
)


@st.composite
def tree_specs(draw, max_parts=9):
    """Random within-slice forests; parents always point to lower ids, so the
    result is acyclic by construction."""
    p = draw(st.integers(1, max_parts))
    parents = [None]
    for k in range(2, p + 1):
        parents.append(draw(st.one_of(st.none(), st.integers(1, k - 1))))
    return DbnSpec(p, tuple(parents))


class TestStructure:
    def test_from_parent_map_missing_ids_are_roots(self):
        spec = DbnSpec.from_parent_map(4, {2: 1, 4: 2})
        assert spec.parents == (None, 1, None, 2)
        assert spec.parent_of(3) is None
        assert spec.children_of(2) == (4,)

    def test_chain(self):
        spec = DbnSpec.chain(4)
        assert spec.parents == (None, 1, 2, 3)
        validate_structure(spec)

    def test_star_ids_arm_by_arm(self):
        spec = DbnSpec.star(2, 3)
        assert spec.part_count == 7
        assert spec.parents == (None, 1, 2, 3, 1, 5, 6)

    def test_star_single_joint_arms(self):
        spec = DbnSpec.star(4, 1)
        assert spec.parents == (None, 1, 1, 1, 1)

    def test_empty_model(self):
        with pytest.raises(EmptyModel):
            validate_structure(DbnSpec(0, ()))

    def test_parent_out_of_range(self):
        with pytest.raises(BadIndex):
            validate_structure(DbnSpec(2, (None, 7)))

    def test_wrong_parent_arity(self):
        with pytest.raises(BadIndex):
            validate_structure(DbnSpec(3, (None, 1)))

    def test_self_loop(self):
        with pytest.raises(CycleDetected):
            validate_structure(DbnSpec(2, (None, 2)))

    def test_two_cycle(self):
        with pytest.raises(CycleDetected):
            validate_structure(DbnSpec(3, (None, 3, 2)))

    def test_errors_are_value_errors(self):
        assert issubclass(StructureError, ValueError)
        with pytest.raises(StructureError):
            validate_structure(DbnSpec(2, (None, 0)))

    @given(tree_specs())
    def test_lower_id_parents_always_validate(self, spec):
        validate_structure(spec)


class TestPartition:
    def test_chain_gives_singletons(self):
        partition = compute_partition(DbnSpec.chain(5))
        assert partition.steps == ((1,), (2,), (3,), (4,), (5,))

    def test_star_of_leaves_gives_two_steps(self):
        partition = compute_partition(DbnSpec.star(4, 1))
        assert partition.steps == ((1,), (2, 3, 4, 5))

    def test_six_part_tree_levels(self, six_part_tree):
        partition = compute_partition(six_part_tree)
        assert partition.steps == ((1,), (2, 4, 6), (3, 5))

    def test_forest_roots_share_first_step(self):
        spec = DbnSpec.from_parent_map(4, {3: 1, 4: 2})
        assert compute_partition(spec).steps == ((1, 2), (3, 4))

    def test_processed_and_pending_partition_the_ids(self, six_part_tree):
        partition = compute_partition(six_part_tree)
        for j in range(partition.num_steps + 1):
            done = partition.processed_through(j)
            todo = frozenset(k for s in partition.steps[j:] for k in s)
            assert done | todo == set(six_part_tree.part_ids)
            assert not done & todo
        assert partition.processed_through(0) == frozenset()
        assert partition.processed_through(partition.num_steps) == set(six_part_tree.part_ids)

    def test_cached_instance_reused(self):
        a = compute_partition(DbnSpec.chain(3))
        b = compute_partition(DbnSpec.chain(3))
        assert a is b

    @given(tree_specs())
    @settings(max_examples=200)
    def test_parents_always_in_earlier_steps(self, spec):
        partition = compute_partition(spec)
        assert sorted(k for s in partition.steps for k in s) == list(spec.part_ids)
        for j, step in enumerate(partition.steps, start=1):
            earlier = partition.processed_through(j - 1)
            for k in step:
                parent = spec.parent_of(k)
                assert parent is None or parent in earlier
        for step in partition.steps:
            assert list(step) == sorted(step)

    @given(tree_specs())
    def test_step_index_equals_ancestor_depth(self, spec):
        partition = compute_partition(spec)
        step_of = {k: j for j, s in enumerate(partition.steps, start=1) for k in s}
        for k in spec.part_ids:
            depth, node = 1, spec.parent_of(k)
            while node is not None:
                depth += 1
                node = spec.parent_of(node)
            assert step_of[k] == depth


class TestDescendants:
    def test_chain_tail(self):
        spec = DbnSpec.chain(4)
        assert descendants_within_slice(spec, 2) == frozenset({3, 4})
        assert descendants_within_slice(spec, 4) == frozenset()

    def test_six_part_tree(self, six_part_tree):
        assert descendants_within_slice(six_part_tree, 1) == frozenset({2, 3, 4, 5, 6})
        assert descendants_within_slice(six_part_tree, 2) == frozenset({3})
        assert descendants_within_slice(six_part_tree, 6) == frozenset()

    def test_bad_id(self):
        with pytest.raises(BadIndex):
            descendants_within_slice(DbnSpec.chain(2), 3)

    @given(tree_specs())
    @settings(max_examples=200)
    def test_pending_parts_split_into_step_descendants(self, spec):
        """The parts still pending after step j are exactly the disjoint
        union of the within-slice descendants of the step-j parts."""
        partition = compute_partition(spec)
        for j, step in enumerate(partition.steps, start=1):
            blocks = [descendants_within_slice(spec, k) for k in step]
            union = frozenset().union(*blocks)
            assert sum(len(b) for b in blocks) == len(union)
            assert union == set(spec.part_ids) - partition.processed_through(j)
