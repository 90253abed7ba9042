import math

import numpy as np
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
)
from crtrack.harness import ConfigError, SequenceSpec
from crtrack.tracker import TrackerConfig


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
    def test_chain(self):
        spec = DbnSpec.chain(4)
        assert spec.parents == (None, 1, 2, 3)

    def test_star_ids_arm_by_arm(self):
        spec = DbnSpec.star(2, 3)
        assert spec.part_count == 7
        assert spec.parents == (None, 1, 2, 3, 1, 5, 6)

    def test_star_single_joint_arms(self):
        spec = DbnSpec.star(4, 1)
        assert spec.parents == (None, 1, 1, 1, 1)

    @pytest.mark.parametrize(
        "arms, length, message",
        [
            (2, 0, "arm_length must be >= 1, got 0"),
            (3, -1, "arm_length must be >= 1, got -1"),
            (-1, 3, "arm_count must be >= 0, got -1"),
            (True, 2, "arm_count must be an integer, not True"),
            (2.5, 1, "arm_count must be an integer, not 2.5"),
        ],
        ids=["zero-length", "negative-length", "negative-count", "bool-count", "float-count"],
    )
    def test_star_checks_its_own_arguments(self, arms, length, message):
        with pytest.raises(StructureError) as info:
            DbnSpec.star(arms, length)
        assert str(info.value) == message

    def test_star_without_arms_is_one_part(self):
        assert DbnSpec.star(0, 0) == DbnSpec(1, (None,))

    def test_empty_model(self):
        with pytest.raises(EmptyModel):
            DbnSpec(0, ())

    def test_parent_out_of_range(self):
        with pytest.raises(BadIndex):
            DbnSpec(2, (None, 7))

    def test_wrong_parent_arity(self):
        with pytest.raises(BadIndex):
            DbnSpec(3, (None, 1))

    def test_self_loop(self):
        with pytest.raises(CycleDetected):
            DbnSpec(2, (None, 2))

    def test_two_cycle(self):
        with pytest.raises(CycleDetected):
            DbnSpec(3, (None, 3, 2))

    def test_errors_are_value_errors(self):
        assert issubclass(StructureError, ValueError)
        with pytest.raises(StructureError):
            DbnSpec(2, (None, 0))

    @pytest.mark.parametrize(
        "part_count, parents, error, message",
        [
            (0, (), EmptyModel, "part_count must be >= 1, got 0"),
            (3, (None, 1), BadIndex, "expected 3 parent entries, got 2"),
            (3, (None, 1, 4), BadIndex, "parent of part 3 out of range: 4"),
            (3, (None, 3, 3), CycleDetected, "parent links cycle through part 3"),
            (4, (None, 3, 4, 2), CycleDetected, "parent links cycle through part 2"),
        ],
    )
    def test_a_spec_that_is_not_a_forest_is_never_built(self, part_count, parents, error, message):
        with pytest.raises(error, match=f"^{message}$") as info:
            DbnSpec(part_count, parents)
        assert type(info.value) is error

    @given(tree_specs())
    def test_lower_id_parents_always_validate(self, spec):
        """``tree_specs`` builds the spec, and building checks it."""

    def test_bool_part_count(self):
        compute_partition(DbnSpec.chain(1))
        with pytest.raises(BadIndex, match="part_count must be an integer, not True"):
            compute_partition(DbnSpec(True, (None,)))

    @pytest.mark.parametrize("parent", [True, 1.0])
    def test_non_integer_parent(self, parent):
        # an equal, valid spec already in the partition cache must not let it through
        compute_partition(DbnSpec.chain(2))
        with pytest.raises(BadIndex, match=f"parent of part 2 must be an integer, not {parent!r}"):
            compute_partition(DbnSpec(2, (None, parent)))

    def test_numpy_integer_parent(self):
        spec = DbnSpec(2, (None, np.int64(1)))
        assert compute_partition(spec) == compute_partition(DbnSpec(2, (None, 1)))


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
        spec = DbnSpec(4, (None, None, 1, 2))
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


# Each declared record: a build from keyword fields, the error class it
# raises, and a valid value for each of its int, float and str fields.
RECORDS = {
    "TrackerConfig": (
        lambda **kw: TrackerConfig(**{"particle_count": 5, **kw}),
        ValueError,
        {
            "particle_count": 5,
            "resampler": "systematic",
            "sigma_xy": 1.0,
            "sigma_theta": 0.025,
            "lam": 50.0,
            "weighted_exponent": 20.0,
            "seed": 0,
        },
    ),
    "SequenceSpec": (
        SequenceSpec,
        ConfigError,
        {
            "arm_count": 4,
            "arm_length": 3,
            "frame_count": 300,
            "width": 800,
            "height": 640,
            "sigma_xy": 1.0,
            "sigma_theta": 0.025,
            "seed": 0,
            "part_length": 30.0,
            "part_width": 12.0,
            "name": "object",
        },
    ),
    "DbnSpec": (lambda part_count: DbnSpec(part_count, (None,)), BadIndex, {"part_count": 1}),
}
FIELDS = [
    pytest.param(build, error, name, valid, id=f"{record}.{name}")
    for record, (build, error, fields) in RECORDS.items()
    for name, valid in fields.items()
]


class TestFieldRule:
    @pytest.mark.parametrize("build, error, name, valid", FIELDS)
    @pytest.mark.parametrize("bad", [True, "1", None, math.nan, math.inf, -math.inf])
    def test_rejects(self, build, error, name, valid, bad):
        if isinstance(valid, str) and isinstance(bad, str):
            bad = 1  # "1" is a valid string
        with pytest.raises(error, match=f"^{name} must be") as info:
            build(**{name: bad})
        assert type(info.value) is error

    @pytest.mark.parametrize("build, error, name, valid", FIELDS)
    def test_accepts_numpy_values_as_python_ones(self, build, error, name, valid):
        kind = type(valid)
        for make in {int: [np.int64], float: [np.float32, int], str: [np.str_]}[kind]:
            value = make(valid)
            stored = getattr(build(**{name: value}), name)
            assert type(stored) is kind
            assert stored == kind(value)
