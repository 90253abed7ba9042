"""Model structure for articulated objects tracked part by part.

An object is a set of parts linked by a within-slice forest: every part has at
most one parent inside the current time slice, and each part also depends on
its own state at the previous time step.  Part ids are 1-based and dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional


class StructureError(ValueError):
    """Base class for malformed part-link structures."""


class EmptyModel(StructureError):
    pass


class BadIndex(StructureError):
    pass


class CycleDetected(StructureError):
    pass


@dataclass(frozen=True)
class DbnSpec:
    """Within-slice link structure of an articulated object.

    ``parents[k - 1]`` is the parent part id of part ``k``, or None for a
    root.  Temporal links (part k at t-1 to part k at t) are implicit and the
    observation of each part depends on that part alone, so this tuple is the
    whole structure.
    """

    part_count: int
    parents: tuple[Optional[int], ...]

    @classmethod
    def from_parent_map(
        cls, part_count: int, within_slice_parent: Mapping[int, Optional[int]]
    ) -> "DbnSpec":
        """Build a spec from a {child: parent} mapping; missing ids are roots."""
        parents = tuple(within_slice_parent.get(k) for k in range(1, part_count + 1))
        return cls(part_count, parents)

    @classmethod
    def chain(cls, part_count: int) -> "DbnSpec":
        """Serial linkage 1 <- 2 <- ... <- P."""
        return cls(part_count, (None,) + tuple(range(1, part_count)))

    @classmethod
    def star(cls, arm_count: int, arm_length: int) -> "DbnSpec":
        """One central part (id 1) with ``arm_count`` serial arms of
        ``arm_length`` parts each, ids assigned arm by arm."""
        parents: list[Optional[int]] = [None]
        for a in range(arm_count):
            first = 2 + a * arm_length
            parents.append(1)
            parents.extend(range(first, first + arm_length - 1))
        return cls(1 + arm_count * arm_length, tuple(parents))

    @property
    def part_ids(self) -> range:
        return range(1, self.part_count + 1)

    def parent_of(self, k: int) -> Optional[int]:
        return self.parents[k - 1]

    def children_of(self, k: int) -> tuple[int, ...]:
        return tuple(c for c in self.part_ids if self.parents[c - 1] == k)


def validate_structure(spec: DbnSpec) -> None:
    """Check that the within-slice links form a forest over 1..P.

    Raises EmptyModel for P < 1, BadIndex for ids outside 1..P or a parents
    tuple of the wrong length, CycleDetected when following parent links
    revisits a part (a self-loop counts).
    """
    p = spec.part_count
    if p < 1:
        raise EmptyModel(f"part_count must be >= 1, got {p}")
    if len(spec.parents) != p:
        raise BadIndex(f"expected {p} parent entries, got {len(spec.parents)}")
    for k in spec.part_ids:
        parent = spec.parents[k - 1]
        if parent is None:
            continue
        if not isinstance(parent, int) or isinstance(parent, bool):
            raise BadIndex(f"parent of part {k} is not an int: {parent!r}")
        if not 1 <= parent <= p:
            raise BadIndex(f"parent of part {k} out of range: {parent}")
    for k in spec.part_ids:
        seen = set()
        node: Optional[int] = k
        while node is not None:
            if node in seen:
                raise CycleDetected(f"parent links cycle through part {node}")
            seen.add(node)
            node = spec.parents[node - 1]


@dataclass(frozen=True)
class Partition:
    """Ordered processing steps: step j holds the part ids whose parents were
    all placed in earlier steps.  Ids inside a step are ascending."""

    steps: tuple[tuple[int, ...], ...]

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def part_count(self) -> int:
        return sum(len(s) for s in self.steps)

    def processed_through(self, j: int) -> frozenset[int]:
        """Parts placed in steps 1..j (empty for j = 0)."""
        return frozenset(k for s in self.steps[:j] for k in s)


@lru_cache(maxsize=None)
def compute_partition(spec: DbnSpec) -> Partition:
    """Group parts into the minimal sequence of steps such that every part's
    within-slice parent lies in an earlier step.  Step 1 holds the roots.

    Conditioned on the parts already placed, the parts inside one step carry
    no information about each other, which is what lets them be handled
    together downstream.
    """
    validate_structure(spec)
    placed: set[int] = set()
    steps: list[tuple[int, ...]] = []
    remaining = set(spec.part_ids)
    while remaining:
        step = tuple(
            sorted(
                k
                for k in remaining
                if spec.parents[k - 1] is None or spec.parents[k - 1] in placed
            )
        )
        if not step:
            # unreachable once validate_structure passed
            raise CycleDetected("no placeable part left")
        steps.append(step)
        placed.update(step)
        remaining.difference_update(step)
    return Partition(tuple(steps))


def descendants_within_slice(spec: DbnSpec, k: int) -> frozenset[int]:
    """All parts strictly below part k in the within-slice forest."""
    validate_structure(spec)
    if not 1 <= k <= spec.part_count:
        raise BadIndex(f"part id out of range: {k}")
    children: dict[int, list[int]] = {i: [] for i in spec.part_ids}
    for c in spec.part_ids:
        parent = spec.parents[c - 1]
        if parent is not None:
            children[parent].append(c)
    out: set[int] = set()
    stack = list(children[k])
    while stack:
        node = stack.pop()
        out.add(node)
        stack.extend(children[node])
    return frozenset(out)
