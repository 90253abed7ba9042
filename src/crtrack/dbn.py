"""Model structure for articulated objects tracked part by part.

An object is a set of parts linked by a within-slice forest: every part has at
most one parent inside the current time slice, and each part also depends on
its own state at the previous time step.  Part ids are 1-based and dense.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional, get_type_hints


# The field rule: what each declared kind accepts, and its name in messages.
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"), str: (str, "a string")}


def checked(value, kind: type, name: str, error: type[Exception] = ValueError):
    """``value`` as a Python ``kind`` (int, float or str), or ``error``
    naming ``name``.  A bool is a number to Python, but never a count or a
    setting here; a float must be finite."""
    abc, noun = _KINDS[kind]
    # the exact type passes without the slow abstract-class check
    if type(value) is not kind and (isinstance(value, bool) or not isinstance(value, abc)):
        raise error(f"{name} must be {noun}, not {value!r}")
    if kind is float and not math.isfinite(value):
        raise error(f"{name} must be finite")
    return kind(value)


@lru_cache(maxsize=None)
def _checked_fields(cls) -> tuple[tuple[str, type], ...]:
    # get_type_hints costs about ten times the checks, so resolve once a class
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls) if hints[f.name] in _KINDS)


def check_fields(record, error: type[Exception] = ValueError) -> None:
    """Apply ``checked`` to every int, float and str field of a frozen
    dataclass instance, storing what it returns."""
    for name, kind in _checked_fields(type(record)):
        object.__setattr__(record, name, checked(getattr(record, name), kind, name, error))


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
    whole structure.  The count and parent ids are ``checked`` as the spec is
    built (BadIndex): the partition cache matches specs by equality, and
    ``True == 1.0 == 1``.  The links are then checked to form a forest over
    1..P, so every spec is one: EmptyModel for P < 1, BadIndex for a parents
    tuple of the wrong length or an id outside 1..P, CycleDetected when
    following parent links revisits a part (a self-loop counts).
    """

    part_count: int
    parents: tuple[Optional[int], ...]

    def __post_init__(self):
        check_fields(self, BadIndex)
        parents = tuple(
            None if parent is None else checked(parent, int, f"parent of part {k}", BadIndex)
            for k, parent in enumerate(self.parents, start=1)
        )
        object.__setattr__(self, "parents", parents)
        p = self.part_count
        if p < 1:
            raise EmptyModel(f"part_count must be >= 1, got {p}")
        if len(parents) != p:
            raise BadIndex(f"expected {p} parent entries, got {len(parents)}")
        for k, parent in enumerate(parents, start=1):
            if parent is not None and not 1 <= parent <= p:
                raise BadIndex(f"parent of part {k} out of range: {parent}")
        for k in self.part_ids:
            seen = set()
            node: Optional[int] = k
            while node is not None:
                if node in seen:
                    raise CycleDetected(f"parent links cycle through part {node}")
                seen.add(node)
                node = parents[node - 1]

    @classmethod
    def chain(cls, part_count: int) -> "DbnSpec":
        """Serial linkage 1 <- 2 <- ... <- P."""
        return cls(part_count, (None,) + tuple(range(1, part_count)))

    @classmethod
    def star(cls, arm_count: int, arm_length: int) -> "DbnSpec":
        """One central part (id 1) with ``arm_count`` serial arms of
        ``arm_length`` parts each, ids assigned arm by arm; StructureError
        if either is not an integer, ``arm_count`` < 0 or an arm is empty."""
        arm_count = checked(arm_count, int, "arm_count", StructureError)
        arm_length = checked(arm_length, int, "arm_length", StructureError)
        if arm_count < 0:
            raise StructureError(f"arm_count must be >= 0, got {arm_count}")
        if arm_count and arm_length < 1:
            raise StructureError(f"arm_length must be >= 1, got {arm_length}")
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


@dataclass(frozen=True)
class Partition:
    """Ordered processing steps: step j holds the part ids whose parents were
    all placed in earlier steps.  Ids inside a step are ascending."""

    steps: tuple[tuple[int, ...], ...]

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def processed_through(self, j: int) -> frozenset[int]:
        """Parts placed in steps 1..j (empty for j = 0)."""
        return frozenset(k for s in self.steps[:j] for k in s)


def _ancestors(spec: DbnSpec, k: int):
    """Parts strictly above part k in the within-slice forest, nearest
    first; every ``DbnSpec`` is a forest, so the walk ends at a root."""
    node = spec.parents[k - 1]
    while node is not None:
        yield node
        node = spec.parents[node - 1]


@lru_cache(maxsize=None)
def compute_partition(spec: DbnSpec) -> Partition:
    """Group parts into the minimal sequence of steps such that every part's
    within-slice parent lies in an earlier step.  Step 1 holds the roots.

    Conditioned on the parts already placed, the parts inside one step carry
    no information about each other, which is what lets them be handled
    together downstream.
    """
    depths = [len(tuple(_ancestors(spec, k))) for k in spec.part_ids]
    steps = [[k for k in spec.part_ids if depths[k - 1] == d] for d in range(max(depths) + 1)]
    return Partition(tuple(map(tuple, steps)))


def descendants_within_slice(spec: DbnSpec, k: int) -> frozenset[int]:
    """All parts strictly below part k in the within-slice forest."""
    if not 1 <= k <= spec.part_count:
        raise BadIndex(f"part id out of range: {k}")
    return frozenset(c for c in spec.part_ids if k in _ancestors(spec, c))
