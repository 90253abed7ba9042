import numpy as np
import pytest

from crtrack.dbn import DbnSpec
from crtrack.resampling import ParticleSet

from oracles import part_value_row


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(RESULTS):
        title, status = RESULTS[num]
        terminalreporter.write_line(f"criterion {num} ({title}): {status}")


def make_particle_set(spec: DbnSpec, part_values, part_weights=None):
    """Particle set from abstract per-part integer values; equal values give
    bit-identical state rows."""
    n = len(part_values[0])
    p = spec.part_count
    states = np.zeros((n, p, 3))
    for k in range(1, p + 1):
        for i in range(n):
            states[i, k - 1] = part_value_row(k, part_values[k - 1][i])
    weights = np.full(n, 1.0 / n)
    pw = np.ones((n, p)) if part_weights is None else np.asarray(part_weights, dtype=float)
    return ParticleSet(states=states, part_weights=pw, weights=weights)


@pytest.fixture
def six_part_tree():
    """Root with three children, two of which chain one further part:
    levels {1}, {2,4,6}, {3,5}."""
    return DbnSpec(6, (None, 1, 2, 1, 4, 1))


@pytest.fixture
def five_part_instance():
    """Five particles over a five-part tree at its last level; processed
    fragments collide into three groups of sizes 2, 1, 2."""
    spec = DbnSpec(5, (None, 1, 2, 1, 4))
    part_values = (
        (0, 0, 0, 0, 0),
        (1, 1, 1, 2, 2),
        (5, 6, 7, 10, 11),
        (3, 3, 4, 4, 4),
        (8, 9, 12, 13, 14),
    )
    pset = make_particle_set(spec, part_values)
    return pset, spec, 3


@pytest.fixture
def three_particle_instance(six_part_tree):
    """Three particles at the middle level; particles 0 and 1 share the root
    value, particle 2 differs, so each of the three level-two blocks can be
    traded between 0 and 1 only: exactly 2^3 rearrangements."""
    spec = six_part_tree
    part_values = tuple(
        tuple((1, 1, 21)[i] if k == 1 else (k, k + 10, k + 20)[i] for i in range(3))
        for k in range(1, 7)
    )
    pset = make_particle_set(spec, part_values)
    return pset, spec, 2
