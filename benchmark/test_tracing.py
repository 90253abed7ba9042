"""Fast tests of the benchmark's tracer.

    python3 -m pytest benchmark/test_tracing.py -q
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, self_times, total_times  # noqa: E402


def _module():
    mod = types.ModuleType("fake_layer")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    def boom():
        raise RuntimeError("boom")

    mod.leaf, mod.outer, mod.boom = leaf, outer, boom
    return mod


def test_wrappers_are_restored():
    mod = _module()
    originals = (mod.leaf, mod.outer)
    with Tracer() as tracer:
        tracer.wrap(mod, "outer", "outer")
        tracer.wrap(mod, "leaf", "leaf")
        assert mod.outer is not originals[1]
        assert mod.outer(1) == 4
    assert (mod.leaf, mod.outer) == originals
    assert [s[0] for s in tracer.spans] == ["outer", "leaf"]
    assert tracer.spans[1][3] == 0  # leaf's parent is the outer span


def test_wrappers_are_restored_when_traced_code_raises():
    mod = _module()
    original = mod.boom
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            tracer.wrap(mod, "boom", "boom")
            mod.boom()
    assert mod.boom is original
    assert len(tracer.durations("boom")) == 1  # the raising call still has a span


def test_missing_name_is_reported_absent():
    mod = _module()
    with Tracer() as tracer:
        assert not tracer.wrap(mod, "region_histogram", "likelihood.histogram")
        assert not tracer.count(mod, "gone", "gone_calls")
        assert tracer.wrap(mod, "leaf", "leaf")
    assert tracer.absent == ["fake_layer.region_histogram", "fake_layer.gone"]
    assert not hasattr(mod, "region_histogram")


def test_count_wrapper_counts_without_spans():
    mod = _module()
    with Tracer() as tracer:
        tracer.count(mod, "leaf", "leaf_calls")
        mod.outer(1)
        mod.outer(2)
    assert tracer.counts["leaf_calls"] == 2
    assert tracer.spans == []


def test_observer_sees_arguments_and_result():
    mod = _module()
    seen = []
    with Tracer() as tracer:
        tracer.wrap(mod, "leaf", "leaf", observe=lambda a, k, r: seen.append((a, r)))
        mod.leaf(5)
    assert seen == [((5,), 6)]


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("frame", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 6.0, 0),
        ("c", 8.0, 12.0, 0),  # runs past its parent: only 8..10 is covered
    ]
    own = self_times(spans)
    assert own["frame"] == pytest.approx(10.0 - 3.0 - 1.0 - 2.0)
    assert own["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert own["b"] == pytest.approx(1.0)
    assert own["c"] == pytest.approx(4.0)
    assert total_times(spans)["a"] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        ("p", 0.0, 10.0, -1),
        ("x", 1.0, 5.0, 0),
        ("y", 3.0, 7.0, 0),
        ("z", 4.0, 4.5, 0),
    ]
    assert self_times(spans)["p"] == pytest.approx(10.0 - 6.0)


def test_fake_clock_spans():
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    mod = _module()
    with Tracer(clock=lambda: next(ticks)) as tracer:
        tracer.wrap(mod, "outer", "outer")
        tracer.wrap(mod, "leaf", "leaf")
        mod.outer(0)
    assert tracer.spans == [("outer", 0.0, 6.0, -1), ("leaf", 1.0, 3.0, 0)]
    assert self_times(tracer.spans) == {"outer": 4.0, "leaf": 2.0}


def test_layer_wrappers_restore_crtrack_and_change_nothing():
    import run

    mods = run.import_crtrack()
    watched = {
        (name, attr): getattr(mods[name], attr)
        for name in mods
        for attr in dir(mods[name])
        if not attr.startswith("_")
    }
    spec = mods["harness"].SequenceSpec(
        arm_count=2, arm_length=1, frame_count=3, width=64, height=64,
        seed=3, part_length=10.0, part_width=4.0,
    )
    model, frames, truth = mods["harness"].simulate_sequence(spec)
    cfg = mods["tracker"].TrackerConfig(particle_count=8, resampler="combinatorial", seed=5)
    plain = mods["tracker"].track_sequence(frames, truth[0], model, cfg, truth=truth)
    stats = {"raster_cells": 0, "ess_frac": [], "unique_frac": [], "groups": [], "pool_max": []}
    with Tracer() as tracer:
        run.install_layer_wrappers(tracer, mods, stats)
        traced = mods["tracker"].track_sequence(frames, truth[0], model, cfg, truth=truth)
    after = {key: getattr(mods[key[0]], key[1]) for key in watched}
    assert after == watched
    assert tracer.absent == []
    assert traced.mean_error == plain.mean_error
    assert (traced.estimates == plain.estimates).all()
    assert len(tracer.durations("frame")) == 2
    assert tracer.counts["resampling.draw_calls"] > 0
    assert stats["raster_cells"] > 0 and stats["groups"]
