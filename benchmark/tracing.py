"""Outside-in tracing for the crtrack benchmark.

A ``Tracer`` swaps module attributes for timing-and-counting wrappers, keeps
every span in memory and puts the original attributes back when it closes,
also when the traced code raises.  The library itself is never edited: the
wrappers only work because crtrack modules look their helpers up as module
globals at call time.
"""

from __future__ import annotations

import time
from collections import Counter

# One span: (layer name, start, end, index of the enclosing span or -1).
Span = tuple[str, float, float, int]


class Tracer:
    """Context manager that owns the wrappers, the spans and the counters.

    ``wrap`` installs a wrapper and records one span per call; ``count``
    installs a wrapper that only counts calls.  A name the module no longer
    defines is recorded in ``absent`` instead of raising, so the benchmark
    keeps running on a library whose internals moved.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every swapped attribute back, last swapped first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _swap(self, module, attr: str, make_wrapper) -> bool:
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return False
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))
        return True

    def wrap(self, module, attr: str, layer: str, observe=None) -> bool:
        """Time every call of ``module.attr`` as a span named ``layer``.

        ``observe(args, kwargs, result)`` runs after the span closes, so its
        own cost lands in the enclosing span, not in ``layer``.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def make_wrapper(original):
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (layer, start, end, parent)
                if observe is not None:
                    observe(args, kwargs, result)
                return result

            return traced

        return self._swap(module, attr, make_wrapper)

    def count(self, module, attr: str, counter: str) -> bool:
        """Count calls of ``module.attr`` under ``counter``, without a span."""
        counts = self.counts

        def make_wrapper(original):
            def counted(*args, **kwargs):
                counts[counter] += 1
                return original(*args, **kwargs)

            return counted

        return self._swap(module, attr, make_wrapper)

    def durations(self, layer: str) -> list[float]:
        """Wall time of every finished span named ``layer``, in call order."""
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == layer]


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[str, float]:
    """Total self time per layer: each span's duration minus the part of
    its interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for layer, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index, (layer, start, end, _) in enumerate(spans):
        own = (end - start) - _covered(children.get(index, []), start, end)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def total_times(spans) -> dict[str, float]:
    """Total wall time per layer, children included.  Nested spans of the
    same layer would be counted twice; the benchmark's layers do not nest
    in themselves."""
    totals: dict[str, float] = {}
    for layer, start, end, _ in spans:
        totals[layer] = totals.get(layer, 0.0) + (end - start)
    return totals
