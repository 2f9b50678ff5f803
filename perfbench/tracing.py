"""In-memory spans around calls into the program's layers.

A span is (name, start, end, parent index). Spans are appended while the
traced phase runs and only aggregated after it ends. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_generator(self, name: str, fn):
        """Time every ``next`` on the generators ``fn`` returns; one count per generator."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, inner)
                except StopIteration:
                    return
                yield item

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed duration, summed self time and span count."""
        self_time = []
        for name, start, end, parent in self.spans:
            self_time.append(end - start)
            if parent >= 0:
                self_time[parent] -= end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), own in zip(self.spans, self_time):
            agg = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            agg["total"] += end - start
            agg["self"] += own
            agg["calls"] += 1
        return out


@contextmanager
def patched(targets):
    """Temporarily replace ``module.attr`` for each (module, attr, replacement)."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, replacement in targets:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
