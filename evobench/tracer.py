"""In-memory span tracer used only by the traced (``--trace 1``) runs.

Spans are opened and closed around calls into the package's layers,
either explicitly by the benchmark's replica loops or by temporarily
swapping a module attribute for a timing wrapper (``Tracer.patched``).
Nothing here is imported by the package; untraced runs never create a
tracer.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Records span durations and self times per span name.

    A span's self time is its duration minus the time covered by the
    spans opened while it was the innermost open span.
    """

    def __init__(self):
        self.durations = defaultdict(list)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(list)
        self._stack = []  # [name, start, child_time]

    def begin(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def end(self) -> float:
        t1 = _clock()
        name, t0, child = self._stack.pop()
        dur = t1 - t0
        self.durations[name].append(dur)
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def mean_us(self, name: str) -> float:
        """Mean span duration in microseconds; 0 when the layer was never
        called in this workload."""
        d = self.durations.get(name)
        return 1e6 * sum(d) / len(d) if d else 0.0

    def wrap(self, name: str, fn, keep: bool = False):
        """Return fn traced as span ``name``.  With keep, each call's
        (args, result) is appended to ``self.calls[name]`` for analysis
        after the operation, so the analysis is not counted in any span."""

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if keep:
                self.calls[name].append((args, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Swap each ``(module, attribute, span_name, keep)`` for a traced
        wrapper for the duration of the block, then restore it."""
        saved = []
        try:
            for module, attr, name, keep in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, keep))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
