"""Outside-in span tracing for the end-to-end benchmark.

The benchmark times the program's layers without changing them: a
:class:`Tracer` swaps chosen functions on their classes or modules for
timing wrappers, records one span per call in memory, and puts every
original back when it closes. Nothing under ``src/`` knows it is traced.

A span is ``[name, start, end, parent]`` with ``parent`` the index of
the span that was open when it started (``-1`` at top level). A span's
*self time* is its duration minus the durations of its direct children,
so self times partition the traced wall time among span names.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter


def self_times(spans) -> dict[str, float]:
    """Sum of self time per span name."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start - child_time[i])
    return totals


class Tracer:
    """Records spans around patched calls; a context manager that
    restores every patched attribute on exit, even after an error."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        #: Counts the caller adds next to the spans (e.g. dispatched events).
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def wrap(self, fn, name: str):
        """``fn`` recording one span named ``name`` per call."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``.

        ``attr`` must be a plain function defined on ``owner`` itself
        (not inherited), so that restoring it is exact.
        """
        original = vars(owner)[attr]
        if not inspect.isfunction(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call."""
        self.replace(owner, attr, lambda fn: self.wrap(fn, name))

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def calls(self) -> Counter:
        """Number of spans per name."""
        return Counter(span[0] for span in self.spans)

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"name": name, "cat": name.split(".")[0], "ph": "X",
                 "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                 "pid": 1, "tid": 1}
                for name, start, end, _parent in self.spans
            ],
        }
