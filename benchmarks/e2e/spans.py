"""In-memory span recorder that times calls into the program from outside.

:meth:`SpanRecorder.wrap` replaces a public function or method with a
wrapper that records one span per call.  Every call is aggregated into
``calls``, total time and *self* time (span time minus the time of its
child spans); only boundary spans and calls of at least
:data:`MIN_SPAN_NS` are kept as timeline events, so a layer called
millions of times costs counters, not memory.  :meth:`chrome_trace`
exports the kept spans as a Chrome-trace (Perfetto-loadable) document.

The recorder keeps one call stack and is meant for one thread.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

#: Non-boundary calls shorter than this are counted but not kept as events.
MIN_SPAN_NS = 100_000


class SpanRecorder:
    """Per-name call counts, total and self time, plus kept timeline spans."""

    def __init__(self, min_span_ns: int = MIN_SPAN_NS, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.min_span_ns = min_span_ns
        self.clock = clock
        #: name -> [calls, total ns, self ns]
        self.stats: dict[str, list[int]] = {}
        #: kept spans: (name, start ns, end ns, parent name or None)
        self.spans: list[tuple[str, int, int, str | None]] = []
        self._stack: list[list[Any]] = []  # frames: [name, child ns]
        self._undo: list[tuple[Any, str, Any]] = []
        self.origin_ns = clock()

    # --- recording ---------------------------------------------------------

    def _count(self, name: str, duration: int, own: int) -> None:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own

    def _close(self, name: str, start: int, end: int, child: int, boundary: bool) -> None:
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self._count(name, duration, duration - child)
        if boundary or duration >= self.min_span_ns:
            self.spans.append((name, start, end, parent[0] if parent else None))

    def span(self, name: str, fn: Callable[..., Any], *args: Any, boundary: bool = True) -> Any:
        """Call ``fn(*args)`` inside a span called ``name``."""
        frame = [name, 0]
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args)
        finally:
            end = self.clock()
            self._stack.pop()
            self._close(name, start, end, frame[1], boundary)

    def wrap(self, owner: Any, attr: str, name: str, *, boundary: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`restore`.

        ``owner`` is a class (the method is wrapped for every instance), a
        module or a dict (a registry entry).
        """
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        stack = self._stack
        clock = self.clock
        close = self._close

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(name, start, end, frame[1], boundary)

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back (newest first)."""
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # --- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def self_s_prefix(self, prefix: str) -> float:
        """Summed self time of every span name starting with ``prefix``."""
        return sum(v[2] for k, v in self.stats.items() if k.startswith(prefix)) / 1e9

    def chrome_trace(self, **other: Any) -> dict[str, Any]:
        """The kept spans as a Chrome-trace JSON document."""
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - self.origin_ns) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 0,
                "args": {"parent": parent},
            }
            for name, start, end, parent in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}
