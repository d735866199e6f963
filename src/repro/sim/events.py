"""Event and event-queue primitives for the discrete-event engine.

Events are ordered by ``(time_ns, sequence)``; the monotonically increasing
sequence number makes ordering *stable*: two events scheduled for the same
nanosecond fire in scheduling order.  Stability matters for reproducibility
— the machine model relies on it so that, e.g., an SMU slot boundary
observes all requests issued "before" it at the same timestamp.

The queue is the hottest data structure in the repository (the Fig 3
experiment schedules hundreds of thousands of events per run), so its
layout is chosen for the CPython fast paths that ``heapq`` exercises:

* heap entries are plain ``(time_ns, seq, Event)`` tuples, so sift
  comparisons are native tuple comparisons that never call back into
  Python-level ``__lt__`` (``seq`` is unique per queue, so the
  :class:`Event` in slot 2 is never compared);
* :class:`Event` uses ``__slots__`` — no per-event ``__dict__``;
* the number of *live* (non-cancelled) events is maintained as a counter,
  so ``len(queue)`` / ``bool(queue)`` are O(1) instead of an O(n) scan;
* cancellation stays lazy (O(1)), but once stale cancelled entries
  outnumber live ones the heap is compacted in one O(n) pass, so
  cancel-heavy workloads (e.g. repeatedly cancelled C-state wakeup
  timers) cannot leak heap entries for the rest of the run.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time_ns:
        Absolute simulation time at which the event fires.
    seq:
        Tie-breaking sequence number (assigned by the queue; unique, so
        heap ordering never needs to compare events themselves).
    callback:
        Zero-argument callable invoked when the event fires.
    cancelled:
        Cancelled events stay in the heap but are skipped when popped
        (lazy deletion — O(1) cancel); the owning queue keeps its live
        count and stale-entry accounting in sync.
    """

    __slots__ = ("time_ns", "seq", "callback", "cancelled", "_queue")

    def __init__(
        self,
        time_ns: int,
        seq: int | tuple[int, int],
        callback: Callable[[], Any],
        queue: "EventQueue | None" = None,
    ) -> None:
        self.time_ns = time_ns
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event as cancelled; it will never fire.

        Idempotent.  While the event is still resident in its queue, the
        queue is notified so the live count stays exact and compaction
        can trigger; cancelling an already-fired event is a no-op beyond
        setting the flag.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time_ns}ns seq={self.seq} {state}>"


class EventQueue:
    """A stable min-heap of :class:`Event` objects.

    With ``tiebreak_rng`` set (a seeded :class:`numpy.random.Generator`,
    derived via :class:`repro.sim.rng.RngFactory`), same-timestamp ties
    are broken by a random draw instead of scheduling order — the
    event-order shuffle mode :mod:`repro.lint.shuffle` uses to detect
    ordering races.  Each shuffled ordering is itself reproducible; the
    scheduling counter still backs the draw so the order stays total.

    Invariants (relied on by tests and the dispatch loop):

    * ``len(queue)`` equals the number of pushed, not-yet-popped,
      not-cancelled events at all times (O(1));
    * ``queue.resident - len(queue)`` is the number of stale cancelled
      entries, and never exceeds ``max(len(queue), COMPACT_MIN_RESIDENT)``
      after a cancel returns.
    """

    #: Compaction never runs below this heap size — for small heaps the
    #: O(n) rebuild costs more than the lazy-deletion pops it saves.
    COMPACT_MIN_RESIDENT = 64

    def __init__(self, *, tiebreak_rng=None) -> None:
        self._heap: list[tuple[int, int | tuple[int, int], Event]] = []
        self._counter = itertools.count()
        self._tiebreak_rng = tiebreak_rng
        self._live = 0
        #: Number of threshold-triggered heap compactions so far.
        self.compactions = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def resident(self) -> int:
        """Heap entries currently resident, including stale cancelled ones."""
        return len(self._heap)

    def push(self, time_ns: int, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute time ``time_ns``."""
        if time_ns < 0:
            raise SimulationError(f"cannot schedule at negative time {time_ns}")
        rng = self._tiebreak_rng
        seq: int | tuple[int, int] = (
            next(self._counter)
            if rng is None
            else (int(rng.integers(1 << 62)), next(self._counter))
        )
        event = Event(time_ns, seq, callback, self)
        heappush(self._heap, (time_ns, seq, event))
        self._live += 1
        return event

    def peek_time(self) -> int | None:
        """Fire time of the earliest pending event, or None if empty."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2].cancelled:
                heappop(heap)
                continue
            return head[0]
        return None

    def pop(self) -> Event:
        """Remove and return the earliest pending event."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                continue
            self._live -= 1
            event._queue = None
            return event
        raise SimulationError("pop from empty event queue")

    def pop_due(self, limit_ns: int) -> Event | None:
        """Pop the earliest pending event with ``time_ns <= limit_ns``.

        Returns ``None`` when the queue is empty or the earliest pending
        event fires later than ``limit_ns``.  One call replaces a
        ``peek_time`` + ``pop`` pair (``Simulator.run_until`` inlines the
        equivalent loop over the raw heap; this method is the reference
        statement of its semantics, and what the property tests drive).
        """
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[2]
            if event.cancelled:
                heappop(heap)
                continue
            if head[0] > limit_ns:
                return None
            heappop(heap)
            self._live -= 1
            event._queue = None
            return event
        return None

    def _note_cancel(self) -> None:
        """Bookkeeping for an in-queue cancel (called by :meth:`Event.cancel`)."""
        self._live -= 1
        resident = len(self._heap)
        if resident >= self.COMPACT_MIN_RESIDENT and resident - self._live > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop all stale cancelled entries and re-heapify (O(n)).

        Rebuilds *in place* (slice assignment): ``Simulator.run_until``
        holds a direct reference to the heap list across callbacks, and a
        callback may cancel enough events to trigger compaction mid-loop.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapify(self._heap)
        self.compactions += 1

    def clear(self) -> None:
        """Drop all pending events."""
        for entry in self._heap:
            entry[2]._queue = None
        self._heap.clear()
        self._live = 0
