"""Event queue ordering, cancellation, live-count accounting, compaction."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue
from repro.sim.rng import RngFactory


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(30, lambda: fired.append("c"))
        q.push(10, lambda: fired.append("a"))
        q.push(20, lambda: fired.append("b"))
        while q:
            q.pop().callback()
        assert fired == ["a", "b", "c"]

    def test_stable_for_equal_times(self):
        q = EventQueue()
        fired = []
        for name in "abcde":
            q.push(5, lambda n=name: fired.append(n))
        while q:
            q.pop().callback()
        assert fired == list("abcde")

    def test_peek_time(self):
        q = EventQueue()
        q.push(42, lambda: None)
        q.push(7, lambda: None)
        assert q.peek_time() == 7

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek_time() is None

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1, lambda: None)

    def test_cancelled_event_skipped(self):
        q = EventQueue()
        e1 = q.push(1, lambda: None)
        q.push(2, lambda: None)
        e1.cancel()
        assert q.peek_time() == 2
        assert len(q) == 1

    def test_len_counts_only_live_events(self):
        q = EventQueue()
        events = [q.push(i, lambda: None) for i in range(5)]
        events[2].cancel()
        events[4].cancel()
        assert len(q) == 3

    def test_bool_with_all_cancelled(self):
        q = EventQueue()
        e = q.push(1, lambda: None)
        e.cancel()
        assert not q

    def test_clear(self):
        q = EventQueue()
        q.push(1, lambda: None)
        q.clear()
        assert not q

    def test_cancel_after_clear_keeps_count_exact(self):
        q = EventQueue()
        e = q.push(1, lambda: None)
        q.clear()
        e.cancel()  # detached from the queue: must not go negative
        assert len(q) == 0
        q.push(2, lambda: None)
        assert len(q) == 1

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        e = q.push(1, lambda: None)
        q.push(2, lambda: None)
        e.cancel()
        e.cancel()
        assert len(q) == 1

    def test_cancel_after_pop_does_not_affect_count(self):
        q = EventQueue()
        e = q.push(1, lambda: None)
        q.push(2, lambda: None)
        popped = q.pop()
        assert popped is e
        e.cancel()  # already fired: flag only
        assert len(q) == 1

    def test_pop_due(self):
        q = EventQueue()
        q.push(10, lambda: None)
        q.push(20, lambda: None)
        assert q.pop_due(5) is None
        assert q.pop_due(10).time_ns == 10
        assert q.pop_due(15) is None
        assert q.pop_due(20).time_ns == 20
        assert q.pop_due(10**9) is None


def _interleaved_ops(q, rng):
    """Drive push/pop/cancel interleaving; return the reference live count."""
    live = []
    n_live = 0
    for t, op in zip(rng.integers(0, 1_000, size=400), rng.integers(0, 10, size=400)):
        if op < 5 or not live:
            live.append(q.push(int(t), lambda: None))
            n_live += 1
        elif op < 8:
            event = live.pop()
            if not event.cancelled:
                event.cancel()
                n_live -= 1
        elif q:
            popped = q.pop()
            if popped in live:
                live.remove(popped)
            n_live -= 1
        assert len(q) == n_live, "live count diverged from reference"
        assert bool(q) == (n_live > 0)
    return n_live


class TestLiveCountAccounting:
    """``len``/``bool`` are O(1) counters; they must never drift (#4 satellite)."""

    def test_interleaved_ops_normal_mode(self):
        q = EventQueue()
        rng = RngFactory(11).child("interleave")
        _interleaved_ops(q, rng)


class TestCompaction:
    def test_mass_cancel_does_not_leave_stale_entries(self):
        # The repeatedly-cancelled wakeup-timer pattern: without
        # compaction, N cancels leave N stale heap entries until their
        # fire times pass.
        q = EventQueue()
        events = [q.push(i, lambda: None) for i in range(10_000)]
        for e in events[:-10]:
            e.cancel()
        assert len(q) == 10
        assert q.compactions >= 1
        # Stale entries are bounded by the live count (above the small-heap
        # floor), not by the number of cancels.
        assert q.resident <= max(len(q) * 2, EventQueue.COMPACT_MIN_RESIDENT)

    def test_no_compaction_below_min_resident(self):
        q = EventQueue()
        events = [q.push(i, lambda: None) for i in range(EventQueue.COMPACT_MIN_RESIDENT - 1)]
        for e in events:
            e.cancel()
        assert q.compactions == 0

    def test_compaction_rebuilds_in_place(self):
        # Simulator.run_until holds a direct reference to the heap list
        # across callbacks; compaction must never rebind it.
        q = EventQueue()
        heap_id = id(q._heap)
        events = [q.push(i, lambda: None) for i in range(1_000)]
        for e in events:
            e.cancel()
        assert q.compactions >= 1
        assert id(q._heap) == heap_id

    def test_order_preserved_across_compaction(self):
        q = EventQueue()
        keep = []
        for i in range(500):
            e = q.push(1_000 - i, lambda i=i: None)
            if i % 7 == 0:
                keep.append(e)
            else:
                e.cancel()
        popped = [q.pop().time_ns for _ in range(len(q))]
        assert popped == sorted(e.time_ns for e in keep)
        assert not q
