"""Model-based equivalence: optimized EventQueue vs a naive reference.

The production queue is heavily optimized (tuple heap entries, live-count
caching, threshold compaction, lazy deletion).  The reference model below
is the obviously-correct O(n) implementation: a flat list scanned for the
minimum ``(time, insertion index)``.  Random operation sequences — with
deliberately colliding timestamps — must be observationally identical on
both: same ``len``/``bool``, same ``peek_time``, same pop order, same
``pop_due`` results.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim.events import EventQueue


class NaiveQueue:
    """Reference model: list scan, eager deletion, stable tie-break."""

    def __init__(self):
        self._items = []  # (time_ns, insertion_idx)
        self._next_idx = 0

    def push(self, time_ns):
        idx = self._next_idx
        self._next_idx += 1
        self._items.append((time_ns, idx))
        return idx

    def cancel(self, idx):
        self._items = [item for item in self._items if item[1] != idx]

    def __len__(self):
        return len(self._items)

    def peek_time(self):
        return min(self._items)[0] if self._items else None

    def pop(self):
        item = min(self._items)
        self._items.remove(item)
        return item

    def pop_due(self, limit_ns):
        if not self._items:
            return None
        item = min(self._items)
        if item[0] > limit_ns:
            return None
        self._items.remove(item)
        return item


# An op is (code, time): code selects push/cancel/pop/pop_due/peek; the
# small time range forces plenty of same-timestamp ties.
ops_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=99), st.integers(min_value=0, max_value=50)),
    min_size=1,
    max_size=300,
)


@given(ops=ops_strategy)
@settings(max_examples=200)
def test_optimized_queue_matches_naive_reference(ops):
    q = EventQueue()
    ref = NaiveQueue()
    by_idx = {}  # insertion idx -> Event
    cancellable = []  # indices not yet cancelled/popped by us
    for code, t in ops:
        if code < 45 or not cancellable:
            idx = ref.push(t)
            by_idx[idx] = q.push(t, lambda idx=idx: idx)
            cancellable.append(idx)
        elif code < 65:
            # Cancel a pseudo-arbitrary (but shrink-friendly) element.
            idx = cancellable.pop(code % len(cancellable))
            by_idx[idx].cancel()
            ref.cancel(idx)
        elif code < 85:
            if ref._items:
                time_ns, idx = ref.pop()
                event = q.pop()
                assert (event.time_ns, event.callback()) == (time_ns, idx)
                cancellable.remove(idx)
            else:
                assert not q
        else:
            expected = ref.pop_due(t)
            event = q.pop_due(t)
            if expected is None:
                assert event is None
            else:
                assert (event.time_ns, event.callback()) == expected
                cancellable.remove(expected[1])
        assert len(q) == len(ref)
        assert bool(q) == bool(ref._items)
        assert q.peek_time() == ref.peek_time()
        # Compaction may or may not have run; stale entries must stay
        # bounded either way.
        assert q.resident - len(q) <= max(len(q), EventQueue.COMPACT_MIN_RESIDENT)
    drained = []
    while q:
        event = q.pop()
        drained.append((event.time_ns, event.callback()))
    assert drained == sorted(ref._items)
