"""Property-based tests for the event queue and simulator."""

from collections import defaultdict

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue


@given(times=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200))
def test_events_fire_in_nondecreasing_time_order(times):
    q = EventQueue()
    fired = []
    for t in times:
        q.push(t, lambda t=t: fired.append(t))
    while q:
        q.pop().callback()
    assert fired == sorted(times)


@given(
    times=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=100),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=100),
)
def test_cancelled_events_never_fire(times, cancel_mask):
    q = EventQueue()
    fired = []
    events = [q.push(t, lambda i=i: fired.append(i)) for i, t in enumerate(times)]
    for event, cancel in zip(events, cancel_mask):
        if cancel:
            event.cancel()
    while q:
        q.pop().callback()
    cancelled = {i for i, c in enumerate(zip(cancel_mask, times)) if cancel_mask[i]}
    assert not (set(fired) & cancelled)
    assert len(fired) == len(times) - len(cancelled & set(range(len(times))))


@given(
    delays=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=50),
    horizon=st.integers(min_value=0, max_value=2 * 10**6),
)
def test_run_until_executes_exactly_due_events(delays, horizon):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule_after(d, lambda d=d: fired.append(d))
    sim.run_until(horizon)
    assert sorted(fired) == sorted(d for d in delays if d <= horizon)
    assert sim.now_ns == horizon


@given(
    period=st.integers(min_value=1, max_value=1000),
    horizon=st.integers(min_value=0, max_value=20_000),
)
@settings(max_examples=50)
def test_periodic_fire_count(period, horizon):
    sim = Simulator()
    count = [0]
    sim.periodic(period, lambda: count.__setitem__(0, count[0] + 1))
    sim.run_until(horizon)
    assert count[0] == horizon // period


# One node of a random schedule: (delay, parent, cancel).  A node with no
# parent is scheduled up front, the others by their parent's callback,
# ``delay`` after it fires; a firing node cancels ``cancel``'s event if
# that is still pending.  Delays on a 125 ns grid make same-time ties.
_nodes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40).map(lambda d: d * 125),
        st.none() | st.integers(min_value=0, max_value=30),
        st.none() | st.integers(min_value=0, max_value=30),
    ),
    min_size=0,
    max_size=30,
)


def _schedule(sim, nodes, period, log):
    """Schedule ``nodes`` (plus a periodic task) on ``sim``; every callback
    appends (time, name) to ``log``."""
    events = {}
    children = defaultdict(list)
    roots = []
    for i, (_, parent, _) in enumerate(nodes):
        if parent is None or i == 0:
            roots.append(i)
        else:
            children[parent % i].append(i)

    def fire(i):
        log.append((sim.now_ns, i))
        cancel = nodes[i][2]
        if cancel is not None and cancel % len(nodes) in events:
            events[cancel % len(nodes)].cancel()
        for j in children[i]:
            events[j] = sim.schedule_after(nodes[j][0], lambda j=j: fire(j))

    for i in roots:
        events[i] = sim.schedule_after(nodes[i][0], lambda i=i: fire(i))
    if period is not None:
        sim.periodic(period, lambda: log.append((sim.now_ns, "periodic")))


@given(
    nodes=_nodes,
    period=st.none() | st.integers(min_value=500, max_value=4_000),
    start=st.integers(min_value=0, max_value=1_000),
    polls=st.lists(
        st.tuples(st.integers(min_value=1, max_value=3_000), st.integers(min_value=1, max_value=12)),
        min_size=1,
        max_size=25,
    ),
)
@settings(max_examples=150)
def test_run_quanta_equals_run_for_per_quantum(nodes, period, start, polls):
    def build():
        sim, log = Simulator(), []
        sim.run_until(start)
        _schedule(sim, nodes, period, log)
        return sim, log

    jumped, jumped_log = build()
    stepped, stepped_log = build()
    for quantum, max_quanta in polls:
        before = stepped.now_ns
        k = jumped.run_quanta(quantum, max_quanta)
        # The reference polls one quantum at a time until an event fires
        # (every callback logs) or ``max_quanta`` quanta have passed: k is
        # the least count whose boundary reaches the next pending event.
        n_logged, reference_k = len(stepped_log), 0
        while reference_k < max_quanta and len(stepped_log) == n_logged:
            stepped.run_for(quantum)
            reference_k += 1
        assert k == reference_k
        assert jumped.now_ns == stepped.now_ns == before + k * quantum
        assert jumped_log == stepped_log
        assert jumped.pending_events == stepped.pending_events


@given(
    bad=st.none()
    | st.integers(max_value=0)
    | st.floats(allow_nan=True)
    | st.text(max_size=3),
    bad_quantum=st.booleans(),
)
def test_run_quanta_rejects_non_positive_or_non_int_arguments(bad, bad_quantum):
    sim = Simulator()
    sim.schedule_after(5, lambda: None)
    args = (bad, 10) if bad_quantum else (2_000, bad)
    with pytest.raises(SimulationError):
        sim.run_quanta(*args)
    assert sim.now_ns == 0 and sim.pending_events == 1
