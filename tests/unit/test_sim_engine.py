"""Simulator clock semantics and periodic tasks."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.sim.rng import RngFactory
from repro.units import ms, us


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now_ns == 0

    def test_schedule_after_fires_at_right_time(self, sim):
        seen = []
        sim.schedule_after(us(5), lambda: seen.append(sim.now_ns))
        sim.run_until(us(10))
        assert seen == [us(5)]

    def test_clock_ends_at_run_until_target(self, sim):
        sim.run_until(us(10))
        assert sim.now_ns == us(10)

    def test_event_exactly_at_boundary_fires(self, sim):
        seen = []
        sim.schedule_at(us(10), lambda: seen.append(True))
        sim.run_until(us(10))
        assert seen == [True]

    def test_event_after_boundary_does_not_fire(self, sim):
        seen = []
        sim.schedule_at(us(11), lambda: seen.append(True))
        sim.run_until(us(10))
        assert seen == []

    def test_schedule_in_past_raises(self, sim):
        sim.run_until(us(10))
        with pytest.raises(SimulationError):
            sim.schedule_at(us(5), lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_after(-1, lambda: None)

    def test_run_backwards_raises(self, sim):
        sim.run_until(us(10))
        with pytest.raises(SimulationError):
            sim.run_until(us(5))

    def test_callbacks_can_schedule_more(self, sim):
        seen = []

        def first():
            sim.schedule_after(us(1), lambda: seen.append(sim.now_ns))

        sim.schedule_after(us(1), first)
        sim.run_until(us(10))
        assert seen == [us(2)]

    def test_run_for_advances_relative(self, sim):
        sim.run_for(us(3))
        sim.run_for(us(4))
        assert sim.now_ns == us(7)

    def test_step_executes_single_event(self, sim):
        seen = []
        sim.schedule_after(us(1), lambda: seen.append(1))
        sim.schedule_after(us(2), lambda: seen.append(2))
        assert sim.step()
        assert seen == [1]
        assert sim.now_ns == us(1)

    def test_step_empty_returns_false(self, sim):
        assert not sim.step()

    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        e = sim.schedule_after(us(1), lambda: seen.append(1))
        e.cancel()
        sim.run_until(us(5))
        assert seen == []

    def test_raising_callback_is_consumed_and_dispatch_resumes(self, sim):
        seen = []
        sim.schedule_after(us(1), lambda: seen.append("a"))

        def boom():
            raise RuntimeError("callback failure")  # EXC001: arbitrary user-callback crash

        sim.schedule_after(us(2), boom)
        sim.schedule_after(us(3), lambda: seen.append("b"))
        with pytest.raises(RuntimeError):
            sim.run_until(us(5))
        assert seen == ["a"]
        assert sim.pending_events == 1
        # The raising event is consumed; the next run dispatches the rest.
        sim.run_until(us(5))
        assert seen == ["a", "b"]
        assert sim.pending_events == 0
        assert sim.now_ns == us(5)


class TestPeriodicTask:
    def test_fires_every_period(self, sim):
        seen = []
        sim.periodic(ms(1), lambda: seen.append(sim.now_ns))
        sim.run_until(ms(3))
        assert seen == [ms(1), ms(2), ms(3)]

    def test_phase_offsets_grid(self, sim):
        seen = []
        sim.periodic(ms(1), lambda: seen.append(sim.now_ns), phase_ns=us(100))
        sim.run_until(ms(2))
        assert seen[0] == ms(1) + us(100)

    def test_cancel_stops_future_firings(self, sim):
        seen = []
        task = sim.periodic(ms(1), lambda: seen.append(sim.now_ns))
        sim.run_until(ms(1))
        task.cancel()
        sim.run_until(ms(5))
        assert seen == [ms(1)]

    def test_cancel_before_first_fire(self, sim):
        seen = []
        task = sim.periodic(ms(1), lambda: seen.append(1))
        task.cancel()
        sim.run_until(ms(5))
        assert seen == []

    def test_next_fire_ns(self, sim):
        task = sim.periodic(ms(1), lambda: None)
        assert task.next_fire_ns() == ms(1)
        sim.run_until(ms(1))
        assert task.next_fire_ns() == ms(2)

    def test_next_fire_none_after_cancel(self, sim):
        task = sim.periodic(ms(1), lambda: None)
        task.cancel()
        assert task.next_fire_ns() is None

    def test_zero_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.periodic(0, lambda: None)


class TestTieBreaking:
    """Dispatch-order contract for same-timestamp events.

    The contract: ties dispatch in schedule order, and an event
    scheduled *during* dispatch at the current time runs after
    everything already queued at that time.  These are the
    order-dependence hazards of ``run_until``/``pop_due`` made explicit.
    """

    def test_same_timestamp_fifo(self, sim):
        seen = []
        for i in range(8):
            sim.schedule_at(us(5), lambda i=i: seen.append(i))
        sim.run_until(us(5))
        assert seen == list(range(8))

    def test_mixed_schedule_paths_keep_fifo(self, sim):
        # schedule_at and schedule_after interleaved at one timestamp
        # still dispatch in overall schedule order.
        seen = []
        sim.schedule_at(us(5), lambda: seen.append("at0"))
        sim.schedule_after(us(5), lambda: seen.append("after1"))
        sim.schedule_at(us(5), lambda: seen.append("at2"))
        sim.schedule_after(us(5), lambda: seen.append("after3"))
        sim.run_until(us(5))
        assert seen == ["at0", "after1", "at2", "after3"]

    def test_zero_delay_from_callback_runs_after_existing_ties(self, sim):
        seen = []
        sim.schedule_after(
            us(5), lambda: (seen.append("first"), sim.schedule_after(0, lambda: seen.append("spawned")))
        )
        sim.schedule_after(us(5), lambda: seen.append("second"))
        sim.run_until(us(5))
        # The zero-delay spawn lands at the same timestamp but was
        # scheduled later than "second", so it must not overtake it.
        assert seen == ["first", "second", "spawned"]

    def test_cancel_within_tie_group_preserves_order(self, sim):
        seen = []
        events = [
            sim.schedule_at(us(5), lambda i=i: seen.append(i)) for i in range(6)
        ]
        events[1].cancel()
        events[4].cancel()
        sim.run_until(us(5))
        assert seen == [0, 2, 3, 5]

    def test_pop_due_matches_run_until_order(self, sim):
        # Draining the queue directly must observe the same order as
        # the inlined dispatch loop in run_until.
        run_seen = []
        drain = sim
        runner = Simulator()

        def build(s, log):
            s.schedule_after(us(2), lambda: log.append("a"))
            s.schedule_after(us(1), lambda: log.append("b"))
            s.schedule_after(us(2), lambda: log.append("c"))
            s.schedule_after(us(1), lambda: log.append("d"))

        build(runner, run_seen)
        runner.run_until(us(2))

        drain_seen = []
        build(drain, drain_seen)
        while True:
            event = drain._queue.pop_due(us(2))
            if event is None:
                break
            event.callback()
        assert drain_seen == run_seen == ["b", "d", "a", "c"]

    def test_shuffle_mode_ties_are_seeded_not_fifo(self):
        def order(seed):
            rng = RngFactory(seed).child("event-order-shuffle/1")
            queue = EventQueue(tiebreak_rng=rng)
            fired = []
            for i in range(16):
                queue.push(100, lambda i=i: fired.append(i))
            while queue:
                queue.pop().callback()
            return fired

        shuffled = order(7)
        assert sorted(shuffled) == list(range(16))
        assert shuffled != list(range(16))  # the shuffle actually shuffles
        assert order(7) == shuffled  # and repeats for the same seed
