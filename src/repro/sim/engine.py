"""The discrete-event simulator core.

A :class:`Simulator` owns the clock and the event queue.  Machine
components register callbacks; experiments drive time forward.  Unlike
generator-based frameworks (simpy), everything here is plain callbacks —
the machine model's state machines are explicit, which keeps hot paths
cheap (the frequency-transition experiment schedules hundreds of thousands
of events per run).
"""

from __future__ import annotations

import operator
from heapq import heappop
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue


def _as_int_ns(value: Any, what: str) -> int:
    """Coerce a nanosecond count to int, rejecting floats at the boundary.

    Accepts anything with ``__index__`` (int, numpy integers); rejects
    floats so representation drift cannot creep into the integer clock
    (DESIGN.md §7).  Convert explicitly via :mod:`repro.units` instead.
    """
    if type(value) is int:
        return value
    try:
        return operator.index(value)
    except TypeError:
        raise SimulationError(
            f"{what} must be an integer nanosecond count, got "
            f"{type(value).__name__} {value!r}; convert with repro.units "
            "(us/ms/s) or round() explicitly"
        ) from None


class Simulator:
    """Integer-nanosecond discrete-event simulator.

    ``tiebreak_rng`` (a seeded generator from
    :class:`repro.sim.rng.RngFactory`) enables event-order shuffle mode:
    same-timestamp ties fire in a seeded-random order instead of
    scheduling order.  See :mod:`repro.lint.shuffle`.
    """

    def __init__(self, *, tiebreak_rng=None, obs=None) -> None:
        self._now_ns = 0
        self._queue = EventQueue(tiebreak_rng=tiebreak_rng)
        self._running = False
        # Observability: None unless an *enabled* repro.obs.Obs is
        # attached — the dispatch hot path only ever pays an identity
        # check (`make bench-guard` holds it to the 2% budget).
        self._obs = None
        self._obs_track = None
        if obs is not None:
            self.attach_obs(obs)

    def attach_obs(self, obs, track: str | None = None) -> None:
        """Instrument dispatch with a :class:`repro.obs.Obs` bundle.

        ``track`` names the trace track dispatch spans land on; machines
        pass their own so per-machine timelines stay separate.  A
        disabled obs is ignored entirely.
        """
        from repro.obs import COUNT_BUCKETS, effective_obs

        obs = effective_obs(obs)
        if obs is None:
            return
        if track is None:
            track = obs.tracer.new_track("sim")
        self._obs = obs
        self._obs_track = track
        metrics = obs.metrics
        self._obs_dispatched = metrics.counter(
            "sim.events_dispatched",
            "Events dispatched by Simulator.run_until",
            "events",
            machine=track,
        )
        self._obs_depth = metrics.gauge(
            "sim.queue_depth",
            "Live events pending after the last run_until batch",
            "events",
            machine=track,
        )
        self._obs_compactions = metrics.counter(
            "sim.queue_compactions",
            "Event-queue lazy-cancel compaction passes",
            "passes",
            machine=track,
        )
        self._obs_batches = metrics.histogram(
            "sim.dispatch_batch",
            "Events dispatched per non-empty run_until batch",
            "events",
            buckets=COUNT_BUCKETS,
            machine=track,
        )
        self._obs_compact_seen = self._queue.compactions

    # --- clock ---------------------------------------------------------

    @property
    def now_ns(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now_ns

    # --- scheduling ------------------------------------------------------

    def schedule_at(self, time_ns: int, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute time ``time_ns`` (>= now)."""
        if type(time_ns) is not int:
            time_ns = _as_int_ns(time_ns, "time_ns")
        if time_ns < self._now_ns:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns; clock is at {self._now_ns} ns"
            )
        return self._queue.push(time_ns, callback)

    def schedule_after(self, delay_ns: int, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` ``delay_ns`` nanoseconds from now."""
        if type(delay_ns) is not int:
            delay_ns = _as_int_ns(delay_ns, "delay_ns")
        if delay_ns < 0:
            raise SimulationError(f"negative delay {delay_ns}")
        return self._queue.push(self._now_ns + delay_ns, callback)

    def periodic(
        self,
        period_ns: int,
        callback: Callable[[], Any],
        *,
        phase_ns: int = 0,
    ) -> "PeriodicTask":
        """Create (and start) a periodic task firing every ``period_ns``.

        The first firing happens at ``now + phase_ns + period_ns`` — i.e.
        ``phase_ns`` offsets the task's slot grid, which the SMU model uses
        to desynchronize per-die update intervals.
        """
        return PeriodicTask(self, period_ns, callback, phase_ns=phase_ns)

    # --- execution -------------------------------------------------------

    def run_until(self, time_ns: int) -> None:
        """Execute all events up to and including ``time_ns``; set clock there.

        Events scheduled exactly at ``time_ns`` do fire.  The clock always
        ends at ``time_ns`` even if the queue drains earlier, so periodic
        samplers and experiments can rely on wall-time alignment.
        """
        time_ns = _as_int_ns(time_ns, "time_ns")
        if time_ns < self._now_ns:
            raise SimulationError(
                f"cannot run backwards to {time_ns} ns from {self._now_ns} ns"
            )
        if self._running:
            raise SimulationError("run_until called re-entrantly from a callback")
        self._running = True
        try:
            # Hot loop: EventQueue.pop_due inlined over the raw heap —
            # the dispatch rate here bounds every timing experiment.
            # Safe to hold `heap` across callbacks: the queue only ever
            # mutates that list in place (push appends, compaction
            # slice-assigns).
            queue = self._queue
            heap = queue._heap
            if self._obs is None:
                while heap:
                    head = heap[0]
                    event = head[2]
                    if event.cancelled:
                        heappop(heap)
                        continue
                    if head[0] > time_ns:
                        break
                    heappop(heap)
                    queue._live -= 1
                    event._queue = None
                    self._now_ns = head[0]
                    event.callback()
            else:
                self._run_instrumented(queue, heap, time_ns)
            self._now_ns = time_ns
        finally:
            self._running = False

    def _run_instrumented(self, queue: EventQueue, heap: list, time_ns: int) -> None:
        """The run_until hot loop with obs instrumentation.

        Kept as a duplicate of the disabled loop (not a merged loop with
        per-event branches) so the disabled path stays within the <= 2 %
        overhead budget ``make bench-guard`` measures.
        """
        tracer = self._obs.tracer
        t0_wall_ns = tracer.now_ns()
        t0_sim_ns = self._now_ns
        dispatched = 0
        try:
            while heap:
                head = heap[0]
                event = head[2]
                if event.cancelled:
                    heappop(heap)
                    continue
                if head[0] > time_ns:
                    break
                heappop(heap)
                queue._live -= 1
                event._queue = None
                self._now_ns = head[0]
                event.callback()
                dispatched += 1
        finally:
            if dispatched:
                self._obs_dispatched.inc(dispatched)
                self._obs_batches.observe(dispatched)
                tracer.complete(
                    "sim.dispatch",
                    cat="sim",
                    track=self._obs_track,
                    t0_wall_ns=t0_wall_ns,
                    sim_t0_ns=t0_sim_ns,
                    sim_t1_ns=self._now_ns,
                    events=dispatched,
                )
            self._obs_depth.set(queue._live)
            compactions = queue.compactions
            if compactions != self._obs_compact_seen:
                self._obs_compactions.inc(compactions - self._obs_compact_seen)
                self._obs_compact_seen = compactions

    def run_for(self, duration_ns: int) -> None:
        """Advance the clock by ``duration_ns``, executing due events."""
        self.run_until(self._now_ns + duration_ns)

    def step(self) -> bool:
        """Execute exactly one event. Returns False if the queue is empty."""
        if self._running:
            raise SimulationError("step called re-entrantly from a callback")
        next_time = self._queue.peek_time()
        if next_time is None:
            return False
        event = self._queue.pop()
        self._now_ns = event.time_ns
        self._running = True
        try:
            event.callback()
        finally:
            self._running = False
        return True

    @property
    def pending_events(self) -> int:
        """Number of non-cancelled events in the queue (O(1))."""
        return len(self._queue)

    @property
    def resident_events(self) -> int:
        """Heap entries resident in the queue, including stale cancelled
        ones awaiting lazy deletion or compaction (see
        :class:`repro.sim.events.EventQueue`)."""
        return self._queue.resident


class PeriodicTask:
    """A self-rescheduling periodic callback.

    Cancellation is immediate: after :meth:`cancel` the callback never
    fires again, even if an occurrence was already queued.
    """

    def __init__(
        self,
        sim: Simulator,
        period_ns: int,
        callback: Callable[[], Any],
        *,
        phase_ns: int = 0,
    ) -> None:
        period_ns = _as_int_ns(period_ns, "period_ns")
        if period_ns <= 0:
            raise SimulationError(f"period must be positive, got {period_ns}")
        self._sim = sim
        self.period_ns = period_ns
        self._callback = callback
        self._cancelled = False
        self._event: Event | None = None
        self._schedule_next(first_delay_ns=phase_ns + period_ns)

    def _schedule_next(self, *, first_delay_ns: int | None = None) -> None:
        delay = self.period_ns if first_delay_ns is None else first_delay_ns
        self._event = self._sim.schedule_after(delay, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._callback()
        if not self._cancelled:
            self._schedule_next()

    def cancel(self) -> None:
        """Stop the task permanently."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def next_fire_ns(self) -> int | None:
        """Absolute time of the next scheduled firing (None if cancelled)."""
        if self._cancelled or self._event is None or self._event.cancelled:
            return None
        return self._event.time_ns
