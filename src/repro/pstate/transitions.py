"""The SMU frequency-transition state machine (§V-B, Fig 3).

Mechanism reproduced from the paper's measurements:

* Requests do not take effect immediately.  The SMU runs a fixed
  **update interval of 1 ms**; a pending request is picked up at the next
  slot boundary.  Because requests arrive at a random phase relative to
  the grid, the waiting time is U(0, 1 ms).
* Executing the transition takes **~390 µs** (down) / **~360 µs** (up) —
  "likely caused by communication between the SMUs".  Total latency is
  therefore uniformly distributed over [390, 1390] µs for down-switches,
  which is exactly the Fig 3 histogram.
* After the frequency settles the **voltage keeps settling for several
  milliseconds**.  If a new request returns to the previous frequency
  while the voltage is still in flight and the voltage gap is small
  (2.2 <-> 2.5 GHz), the switch completes almost instantaneously (1 µs);
  down-switches in that window can complete in as little as 160 µs.  The
  effect disappears with waits >= 5 ms — matching the paper's caveat.

Implementation note: slot boundaries live on an absolute 1 ms grid
(``now // period`` arithmetic) and boundary events are scheduled *only
while requests are pending* — a settled machine costs zero events, which
keeps the steady-state measurement path fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.power.calibration import CALIBRATION, Calibration
from repro.sim.engine import Simulator
from repro.topology.components import Core


@dataclass
class TransitionRecord:
    """Bookkeeping for the most recent transition of a core."""

    requested_at_ns: int = -1
    started_at_ns: int = -1
    completed_at_ns: int = -1
    from_hz: float = 0.0
    to_hz: float = 0.0
    fast_return: bool = False

    @property
    def latency_ns(self) -> int:
        """Request-to-completion latency of the last finished transition."""
        if self.completed_at_ns < 0 or self.requested_at_ns < 0:
            return -1
        return self.completed_at_ns - self.requested_at_ns


@dataclass
class _CoreContext:
    pending_target_hz: float | None = None
    requested_at_ns: int = -1
    in_flight: bool = False
    #: Frequency applied before the currently settling transition.
    previous_hz: float = 0.0
    #: Time at which the voltage of the last transition finishes settling.
    voltage_settled_at_ns: int = 0
    record: TransitionRecord = field(default_factory=TransitionRecord)


class TransitionEngine:
    """Event-driven frequency transitions on top of a :class:`Simulator`."""

    def __init__(self, sim: Simulator, calibration: Calibration = CALIBRATION) -> None:
        self.sim = sim
        self.cal = calibration
        self._contexts: dict[int, _CoreContext] = {}
        self._pending_cores: list[Core] = []
        self._boundary_scheduled_for: int = -1

    def _ctx(self, core: Core) -> _CoreContext:
        ctx = self._contexts.get(core.global_index)
        if ctx is None:
            ctx = _CoreContext(previous_hz=core.applied_freq_hz)
            self._contexts[core.global_index] = ctx
        return ctx

    # --- API -----------------------------------------------------------------

    def request(self, core: Core, target_hz: float) -> None:
        """File a frequency request for ``core`` (e.g. a cpufreq write)."""
        ctx = self._ctx(core)
        now = self.sim.now_ns
        if abs(target_hz - core.applied_freq_hz) < 1e3 and not ctx.in_flight:
            ctx.pending_target_hz = None
            return
        ctx.pending_target_hz = target_hz
        ctx.requested_at_ns = now

        # Fast-return path (§V-B: "some transitions are executed
        # instantaneously (1 us)"): an *up*-switch back to the previous
        # frequency while that frequency's voltage has not yet dropped
        # away, for a small voltage gap (covers 2.2 -> 2.5 GHz only).
        # Down-switches never take this path — the clock must still be
        # stepped down — they get the partial shortcut in _start instead.
        if (
            not ctx.in_flight
            and target_hz > core.applied_freq_hz
            and now < ctx.voltage_settled_at_ns
            and abs(target_hz - ctx.previous_hz) < 1e3
            and self._voltage_gap(target_hz, core.applied_freq_hz)
            <= self.cal.fast_return_max_dv
        ):
            ctx.in_flight = True
            self.sim.schedule_after(
                self.cal.fast_return_ns,
                lambda c=core: self._complete(c, fast_return=True),
            )
            return

        if core not in self._pending_cores:
            self._pending_cores.append(core)
        self._ensure_boundary()

    def record_of(self, core: Core) -> TransitionRecord:
        """The last transition record for ``core``."""
        return self._ctx(core).record

    def in_flight(self, core: Core) -> bool:
        """True while a transition for ``core`` is executing."""
        return self._ctx(core).in_flight

    def shutdown(self) -> None:
        """Forget pending work (machine teardown)."""
        self._pending_cores.clear()

    # --- internals -------------------------------------------------------------

    def _voltage_gap(self, f_a_hz: float, f_b_hz: float) -> float:
        return abs(self.cal.voltage_at(f_a_hz) - self.cal.voltage_at(f_b_hz))

    def _ensure_boundary(self) -> None:
        """Schedule the next 1 ms grid boundary if not already pending."""
        period = self.cal.smu_slot_period_ns
        next_boundary = (self.sim.now_ns // period + 1) * period
        if self._boundary_scheduled_for == next_boundary:
            return
        self._boundary_scheduled_for = next_boundary
        self.sim.schedule_at(next_boundary, self._slot_boundary)

    def _slot_boundary(self) -> None:
        """A 1 ms SMU slot: start every pending, not-in-flight transition."""
        self._boundary_scheduled_for = -1
        still_waiting: list[Core] = []
        for core in self._pending_cores:
            ctx = self._ctx(core)
            if ctx.pending_target_hz is None:
                continue
            if ctx.in_flight:
                still_waiting.append(core)
                continue
            self._start(core, ctx)
        self._pending_cores = still_waiting
        if self._pending_cores:
            self._ensure_boundary()

    def _start(self, core: Core, ctx: _CoreContext) -> None:
        target = ctx.pending_target_hz
        assert target is not None
        going_up = target > core.applied_freq_hz
        duration = self.cal.transition_up_ns if going_up else self.cal.transition_down_ns
        # Partially-settled shortcut (§V-B, 2.5 -> 2.2 observation): a
        # *down*-switch while the voltage is still on its way (after a
        # fast return it is part-way low already) finishes early, down to
        # the observed 160 us floor.
        now = self.sim.now_ns
        if (
            not going_up
            and now < ctx.voltage_settled_at_ns
            and self._voltage_gap(target, core.applied_freq_hz) <= self.cal.fast_return_max_dv
        ):
            settle_total = self.cal.voltage_settle_ns
            remaining = ctx.voltage_settled_at_ns - now
            progress = 1.0 - remaining / settle_total
            floor = self.cal.partial_transition_min_ns
            duration = max(floor, int(floor + (duration - floor) * progress))
        ctx.in_flight = True
        ctx.record.requested_at_ns = ctx.requested_at_ns
        ctx.record.started_at_ns = now
        ctx.record.from_hz = core.applied_freq_hz
        ctx.record.to_hz = target
        self.sim.schedule_after(duration, lambda c=core: self._complete(c, fast_return=False))

    def _complete(self, core: Core, *, fast_return: bool) -> None:
        ctx = self._ctx(core)
        target = ctx.pending_target_hz
        if target is None:  # pragma: no cover - cancelled mid-flight
            ctx.in_flight = False
            return
        old = core.applied_freq_hz
        core.applied_freq_hz = target
        ctx.pending_target_hz = None
        ctx.in_flight = False
        ctx.previous_hz = old
        now = self.sim.now_ns
        if fast_return:
            # The core now runs the higher clock on a partially-dropped
            # voltage that recovers in the background — a down-switch
            # within this window is the paper's 160 us partial case.
            ctx.voltage_settled_at_ns = now + self.cal.voltage_settle_ns
            ctx.record.requested_at_ns = ctx.requested_at_ns
            ctx.record.started_at_ns = now
            ctx.record.from_hz = old
            ctx.record.to_hz = target
        elif target < old:
            # Down-switch: the clock drops first, the voltage trails for
            # several milliseconds — this open window is what makes the
            # return *up*-switch instantaneous (§V-B).
            ctx.voltage_settled_at_ns = now + self.cal.voltage_settle_ns
        else:
            # Up-switch: the voltage led the clock; nothing settles.
            ctx.voltage_settled_at_ns = now
        ctx.record.completed_at_ns = now
        ctx.record.fast_return = fast_return
