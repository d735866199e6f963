"""No suite run schedules two pending events on one timestamp.

The event queue fires same-timestamp events in scheduling order, and
that is its only tie rule.  This test pins that no experiment leans on
it today: Fig 3 (random waits against 1 ms SMU slots) and Sec VII (RAPL
update rate) are the suite entries that schedule events, and neither
ever pushes an event onto the timestamp of one still pending.  A change
that creates a tie fails here and has to choose its tie order on
purpose.
"""

from __future__ import annotations

from repro.core.experiment import ExperimentConfig
from repro.core.suite import run_suite
from repro.sim.events import EventQueue

EVENT_ENTRIES = ["fig3_transition_delay", "sec7_rapl_update_rate"]


def test_event_traffic_has_no_same_timestamp_ties(monkeypatch):
    push = EventQueue.push
    pushes = 0
    ties: list[int] = []

    def spy(queue, time_ns, callback):
        nonlocal pushes
        pushes += 1
        if any(
            t == time_ns and not event.cancelled for t, _, event in queue._heap
        ):
            ties.append(time_ns)
        return push(queue, time_ns, callback)

    monkeypatch.setattr(EventQueue, "push", spy)
    run_suite(ExperimentConfig(seed=2021, scale=0.02), only=EVENT_ENTRIES)
    # An empty run would pass the tie check vacuously.
    assert pushes > 0
    assert ties == [], f"{len(ties)} of {pushes} pushes tie a pending event"
