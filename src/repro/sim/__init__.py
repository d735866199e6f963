"""Discrete-event simulation substrate.

The engine is intentionally small: an integer-nanosecond clock, a binary
heap of events, and periodic tasks.  Components of the machine model
(SMUs, instruments, the OS tick) schedule callbacks on a shared
:class:`~repro.sim.engine.Simulator`; experiments advance the clock with
:meth:`~repro.sim.engine.Simulator.run_until` /
:meth:`~repro.sim.engine.Simulator.run_for`.
"""

from repro.sim.engine import Simulator, PeriodicTask
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngFactory

__all__ = ["Simulator", "PeriodicTask", "Event", "EventQueue", "RngFactory"]
