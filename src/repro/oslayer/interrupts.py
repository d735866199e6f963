"""Per-CPU wake-up sources (timers, devices, IPIs).

Two uses:

* the residual housekeeping activity on idle threads — the paper's §V-A
  observation of "less than 60000 cycle/s" on an idling hardware thread
  comes from exactly these wake-ups;
* input to the menu governor's sleep-length prediction
  (:mod:`repro.oslayer.cpuidle`): a CPU bombarded by a high-frequency
  timer never sleeps long enough for C2, which is the cheapest way for
  an operator to lose the 81 W deep-sleep saving (§VI-A) without
  touching a single sysfs knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Residual wake-up rate of a fully idle (nohz) CPU: RCU, watchdogs,
#: occasional housekeeping timers.
IDLE_RESIDUAL_WAKEUPS_HZ = 4.0

#: Cycles a single wake-up burns (enter kernel, handle, re-idle).
CYCLES_PER_WAKEUP = 12_000.0


@dataclass
class InterruptSource:
    """One registered wake-up source pinned to a CPU."""

    name: str
    cpu_id: int
    rate_hz: float


class InterruptModel:
    """Tracks wake-up sources per logical CPU."""

    def __init__(self) -> None:
        # CPU id -> that CPU's sources by name, in registration order.  The
        # menu governor asks once per CPU with sources per C-state refresh,
        # so a CPU's rate must not scan the other CPUs' sources.
        self._by_cpu: dict[int, dict[str, InterruptSource]] = {}

    def register(self, name: str, cpu_id: int, rate_hz: float) -> None:
        """Pin a periodic wake-up source (timer, NIC queue, ...)."""
        if rate_hz <= 0:
            raise ConfigurationError(f"{name}: rate must be positive, got {rate_hz}")
        if any(name in sources for sources in self._by_cpu.values()):
            raise ConfigurationError(f"interrupt source {name!r} already registered")
        self._by_cpu.setdefault(cpu_id, {})[name] = InterruptSource(name, cpu_id, rate_hz)

    def unregister(self, name: str) -> None:
        """Remove a source (e.g. the device quiesced)."""
        for sources in self._by_cpu.values():
            if name in sources:
                del sources[name]
                return
        raise ConfigurationError(f"no interrupt source {name!r}")

    def cpus_with_sources(self) -> list[int]:
        """The CPUs that hold at least one source."""
        return [cpu_id for cpu_id, sources in self._by_cpu.items() if sources]

    def sources_on(self, cpu_id: int) -> list[InterruptSource]:
        """The CPU's sources in registration order (a copy)."""
        return list(self._by_cpu.get(cpu_id, {}).values())

    def wakeup_rate_hz(self, cpu_id: int) -> float:
        """Total wake-ups per second an idle CPU sees."""
        sources = self._by_cpu.get(cpu_id)
        if not sources:
            return IDLE_RESIDUAL_WAKEUPS_HZ
        return IDLE_RESIDUAL_WAKEUPS_HZ + sum(s.rate_hz for s in sources.values())

    def idle_cycles_per_s(self, cpu_id: int) -> float:
        """Housekeeping cycle rate of an idle CPU (perf's view, §V-A)."""
        return self.wakeup_rate_hz(cpu_id) * CYCLES_PER_WAKEUP
