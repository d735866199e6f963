"""``perf stat``-style counter sampling.

The paper observes frequencies with ``perf stat -e cycles -I 1000`` (§V-A,
§V-C) and collects per-thread throughput in 1 s intervals (§V-E).  The
model returns, per interval, the cycle and instruction counts a perf
session would read:

* an **active** thread accrues cycles at the core's *observable mean*
  frequency (the resolver's Table-I-penalized value) and instructions at
  ``IPC/thread x cycles``;
* an **idle** thread accrues only housekeeping cycles — the paper reports
  "less than 60000 cycle/s" from timer interrupts (§V-A);
* a thread in C1/C2 has halted counters (aperf/mperf/cycles do not
  advance, §VI-A) apart from those interrupt windows;
* an **offline** thread reports nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Housekeeping cycle rate of an idle-but-online thread (§V-A: observed
#: below 60000 cycles/s on the test system).
IDLE_HOUSEKEEPING_CYCLES_PER_S = 55_000.0


@dataclass(frozen=True)
class PerfSample:
    """One interval's counters for one logical CPU."""

    cpu_id: int
    interval_s: float
    cycles: float
    instructions: float

    @property
    def freq_hz(self) -> float:
        """The frequency perf would print (cycles / wall time)."""
        return self.cycles / self.interval_s

    @property
    def ipc(self) -> float:
        """Per-thread instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0


class PerfStat:
    """Samples counters from machine state."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self._rng = machine.rng.child("perf")

    def _thread_rates(self, thread) -> tuple[float, float]:
        """(cycles/s, instructions/s) for a thread in its current state."""
        if not thread.online:
            return 0.0, 0.0
        if thread.is_active:
            core = thread.core
            mean_hz = self.machine.observable_mean_hz(core)
            wl = thread.workload
            smt = core.active_thread_count
            inst_rate = wl.ipc(smt) / smt * mean_hz
            return mean_hz, inst_rate
        # idle: housekeeping only — the wake-up sources pinned to the CPU
        # set the rate (a quiet CPU sits below the paper's 60000 cycles/s)
        interrupts = getattr(self.machine, "interrupts", None)
        if interrupts is not None:
            cyc = interrupts.idle_cycles_per_s(thread.cpu_id)
        else:
            cyc = IDLE_HOUSEKEEPING_CYCLES_PER_S
        return cyc, cyc * 0.8

    def sample(self, cpu_ids: list[int], interval_s: float = 1.0, count: int = 1,
               *, jitter_rel: float = 5e-4) -> list[list[PerfSample]]:
        """``count`` intervals of counters for the given CPUs.

        ``jitter_rel`` models interrupt/measurement noise on the counts
        (perf reads are not phase-aligned with the workload).
        """
        topo = self.machine.topology
        rates = [self._thread_rates(topo.thread(cpu_id)) for cpu_id in cpu_ids]
        # One draw per sample, row by row: the same numbers, in the same
        # order, as one scalar draw per sample.
        draws = iter(self._rng.normal(0.0, jitter_rel, size=count * len(cpu_ids)).tolist())
        out: list[list[PerfSample]] = []
        for _ in range(count):
            row: list[PerfSample] = []
            for cpu_id, (cyc_rate, inst_rate) in zip(cpu_ids, rates):
                noise = 1.0 + next(draws)
                row.append(
                    PerfSample(
                        cpu_id=cpu_id,
                        interval_s=interval_s,
                        cycles=max(0.0, cyc_rate * interval_s * noise),
                        instructions=max(0.0, inst_rate * interval_s * noise),
                    )
                )
            out.append(row)
        return out

    def mean_freq_hz(self, cpu_id: int, interval_s: float = 1.0, count: int = 10) -> float:
        """Average observed frequency over ``count`` intervals."""
        samples = self.sample([cpu_id], interval_s, count)
        return float(np.mean([row[0].freq_hz for row in samples]))
