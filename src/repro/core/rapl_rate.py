"""§VII: RAPL update-rate measurement.

"We measured an update rate of 1 ms for RAPL by polling the MSRs via the
msr kernel module."  The experiment polls the package energy MSR in a
tight loop (event mode, microsecond steps) and records the intervals
between counter *changes*; the median interval is the update period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.experiment import ExperimentConfig
from repro.core.report import ComparisonTable
from repro.msr.definitions import MSR_PKG_ENERGY_STAT
from repro.units import ghz, ns_to_ms, us
from repro.workloads import SPIN


@dataclass
class RaplRateResult:
    """Observed intervals between counter updates."""

    intervals_ms: np.ndarray

    @property
    def median_ms(self) -> float:
        return float(np.median(self.intervals_ms))


class RaplUpdateRateExperiment:
    """Polls the package energy MSR for counter-change intervals."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()

    def measure(
        self, n_updates: int = 50, poll_interval_us: float = 20.0
    ) -> RaplRateResult:
        machine = self.config.build_machine()
        # Something must burn energy or the counter may stand still for
        # longer than an update period.
        machine.os.set_all_frequencies(ghz(2.5))
        machine.os.run(SPIN, machine.os.first_thread_cpus())
        machine.enable_event_mode(rapl_ticks=True)

        sim = machine.sim
        poll = us(poll_interval_us)
        last_raw = machine.msr.read(0, MSR_PKG_ENERGY_STAT)
        last_change_ns = sim.now_ns
        intervals: list[float] = []
        guard = 0
        while len(intervals) < n_updates:
            # The counter only changes in tick events: skip the polls in
            # between, up to the one where the guard trips.
            guard += sim.run_quanta(poll, n_updates * 1000 + 1 - guard)
            raw = machine.msr.read(0, MSR_PKG_ENERGY_STAT)
            if raw != last_raw:
                intervals.append(ns_to_ms(sim.now_ns - last_change_ns))
                last_change_ns = sim.now_ns
                last_raw = raw
            if guard > n_updates * 1000:
                break
        machine.shutdown()
        # The first interval is phase-truncated; drop it.
        return RaplRateResult(intervals_ms=np.asarray(intervals[1:]))

    def compare_with_paper(self, result: RaplRateResult) -> ComparisonTable:
        table = ComparisonTable("RAPL MSR update rate")
        table.add("update period", 1.0, result.median_ms, "ms", 0.05)
        return table
