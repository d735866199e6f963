"""§V-C: mixed frequencies within one CCX (Table I and Fig 4).

Procedure (paper): run ``while(1);`` on all cores of one CCX; configure
one core's frequency differently from the other three; observe the
measured core with ``perf stat`` for 120 one-second intervals (Table I);
then measure L3 pointer-chase latency for the same setups with hardware
prefetchers disabled and huge pages (Fig 4), keeping the *minimum* of
repeated measurements to reject perturbed samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.experiment import ExperimentConfig
from repro.core.report import ComparisonTable
from repro.units import ghz
from repro.workloads import SPIN, pointer_chase


@dataclass
class MixedFrequencyResult:
    """Table I reproduction: mean applied GHz by (set, others) pair."""

    set_freqs_ghz: list[float]
    other_freqs_ghz: list[float]
    #: mean_applied_ghz[i][j] for set_freqs[i] x other_freqs[j]
    mean_applied_ghz: np.ndarray

    def cell(self, set_ghz: float, others_ghz: float) -> float:
        i = self.set_freqs_ghz.index(set_ghz)
        j = self.other_freqs_ghz.index(others_ghz)
        return float(self.mean_applied_ghz[i, j])


@dataclass
class L3LatencyResult:
    """Fig 4 reproduction: L3 latency by (set, others) pair, in ns."""

    set_freqs_ghz: list[float]
    other_freqs_ghz: list[float]
    latency_ns: np.ndarray

    def cell(self, set_ghz: float, others_ghz: float) -> float:
        i = self.set_freqs_ghz.index(set_ghz)
        j = self.other_freqs_ghz.index(others_ghz)
        return float(self.latency_ns[i, j])


#: Table I of the paper (GHz), indexed [set][others].
PAPER_TABLE_I = {
    1.5: {1.5: 1.499, 2.2: 1.466, 2.5: 1.428},
    2.2: {1.5: 2.200, 2.2: 2.199, 2.5: 2.000},
    2.5: {1.5: 2.497, 2.2: 2.499, 2.5: 2.499},
}


class MixedFrequencyExperiment:
    """Runs the §V-C setups."""

    FREQS_GHZ = [1.5, 2.2, 2.5]

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()

    def _setup(self, machine, set_ghz: float, others_ghz: float):
        """All four cores of CCX 0 active; core 0 configured differently."""
        cpus = machine.os.cpus_of_ccx(0)
        measured = cpus[0]
        with machine.batch():
            machine.os.run(SPIN, cpus)
            machine.os.set_frequency(measured, ghz(set_ghz))
            for cpu in cpus[1:]:
                machine.os.set_frequency(cpu, ghz(others_ghz))
        return measured

    # ------------------------------------------------------------------

    def measure_applied_frequencies(self, n_intervals: int | None = None) -> MixedFrequencyResult:
        """Table I: perf-observed mean frequency of the measured core."""
        cfg = self.config
        n = cfg.scaled(120, minimum=20) if n_intervals is None else n_intervals
        grid = np.zeros((len(self.FREQS_GHZ), len(self.FREQS_GHZ)))
        for i, set_ghz in enumerate(self.FREQS_GHZ):
            for j, others_ghz in enumerate(self.FREQS_GHZ):
                machine = cfg.build_machine()
                measured = self._setup(machine, set_ghz, others_ghz)
                samples = machine.os.perf.sample([measured], 1.0, n)
                freqs = [row[0].freq_hz for row in samples]
                grid[i, j] = float(np.mean(freqs)) / ghz(1)
                machine.shutdown()
        return MixedFrequencyResult(
            set_freqs_ghz=list(self.FREQS_GHZ),
            other_freqs_ghz=list(self.FREQS_GHZ),
            mean_applied_ghz=grid,
        )

    def measure_l3_latencies(self, n_repeats: int = 11) -> L3LatencyResult:
        """Fig 4: pointer-chase L3 latency, minimum of repeats.

        The measured core runs the pointer chase; the other three run the
        active spin workload; latency follows the core's (penalized) mean
        clock and the CCX's L3 clock.
        """
        cfg = self.config
        rng = cfg.build_machine().rng.child("l3-latency-noise")
        grid = np.zeros((len(self.FREQS_GHZ), len(self.FREQS_GHZ)))
        for i, set_ghz in enumerate(self.FREQS_GHZ):
            for j, others_ghz in enumerate(self.FREQS_GHZ):
                machine = cfg.build_machine()
                measured = self._setup(machine, set_ghz, others_ghz)
                machine.os.run(pointer_chase("L3"), [measured])
                core = machine.topology.thread(measured).core
                ccx = core.ccx
                base = machine.latency_model.l3_latency_ns(
                    machine.observable_mean_hz(core), ccx.l3_freq_hz
                )
                # Repeated measurements perturbed by OS/hardware noise;
                # keep the minimum, as the paper does.
                noise = rng.lognormal(mean=0.0, sigma=0.08, size=n_repeats)
                samples = base * np.maximum(1.0, noise)
                grid[i, j] = float(samples.min())
                machine.shutdown()
        return L3LatencyResult(
            set_freqs_ghz=list(self.FREQS_GHZ),
            other_freqs_ghz=list(self.FREQS_GHZ),
            latency_ns=grid,
        )

    # ------------------------------------------------------------------

    def compare_with_paper(self, result: MixedFrequencyResult) -> ComparisonTable:
        table = ComparisonTable("Table I: mixed frequencies on one CCX")
        for set_ghz, row in PAPER_TABLE_I.items():
            for others_ghz, paper in row.items():
                table.add(
                    f"set {set_ghz} / others {others_ghz}",
                    paper,
                    result.cell(set_ghz, others_ghz),
                    "GHz",
                    tolerance_rel=0.01,
                )
        return table

    def check_l3_monotonicity(self, result: L3LatencyResult) -> bool:
        """Fig 4's qualitative claim: for a 1.5 GHz core, faster
        neighbours *reduce* L3 latency."""
        lat_15 = [result.cell(1.5, o) for o in self.FREQS_GHZ]
        return lat_15[0] > lat_15[1] > lat_15[2]
