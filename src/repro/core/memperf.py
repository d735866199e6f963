"""§V-D: I/O-die P-state and DRAM frequency vs. memory performance (Fig 5).

Procedure: STREAM-Triad bandwidth with 1..N compactly placed cores and
pointer-chase main-memory latency, swept over the BIOS I/O-die P-state
(Auto, P0, P1, P2) and DRAM speed grade.  Prefetchers disabled, huge
pages used (latency); threads "well placed" via OpenMP envs (bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.experiment import ExperimentConfig
from repro.core.report import ComparisonTable
from repro.iodie.fclk import FclkMode
from repro.units import ghz
from repro.workloads import STREAM_TRIAD, pointer_chase

#: The BIOS sweep of the paper's Fig 5.
FCLK_MODES = (FclkMode.AUTO, FclkMode.P0, FclkMode.P1, FclkMode.P2)
DRAM_GRADES = ("DDR4-2666", "DDR4-3200")


@dataclass
class BandwidthSweepResult:
    """bandwidth_gbs[(mode, dram)] -> array over core counts."""

    core_counts: list[int]
    series: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    def at(self, mode: FclkMode, dram: str, n_cores: int) -> float:
        key = (mode.name, dram)
        return float(self.series[key][self.core_counts.index(n_cores)])


@dataclass
class LatencySweepResult:
    """latency_ns[(mode, dram)]."""

    latency_ns: dict[tuple[str, str], float] = field(default_factory=dict)

    def at(self, mode: FclkMode, dram: str) -> float:
        return self.latency_ns[(mode.name, dram)]


class MemoryPerformanceExperiment:
    """Runs the Fig 5 sweeps."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()

    def measure_bandwidth(
        self, core_counts: list[int] | None = None, n_repeats: int = 5
    ) -> BandwidthSweepResult:
        """STREAM-Triad bandwidth over core count x fclk x DRAM."""
        counts = core_counts or [1, 2, 3, 4, 6, 8, 12, 16, 24, 32]
        result = BandwidthSweepResult(core_counts=counts)
        for mode in FCLK_MODES:
            for dram in DRAM_GRADES:
                machine = self.config.build_machine(fclk_mode=mode, dram=dram)
                rng = machine.rng.child("stream-noise")
                fc = machine.fclk_controllers[0]
                series = np.zeros(len(counts))
                for k, n in enumerate(counts):
                    cpus = machine.os.compact_cpus(n)
                    with machine.batch():
                        machine.os.run(STREAM_TRIAD, cpus)
                        machine.os.set_all_frequencies(ghz(2.5))
                    bw = machine.bandwidth_model.node_bandwidth_gbs(
                        n, ghz(2.5), fc
                    ).bandwidth_gbs
                    # best-of-repeats against run-to-run noise
                    noise = 1.0 - np.abs(rng.normal(0.0, 0.01, size=n_repeats))
                    series[k] = bw * noise.max()
                    machine.os.stop()
                result.series[(mode.name, dram)] = series
                machine.shutdown()
        return result

    def measure_latency(self, n_repeats: int = 11) -> LatencySweepResult:
        """Pointer-chase DRAM latency over fclk x DRAM (min of repeats)."""
        result = LatencySweepResult()
        for mode in FCLK_MODES:
            for dram in DRAM_GRADES:
                machine = self.config.build_machine(fclk_mode=mode, dram=dram)
                rng = machine.rng.child("latency-noise")
                cpu = machine.os.compact_cpus(1)[0]
                machine.os.run(pointer_chase("DRAM"), [cpu])
                machine.os.set_frequency(cpu, ghz(2.5))
                fc = machine.fclk_controllers[0]
                core = machine.topology.thread(cpu).core
                base = machine.latency_model.dram_latency_ns(
                    core.applied_freq_hz, fc, l3_freq_hz=core.ccx.l3_freq_hz
                )
                noise = rng.lognormal(0.0, 0.05, size=n_repeats)
                result.latency_ns[(mode.name, dram)] = float(
                    (base * np.maximum(1.0, noise)).min()
                )
                machine.shutdown()
        return result

    # ------------------------------------------------------------------

    def compare_with_paper(
        self, bw: BandwidthSweepResult, lat: LatencySweepResult
    ) -> ComparisonTable:
        table = ComparisonTable("Fig 5: I/O-die P-state & DRAM frequency")
        # The two latency numbers the text names explicitly:
        table.add("latency auto @DDR4-3200", 92.0, lat.at(FclkMode.AUTO, "DDR4-3200"), "ns", 0.02)
        table.add("latency P0 @DDR4-3200", 96.0, lat.at(FclkMode.P0, "DDR4-3200"), "ns", 0.02)
        # Qualitative claims, encoded as indicator quantities (1.0 = holds):
        table.add(
            "2 cores reach max bandwidth (sat ratio)",
            1.0,
            bw.at(FclkMode.P0, "DDR4-3200", 2)
            / max(bw.series[("P0", "DDR4-3200")]),
            "",
            0.02,
        )
        table.add(
            "P2 beats P0 at high DRAM clock",
            1.0,
            1.0 if lat.at(FclkMode.P2, "DDR4-3200") < lat.at(FclkMode.P0, "DDR4-3200") else 0.0,
            "",
            0.0,
        )
        table.add(
            "P2 worse than P0 at low DRAM clock",
            1.0,
            1.0 if lat.at(FclkMode.P2, "DDR4-2666") > lat.at(FclkMode.P0, "DDR4-2666") else 0.0,
            "",
            0.0,
        )
        table.add(
            "auto bandwidth matches best fixed state",
            1.0,
            max(bw.series[("AUTO", "DDR4-3200")])
            / max(bw.series[("P0", "DDR4-3200")]),
            "",
            0.03,
        )
        table.add(
            "higher DRAM clock adds little bandwidth",
            1.0,
            max(bw.series[("P0", "DDR4-3200")])
            / max(bw.series[("P0", "DDR4-2666")]),
            "",
            0.06,
        )
        return table
