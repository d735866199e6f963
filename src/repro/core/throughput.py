"""§V-E: frequency limitations for high-throughput workloads (Fig 6).

Procedure: FIRESTARTER on all cores (one or two threads per core),
15-minute pre-heat, two minutes at nominal frequency; frequency and
throughput via ``perf stat`` (1 s intervals, first 5 s / last 2 s
trimmed), power via the external AC measurement and RAPL package
counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.experiment import ExperimentConfig
from repro.core.report import ComparisonTable
from repro.instruments.timeline import inner_window_mean
from repro.units import ghz
from repro.workloads import FIRESTARTER


@dataclass
class ThroughputResult:
    """One SMT configuration's Fig 6 measurements."""

    smt: bool
    mean_freq_ghz: float
    std_freq_mhz: float
    ipc_per_core: float
    ipc_std: float
    ac_power_w: float
    rapl_pkg_w: list[float]

    @property
    def rapl_per_pkg_w(self) -> float:
        return float(np.mean(self.rapl_pkg_w))


class ThroughputLimitExperiment:
    """Runs the §V-E methodology for one or both SMT configurations."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()

    def measure(self, *, smt: bool, duration_s: float = 120.0) -> ThroughputResult:
        cfg = self.config
        machine = cfg.build_machine()
        cpus = machine.os.all_cpus() if smt else machine.os.first_thread_cpus()
        with machine.batch():
            machine.os.set_all_frequencies(ghz(2.5))  # nominal
            machine.os.run(FIRESTARTER, cpus)
        machine.preheat()  # the 15 min warm-up

        # perf stat, 1 s intervals over the run
        n_intervals = max(10, int(duration_s))
        monitored = machine.os.first_thread_cpus()
        samples = machine.os.perf.sample(monitored, 1.0, n_intervals)
        # trim first 5 s and last 2 s (§V-E)
        samples = samples[5:-2]
        freqs = np.array([[s.freq_hz for s in row] for row in samples])
        # per-core IPC: both threads' instructions over core cycles
        smt_threads = 2 if smt else 1
        ipcs = np.array(
            [[s.ipc * smt_threads for s in row] for row in samples]
        )

        rec = machine.measure(10.0)
        ac = inner_window_mean(rec.ac, skip_head_s=1.0, skip_tail_s=1.0)
        machine.shutdown()
        return ThroughputResult(
            smt=smt,
            mean_freq_ghz=float(freqs.mean()) / 1e9,
            std_freq_mhz=float(freqs.mean(axis=1).std(ddof=1)) / 1e6,
            ipc_per_core=float(ipcs.mean()),
            ipc_std=float(ipcs.mean(axis=1).std(ddof=1)),
            ac_power_w=ac,
            rapl_pkg_w=rec.rapl_pkg_w,
        )

    # ------------------------------------------------------------------

    def compare_with_paper(self, two_thread: ThroughputResult, one_thread: ThroughputResult) -> ComparisonTable:
        table = ComparisonTable("Fig 6: FIRESTARTER throughput limits (EDC)")
        table.add("freq 2 threads/core", 2.0, two_thread.mean_freq_ghz, "GHz", 0.02)
        table.add("freq 1 thread/core", 2.1, one_thread.mean_freq_ghz, "GHz", 0.02)
        table.add("IPC 2 threads/core", 3.56, two_thread.ipc_per_core, "inst/cyc", 0.02)
        table.add("IPC 1 thread/core", 3.23, one_thread.ipc_per_core, "inst/cyc", 0.02)
        table.add("AC power 2 threads", 509.0, two_thread.ac_power_w, "W", 0.02)
        table.add("AC power 1 thread", 489.0, one_thread.ac_power_w, "W", 0.02)
        table.add("RAPL per package", 170.0, two_thread.rapl_per_pkg_w, "W", 0.03)
        return table

    def frequency_sweep(
        self, *, smt: bool = True, requested_ghz: tuple[float, ...] = (1.5, 2.2, 2.5)
    ) -> list[tuple[float, float, float]]:
        """Requested vs applied frequency and AC power under FIRESTARTER.

        Shows *where* the EDC limit starts to bind: requests at or below
        the throttle point are honoured exactly; above it they are all
        clipped to the same operating point — which is why §V-E notes
        that on AMD "measurements are required to determine the actual
        frequency ranges" (there is no documented AVX-frequency table to
        read the clip point from).
        """
        rows = []
        for req in requested_ghz:
            machine = self.config.build_machine()
            cpus = machine.os.all_cpus() if smt else machine.os.first_thread_cpus()
            machine.os.set_all_frequencies(ghz(req))
            machine.os.run(FIRESTARTER, cpus)
            machine.preheat()
            rec = machine.measure(10.0)
            applied = machine.topology.thread(0).core.applied_freq_hz / 1e9
            rows.append((req, applied, rec.ac_mean_w))
            machine.shutdown()
        return rows

    def core_count_scaling(self, skus: list[str] | None = None) -> dict[str, float]:
        """§VIII future work: throttled frequency vs. core count.

        The authors "expect a more severe impact, since the ratio of
        compute to I/O resources is higher" on bigger parts — this sweep
        quantifies that on the SKU catalogue.
        """
        from repro.machine import Machine

        results: dict[str, float] = {}
        for name in skus or ["EPYC 7252", "EPYC 7302", "EPYC 7502", "EPYC 7742"]:
            machine = Machine(name, n_packages=2, seed=self.config.seed)
            machine.os.set_all_frequencies(max(machine.sku.available_freqs_hz))
            machine.os.run(FIRESTARTER, machine.os.all_cpus())
            core0 = machine.topology.thread(0).core
            results[name] = core0.applied_freq_hz / 1e9
            machine.shutdown()
        return results
