"""§VI-A/§VI-B: idle power staircase (Fig 7) and the offline anomaly.

Procedure (Fig 7): starting from all threads in C2, walk logical CPUs in
numbering order (first threads of package 0's cores, package 1's cores,
then the sibling threads, again by package) moving them into shallower
states; measure full-system AC power for 10 s per configuration:

* C2 -> C1 by disabling C2 in sysfs per CPU;
* C1 -> C0 by pinning an unrolled ``pause`` loop per CPU.

§VI-B: offline the sibling threads instead and observe power stuck at
the C1 level although every *online* thread still idles in C2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.experiment import ExperimentConfig
from repro.core.report import ComparisonTable
from repro.units import ghz
from repro.workloads import PAUSE_LOOP


@dataclass
class IdleStaircaseResult:
    """Power after each step of one sweep."""

    label: str
    steps: list[str] = field(default_factory=list)
    power_w: list[float] = field(default_factory=list)

    def delta(self, i: int) -> float:
        """Power increase of step i over step i-1."""
        return self.power_w[i] - self.power_w[i - 1]


class IdlePowerExperiment:
    """Runs the Fig 7 sweeps and the §VI-B anomaly check."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()

    # ------------------------------------------------------------------

    def sweep_c1(self, step_cpus: list[int] | None = None) -> IdleStaircaseResult:
        """Move CPUs from C2 to C1 one at a time (sysfs disable of C2)."""
        machine = self.config.build_machine()
        result = IdleStaircaseResult(label="C2 -> C1 sweep")
        result.steps.append("all C2")
        result.power_w.append(machine.measure(self.config.interval_s).ac_mean_w)
        cpus = step_cpus or machine.os.all_cpus()
        for cpu in cpus:
            machine.os.sysfs.write(
                f"/sys/devices/system/cpu/cpu{cpu}/cpuidle/state2/disable", "1"
            )
            result.steps.append(f"cpu{cpu} C1")
            result.power_w.append(machine.measure(self.config.interval_s).ac_mean_w)
        machine.shutdown()
        return result

    def sweep_c0(
        self, freq_ghz: float = 2.5, step_cpus: list[int] | None = None
    ) -> IdleStaircaseResult:
        """Pin pause loops to CPUs one at a time (C0 sweep at ``freq``)."""
        machine = self.config.build_machine()
        machine.os.set_all_frequencies(ghz(freq_ghz))
        result = IdleStaircaseResult(label=f"C2 -> C0 sweep @{freq_ghz} GHz")
        result.steps.append("all C2")
        result.power_w.append(machine.measure(self.config.interval_s).ac_mean_w)
        cpus = step_cpus or machine.os.all_cpus()
        active: list[int] = []
        for cpu in cpus:
            active.append(cpu)
            machine.os.run(PAUSE_LOOP, [cpu])
            result.steps.append(f"{len(active)} active")
            result.power_w.append(machine.measure(self.config.interval_s).ac_mean_w)
        machine.shutdown()
        return result

    # ------------------------------------------------------------------

    def offline_anomaly(self) -> dict[str, float]:
        """§VI-B: power with sibling threads offlined vs. re-onlined.

        Returns the three AC readings: baseline all-C2, with all sibling
        threads offline (anomalous C1-level power), and after explicit
        re-onlining (back to the C2 level).
        """
        machine = self.config.build_machine()
        baseline = machine.measure(self.config.interval_s).ac_mean_w
        n_cores = machine.topology.n_cores
        siblings = [cpu for cpu in machine.os.all_cpus() if cpu >= n_cores]
        with machine.batch():
            for cpu in siblings:
                machine.os.sysfs.write(f"/sys/devices/system/cpu/cpu{cpu}/online", "0")
        offline = machine.measure(self.config.interval_s).ac_mean_w
        with machine.batch():
            for cpu in siblings:
                machine.os.sysfs.write(f"/sys/devices/system/cpu/cpu{cpu}/online", "1")
        restored = machine.measure(self.config.interval_s).ac_mean_w
        machine.shutdown()
        return {"baseline_w": baseline, "offline_w": offline, "restored_w": restored}

    # ------------------------------------------------------------------

    def compare_with_paper(
        self, c1: IdleStaircaseResult, c0: IdleStaircaseResult
    ) -> ComparisonTable:
        table = ComparisonTable("Fig 7: idle power staircase")
        table.add("all C2", 99.1, c1.power_w[0], "W", 0.01)
        table.add("first core C1 delta", 81.2, c1.delta(1), "W", 0.02)
        per_core_c1 = np.diff(c1.power_w[2 : 2 + 16]).mean() if len(c1.power_w) > 18 else np.diff(c1.power_w[2:]).mean()
        table.add("per-core C1 delta", 0.09, float(per_core_c1), "W", 0.25)
        table.add("first active (pause)", 180.4, c0.power_w[1], "W", 0.01)
        if len(c0.power_w) > 3:
            per_core_c0 = float(np.diff(c0.power_w[1:4]).mean())
            table.add("per-core active delta", 0.33, per_core_c0, "W", 0.25)
        return table
