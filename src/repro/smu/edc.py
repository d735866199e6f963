"""The EDC (electrical design current) manager, §V-E / Fig 6.

Suggs et al. describe "an intelligent EDC manager which monitors activity
[...] and throttles execution only when necessary".  The model:

* Per-core current demand = a static part (proportional to core voltage)
  plus a dynamic part proportional to ``IPC x f x edc_weight``.  The SMT
  mode uses a slightly lower dynamic coefficient — two threads sharing a
  front end draw less current per retired instruction, which is also why
  the measured 2-thread operating point (2.0 GHz x 3.56 IPC) carries
  *more* throughput than the 1-thread one (2.1 GHz x 3.23 IPC).
* The manager picks the highest 25 MHz-grid frequency whose package
  demand stays within the SKU's EDC limit.  Workloads with low
  ``edc_weight`` (everything except FIRESTARTER-class code) never hit
  the limit, reproducing "throttles execution only when necessary".

The paper's consequence — throttling is invisible unless you *measure*
the frequency (no documented AVX-frequency ranges on AMD) — is what the
Fig 6 bench demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.calibration import CALIBRATION, Calibration
from repro.topology.components import Package
from repro.units import PSTATE_FREQ_STEP_HZ, ghz


@dataclass(frozen=True)
class EdcAssessment:
    """Outcome of an EDC evaluation for one package."""

    demand_a: float
    limit_a: float
    cap_hz: float | None  # None = no throttling required
    throttled: bool


class EdcManager:
    """Per-package EDC control loop."""

    def __init__(self, limit_a: float, calibration: Calibration = CALIBRATION) -> None:
        self.limit_a = limit_a
        self.cal = calibration

    # --- demand model -----------------------------------------------------

    def core_current_a(self, workload, smt_threads: int, freq_hz: float) -> float:
        """Current demand of one core running ``workload``."""
        cal = self.cal
        v = cal.voltage_at(freq_hz)
        static = cal.edc_static_a_per_core * v
        if workload is None or smt_threads == 0:
            return 0.15 * v  # gated core residual
        coeff = (
            cal.edc_dyn_a_per_ipcghz_1t
            if smt_threads == 1
            else cal.edc_dyn_a_per_ipcghz_2t
        )
        ipc = workload.ipc(smt_threads)
        return static + coeff * ipc * (freq_hz / ghz(1)) * workload.edc_weight

    def package_demand_a(self, pkg: Package, freq_hz: float) -> float:
        """Demand if every active core of ``pkg`` ran at ``freq_hz``.

        Each distinct operating point (clock, SMT count, workload) is
        evaluated once; the per-core currents add in core order.
        """
        currents: dict[tuple, float] = {}
        total = 0.0
        for core in pkg.cores():
            smt = core.active_thread_count
            workload = core.active_workload
            f = freq_hz if smt else core.applied_freq_hz
            key = (f, smt, id(workload))
            current = currents.get(key)
            if current is None:
                current = currents[key] = self.core_current_a(workload, smt, f)
            total += current
        return total

    # --- control ------------------------------------------------------------

    def assess(self, pkg: Package, requested_hz: float) -> EdcAssessment:
        """Find the frequency cap (if any) for a package.

        Walks down the 25 MHz grid from the requested frequency until
        demand fits, mirroring the per-slot decrement behaviour of the
        hardware loop (the observable steady state is the same).
        """
        demand = self.package_demand_a(pkg, requested_hz)
        if demand <= self.limit_a:
            return EdcAssessment(demand, self.limit_a, None, False)
        f = requested_hz
        floor = ghz(0.4)
        while f > floor:
            f -= PSTATE_FREQ_STEP_HZ
            demand = self.package_demand_a(pkg, f)
            if demand <= self.limit_a:
                return EdcAssessment(demand, self.limit_a, f, True)
        return EdcAssessment(self.package_demand_a(pkg, floor), self.limit_a, floor, True)
