"""SMU hierarchy: per-die SMUs and the master SMU (§III-C).

Burd et al. (cited in §III-C) describe one SMU per die; a master is
elected to evaluate telemetry from the others and run the package control
loops, trigger frequency changes and drive the external voltage
regulator.  Two observable consequences are reproduced here:

* the master's control cadence *is* the 1 ms frequency-update slot grid
  measured in §V-B (Fig 3) — the :class:`~repro.pstate.transitions.TransitionEngine`
  is owned by the master SMU;
* frequency transitions are slow (390/360 µs) because they are
  *negotiated between SMUs* rather than applied by a central PCU as on
  Intel — the delay constants live in the calibration and are attributed
  to this communication (§V-B discussion).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.calibration import CALIBRATION, Calibration
from repro.pstate.transitions import TransitionEngine
from repro.sim.engine import Simulator
from repro.smu.edc import EdcAssessment, EdcManager
from repro.smu.ppt import PptAssessment, PptManager
from repro.topology.components import Package


@dataclass
class Smu:
    """A per-die management unit; holds die-local telemetry."""

    die_name: str
    #: Most recent die temperature reported to the master (deg C).
    temperature_c: float = 30.0
    #: Most recent die current estimate reported to the master (A).
    current_a: float = 0.0


class MasterSmu:
    """The elected master SMU of one package."""

    def __init__(
        self,
        sim: Simulator,
        package: Package,
        edc_limit_a: float,
        calibration: Calibration = CALIBRATION,
        ppt_limit_w: float | None = None,
    ) -> None:
        self.sim = sim
        self.package = package
        self.cal = calibration
        # One SMU per CCD plus one on the I/O die; the I/O-die SMU is
        # conventionally the master on Rome.
        self.die_smus = [Smu(f"ccd{ccd.index_in_package}") for ccd in package.ccds]
        self.io_smu = Smu("iod")
        self.edc = EdcManager(edc_limit_a, calibration)
        self.ppt = PptManager(
            ppt_limit_w if ppt_limit_w is not None else 1e9, calibration
        )
        self.transitions = TransitionEngine(sim, calibration)
        self._edc_cap_hz: float | None = None
        self._ppt_cap_hz: float | None = None

    # --- telemetry aggregation ------------------------------------------------

    def collect_telemetry(self, pkg_temp_c: float) -> None:
        """Refresh die telemetry (all dies share the package RC node)."""
        for smu in self.die_smus:
            smu.temperature_c = pkg_temp_c
        self.io_smu.temperature_c = pkg_temp_c

    # --- control loops -----------------------------------------------------------

    def run_edc_loop(self, requested_hz: float) -> EdcAssessment:
        """Evaluate EDC for the package and cache the cap."""
        assessment = self.edc.assess(self.package, requested_hz)
        self._edc_cap_hz = assessment.cap_hz
        for smu, ccd in zip(self.die_smus, self.package.ccds):
            smu.current_a = sum(
                self.edc.core_current_a(
                    c.active_workload, c.active_thread_count, c.applied_freq_hz
                )
                for c in ccd.cores()
            )
        return assessment

    def run_ppt_loop(
        self, requested_hz: float, temp_c: float | None = None,
        dram_traffic_gbs: float = 0.0,
    ) -> PptAssessment:
        """Evaluate the power limit and cache the cap."""
        assessment = self.ppt.assess(
            self.package, requested_hz, temp_c, dram_traffic_gbs
        )
        self._ppt_cap_hz = assessment.cap_hz
        return assessment

    @property
    def edc_cap_hz(self) -> float | None:
        """Current EDC frequency cap (None when unthrottled)."""
        return self._edc_cap_hz

    @property
    def ppt_cap_hz(self) -> float | None:
        """Current PPT frequency cap (None when unthrottled)."""
        return self._ppt_cap_hz

    @property
    def combined_cap_hz(self) -> float | None:
        """The binding cap: min of the EDC and PPT loops."""
        caps = [c for c in (self._edc_cap_hz, self._ppt_cap_hz) if c is not None]
        return min(caps) if caps else None

    def shutdown(self) -> None:
        """Cancel periodic machinery (machine teardown)."""
        self.transitions.shutdown()
