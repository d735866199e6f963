"""The master SMU of a package (§III-C).

Burd et al. (cited in §III-C) describe one SMU per die; a master is
elected to evaluate telemetry from the others and run the package control
loops, trigger frequency changes and drive the external voltage
regulator.  Only the master is modelled: every control loop reads the
package's live state directly, so the per-die SMUs' telemetry would be a
copy of that state which no modelled behaviour reads.  Two observable
consequences of the hierarchy are reproduced here:

* the master's control cadence *is* the 1 ms frequency-update slot grid
  measured in §V-B (Fig 3) — the :class:`~repro.pstate.transitions.TransitionEngine`
  is owned by the master SMU;
* frequency transitions are slow (390/360 µs) because they are
  *negotiated between SMUs* rather than applied by a central PCU as on
  Intel — the delay constants live in the calibration and are attributed
  to this communication (§V-B discussion).
"""

from __future__ import annotations

from repro.power.calibration import CALIBRATION, Calibration
from repro.pstate.transitions import TransitionEngine
from repro.sim.engine import Simulator
from repro.smu.edc import EdcAssessment, EdcManager
from repro.smu.ppt import PptAssessment, PptManager
from repro.topology.components import Package


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
        self.edc = EdcManager(edc_limit_a, calibration)
        self.ppt = PptManager(
            ppt_limit_w if ppt_limit_w is not None else 1e9, calibration
        )
        self.transitions = TransitionEngine(sim, calibration)
        self._edc_cap_hz: float | None = None
        self._ppt_cap_hz: float | None = None

    # --- control loops -----------------------------------------------------------

    def run_edc_loop(self, requested_hz: float) -> EdcAssessment:
        """Evaluate EDC for the package and cache the cap."""
        assessment = self.edc.assess(self.package, requested_hz)
        self._edc_cap_hz = assessment.cap_hz
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
