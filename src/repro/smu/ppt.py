"""Package Power Tracking (PPT) — the SMU's power-capping loop.

The EDC manager (§V-E) guards *current*; the PPT loop guards *power*.
Rountree et al. (cited in §II-B) showed performance under hardware power
bounds; on Zen the SMU enforces the bound by walking the frequency down
until the modelled package power — the same estimator RAPL reports! —
fits the limit.  Two reproducible consequences:

* with the default limit (above TDP) the loop never binds on the test
  system: FIRESTARTER is EDC-limited at 2.0 GHz, not power-limited;
* when an operator lowers the limit (power capping), the *modelled*
  nature of the input matters: workloads whose power RAPL under-states
  (memory-heavy code, biased operand data, §VII) are under-throttled
  relative to their true draw — the cap holds in model-space, not at
  the wall.  ``true_power_excess_w`` quantifies that gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.calibration import CALIBRATION, Calibration
from repro.rapl.estimator import RaplEstimator
from repro.topology.components import Package
from repro.units import PSTATE_FREQ_STEP_HZ, ghz


@dataclass(frozen=True)
class PptAssessment:
    """Outcome of a PPT evaluation for one package."""

    modelled_power_w: float
    limit_w: float
    cap_hz: float | None
    throttled: bool


class PptManager:
    """Per-package power-limit control loop over the RAPL estimator."""

    def __init__(
        self,
        limit_w: float,
        calibration: Calibration = CALIBRATION,
        estimator: RaplEstimator | None = None,
    ) -> None:
        self.limit_w = limit_w
        self.cal = calibration
        self.estimator = estimator if estimator is not None else RaplEstimator(calibration)

    # --- modelled power at a hypothetical frequency --------------------------

    def modelled_package_power_w(
        self, pkg: Package, freq_hz: float, temp_c: float | None = None,
        dram_traffic_gbs: float = 0.0,
    ) -> float:
        """Estimator power if every active core ran at ``freq_hz``.

        Reads the package without writing it: the estimator takes the
        hypothetical clock (the SMU evaluates its model the same way —
        against hypothetical operating points).
        """
        return self.estimator.package_power_w(
            pkg, temp_c, dram_traffic_gbs=dram_traffic_gbs, active_freq_hz=freq_hz
        )

    # --- control ------------------------------------------------------------------

    def assess(
        self, pkg: Package, requested_hz: float, temp_c: float | None = None,
        dram_traffic_gbs: float = 0.0,
    ) -> PptAssessment:
        """Highest grid frequency whose modelled power fits the limit."""
        power = self.modelled_package_power_w(pkg, requested_hz, temp_c, dram_traffic_gbs)
        if power <= self.limit_w:
            return PptAssessment(power, self.limit_w, None, False)
        f = requested_hz
        floor = ghz(0.4)
        while f > floor:
            f -= PSTATE_FREQ_STEP_HZ
            power = self.modelled_package_power_w(pkg, f, temp_c, dram_traffic_gbs)
            if power <= self.limit_w:
                return PptAssessment(power, self.limit_w, f, True)
        return PptAssessment(power, self.limit_w, floor, True)

    # --- the model-vs-wall gap -------------------------------------------------------

    def true_power_excess_w(
        self, machine, pkg: Package
    ) -> float:
        """True package power minus the modelled power the loop enforces.

        Positive values mean the cap is violated at the wall even though
        the SMU believes it holds — the §VII accuracy findings turned
        into an operational risk.
        """
        temps = machine.thermal_state.temps_c
        true_w = machine.power_model.package_power_w(machine, pkg, temps)
        traffic = machine.power_model.package_dram_traffic_gbs(pkg)
        modelled = self.estimator.package_power_w(
            pkg, temps[pkg.index], dram_traffic_gbs=traffic
        )
        return true_w - modelled
