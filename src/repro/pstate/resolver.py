"""Effective-frequency resolution.

Implements the three frequency-coupling findings of §V:

1. **Sibling vote (§V-A)** — a core's clock honours the *maximum*
   requested frequency over its hardware threads, even when a thread is
   idle or offline.  ("Still, the frequency of the core is defined by the
   offline thread.")
2. **CCX coupling penalty (§V-C, Table I)** — cores requesting a lower
   frequency than the CCX maximum lose a small amount of *mean* applied
   frequency.  The paper observes the effect without disclosing a
   mechanism, so this is a calibrated empirical model: the SMU dips the
   slower core's clock around the shared-L3 domain's transitions, and the
   time-average shortfall grows with the neighbour's clock.
3. **L3 clock follows the fastest core (§V-C, Fig 4)** — "an increased
   L3-cache frequency that is defined by the highest clocked core in the
   CCX."

The resolver is *pure*: it reads topology state and returns per-core
targets; the transition engine / the machine's settle step apply them.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.power.calibration import CALIBRATION, Calibration
from repro.topology.components import CCX, Core
from repro.units import snap_to_pstate_grid


class ResolvedCoreFrequency(NamedTuple):
    """Resolution result for one core.

    ``target_hz`` is the P-state the SMU will program (grid-snapped);
    ``observable_mean_hz`` is the time-averaged clock a perf-counter
    observer sees (target minus the CCX coupling penalty).
    """

    core_index: int
    target_hz: float
    observable_mean_hz: float
    limited_by_edc: bool = False


class FrequencyResolver:
    """Computes per-core frequency targets and observable means."""

    def __init__(self, calibration: Calibration = CALIBRATION, *,
                 offline_threads_vote: bool = True) -> None:
        self.cal = calibration
        #: The §V-A quirk: offline/idle threads still vote.  Exposed as a
        #: switch so the ablation bench can quantify its impact.
        self.offline_threads_vote = offline_threads_vote

    # --- per-core request --------------------------------------------------

    def core_request_hz(self, core: Core) -> float:
        """The core's requested clock: max over hardware-thread votes.

        With ``offline_threads_vote`` (the Rome behaviour) every thread's
        cpufreq request counts.  With the switch off (Intel-like
        behaviour, per §V-A "we never observed this behavior on Intel
        processors") only threads that are online and not in a deep idle
        state vote; if none qualify, the core parks at the minimum vote.
        """
        t0, t1 = core.threads
        f0 = t0.requested_freq_hz
        f1 = t1.requested_freq_hz
        if not self.offline_threads_vote:
            active0 = t0.is_active
            if active0 != t1.is_active:
                return f0 if active0 else f1
            if not active0:
                return f1 if f1 < f0 else f0
        # max() keeps the first of equal votes; so does this.
        return f1 if f1 > f0 else f0

    # --- CCX-level resolution ----------------------------------------------

    def ccx_inputs(self, ccx: CCX) -> tuple[tuple[float, bool, bool], ...]:
        """All that :meth:`resolve_ccx` and :meth:`l3_target_hz` read of a CCX.

        One ``(vote, active, clock runs)`` triple per core, in core
        order.  Under one EDC cap and boost ceiling, CCXs with equal
        inputs resolve to equal targets, observable means and L3 clocks,
        position by position; the machine's settle resolves each
        distinct input once.
        """
        return tuple(
            (
                self.core_request_hz(core),
                core.active_thread_count != 0,
                self._core_clock_runs(core),
            )
            for core in ccx.cores
        )

    def resolve_ccx(
        self,
        ccx: CCX,
        *,
        edc_cap_hz: float | None = None,
        boost_ceiling_hz: float | None = None,
        nominal_hz: float | None = None,
    ) -> list[ResolvedCoreFrequency]:
        """Resolve all cores of one CCX.

        ``edc_cap_hz`` is an optional package-level frequency cap from the
        EDC manager (§V-E); it applies to cores with active threads.
        ``boost_ceiling_hz`` lifts active cores whose request is at (or
        above) ``nominal_hz`` — Core Performance Boost; the EDC cap is
        applied *after* the lift, so a binding EDC limit makes boost a
        no-op (the §V-E observation).  A core's neighbours are the other
        cores of the CCX whose clock runs, at their lifted requests.
        """
        boost = boost_ceiling_hz is not None and nominal_hz is not None
        # One pass over the inputs: each core's vote (boost-lifted),
        # activity, and its request as a neighbour (None when gated).
        requests = []
        active = []
        neighbours = []
        for req, is_active, runs in self.ccx_inputs(ccx):
            if boost and is_active and req >= nominal_hz - 1e3:
                req = boost_ceiling_hz if boost_ceiling_hz > req else req
            requests.append(req)
            active.append(is_active)
            neighbours.append(req if runs else None)
        penalties: dict[tuple[float, float], float] = {}
        resolved = []
        for i, core in enumerate(ccx.cores):
            req = requests[i]
            limited = False
            if edc_cap_hz is not None and active[i] and req > edc_cap_hz:
                req = edc_cap_hz
                limited = True
            target = snap_to_pstate_grid(req)
            # max(others, default=0.0): the first of the largest.
            max_other = None
            for j, other in enumerate(neighbours):
                if j != i and other is not None and (
                    max_other is None or other > max_other
                ):
                    max_other = other
            if max_other is None:
                max_other = 0.0
            if edc_cap_hz is not None and edc_cap_hz < max_other:
                max_other = edc_cap_hz
            key = (target, max_other)
            penalty = penalties.get(key)
            if penalty is None:
                penalty = penalties[key] = self._coupling_penalty_hz(target, max_other)
            resolved.append(
                ResolvedCoreFrequency(core.global_index, target, target - penalty, limited)
            )
        return resolved

    def l3_target_hz(self, ccx: CCX) -> float:
        """L3 clock: the highest clock among cores whose clock runs.

        If every core in the CCX is gated (C1/C2), the L3 parks at the
        architecture floor (the PPR names 400 MHz as the minimum
        supported L3 frequency, §III-C).
        """
        highest = None
        for req, _, runs in self.ccx_inputs(ccx):
            if runs and (highest is None or req > highest):
                highest = req
        if highest is None:
            return 400e6
        return snap_to_pstate_grid(highest)

    # --- helpers -------------------------------------------------------------

    @staticmethod
    def _core_clock_runs(core: Core) -> bool:
        """True when the core clock is not gated (some thread in C0)."""
        if core.active_thread_count:
            return True
        t0, t1 = core.threads
        return (t0.effective_cstate == "C0" and t0.online) or (
            t1.effective_cstate == "C0" and t1.online
        )

    def _coupling_penalty_hz(self, set_hz: float, max_other_hz: float) -> float:
        """Table I penalty plus the small diagonal shortfalls."""
        cal = self.cal
        if max_other_hz > set_hz + 1e6:
            return cal.ccx_penalty_hz(set_hz, max_other_hz)
        # Diagonal / below: tiny shortfalls the paper's Table I shows even
        # without faster neighbours (1 MHz at 2.2/2.5 with equal others,
        # 3 MHz at 2.5 GHz with slower others).
        set_g = round(set_hz / 1e9, 3)
        if max_other_hz > 1e6 and abs(max_other_hz - set_hz) <= 1e6:
            for f_g, short_mhz in cal.ccx_equal_shortfall_mhz:
                if abs(set_g - f_g) < 1e-6:
                    return short_mhz * 1e6
            return 0.0
        if set_g == 2.5 and 0 < max_other_hz < set_hz:
            if max_other_hz < 2.0e9:
                return cal.set_2g5_slow_others_shortfall_mhz * 1e6
            return cal.set_2g5_mid_others_shortfall_mhz * 1e6
        return 0.0
