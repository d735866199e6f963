"""Runtime invariant sanitizer for a running :class:`~repro.machine.Machine`.

The static rules catch *code* that could go wrong; the monitor catches
*state* that did.  Attach it to a machine and it re-checks the physical
invariants after every event batch (``Simulator.run_until``) and every
steady-state settle (``Machine.reconfigured``):

1. **Power sanity** — every absolute breakdown term is non-negative,
   the I/O-die term (a deviation from the default fclk) lies between
   its lowest-fclk floor and 0, and the silicon share (C1 + active +
   dynamic + toggle power) fits inside the per-package PPT envelope
   with margin.
2. **P-state grid** — every applied core frequency lies on the 25 MHz
   P-state grid (or equals the current EDC cap in event mode) and within
   the SKU's [min P-state, boost ceiling] band.
3. **RAPL monotonicity** — energy counters only move forward (modulo
   the 32-bit wrap), never faster than physics allows, and never while
   the RAPL clock stands still.
4. **C-state legality** — effective states are known, active threads
   are in C0, offline threads park where the §VI-B quirk says they park.
5. **Energy ≈ ∫ power** — between two checks, the per-package RAPL
   energy delta implies a mean power consistent with the estimator's
   instantaneous power at the window edges (a wide band: its job is to
   catch unit errors — a ms/s mix-up is a 1000x miss — not model noise).

The monitor is opt-in and detachable; ``selfcheck`` runs with it
attached in collecting mode, so every CI run sweeps the invariants.
"""

from __future__ import annotations

from repro.cstate.states import depth_of
from repro.errors import InvariantViolation
from repro.units import (
    NS_PER_S,
    RAPL_COUNTER_WRAP,
    RAPL_ENERGY_UNIT_J,
    snap_to_pstate_grid,
)

#: Grid tolerance: well below the 25 MHz step but above float rounding.
_GRID_TOL_HZ = 1e3

_KNOWN_CSTATES = ("C0", "C1", "C2")


class InvariantMonitor:
    """Asserts the machine's physical invariants between event batches."""

    def __init__(
        self,
        machine,
        *,
        raise_on_violation: bool = True,
        power_envelope_margin: float = 1.25,
        energy_band_factor: float = 3.0,
        energy_band_abs_j: float = 5.0,
        obs=None,
    ) -> None:
        self.machine = machine
        self.raise_on_violation = raise_on_violation
        self.power_envelope_margin = power_envelope_margin
        self.energy_band_factor = energy_band_factor
        self.energy_band_abs_j = energy_band_abs_j
        self.checks_run = 0
        #: All violation messages ever observed (collecting mode).
        self.violations: list[str] = []
        self._attached = False
        # The baseline snapshot is taken lazily (at attach() or the
        # first check()): constructing a monitor used to run a full
        # estimator sweep even when monitoring never happened.
        self._baselined = False
        self._obs = None
        if obs is not None:
            self.attach_obs(obs)

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def attach(self) -> "InvariantMonitor":
        """Hook ``run_until`` and ``reconfigured`` to check after each."""
        if self._attached:
            return self
        if not self._baselined:
            self._snapshot()
            self._baselined = True
        machine, sim = self.machine, self.machine.sim
        self._orig_run_until = sim.run_until
        self._orig_reconfigured = machine.reconfigured

        def run_until_checked(time_ns: int) -> None:
            self._orig_run_until(time_ns)
            self.check()

        def reconfigured_checked() -> None:
            self._orig_reconfigured()
            self.check()

        sim.run_until = run_until_checked
        machine.reconfigured = reconfigured_checked
        self._attached = True
        return self

    def detach(self) -> None:
        """Remove the hooks; the machine behaves as before."""
        if not self._attached:
            return
        self.machine.sim.run_until = self._orig_run_until
        self.machine.reconfigured = self._orig_reconfigured
        self._attached = False

    def attach_obs(self, obs) -> None:
        """Mirror findings into a :class:`repro.obs.Obs` bundle.

        Each violation becomes a structured ``invariant.violation``
        instant with ``severity="error"`` on the machine's trace track
        (sim-time axis) when the machine is itself instrumented, else on
        the host track.
        """
        if obs is None:
            return
        self._obs = obs
        metrics = obs.metrics
        self._obs_checks = metrics.counter(
            "invariant.checks", "InvariantMonitor invariant sweeps", "checks"
        )
        self._obs_violations = metrics.counter(
            "invariant.violations", "Invariant violations observed", "violations"
        )

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------

    def check(self) -> list[str]:
        """Run every invariant; returns (and records) new violations.

        Checkers run independently: state corrupt enough to crash one
        checker (or the models it consults) is itself a violation, and
        must not mask what the remaining checkers would find.
        """
        if not self._baselined:
            self._snapshot()
            self._baselined = True
        found: list[str] = []
        for checker in (
            self._check_cstates,
            self._check_pstate_grid,
            self._check_rapl_monotonic,
            self._check_power_breakdown,
        ):
            try:
                checker(found)
            except Exception as err:  # noqa: BLE001 — report, don't mask
                found.append(f"{checker.__name__} crashed: {err!r}")
        try:
            self._snapshot()
        except Exception as err:  # noqa: BLE001
            found.append(f"state snapshot failed: {err!r}")
        self.checks_run += 1
        self.violations.extend(found)
        if self._obs is not None:
            self._obs_checks.inc()
            self._obs_violations.inc(len(found))
            track = getattr(self.machine, "_obs_track", None)
            for message in found:
                if track is not None:
                    self._obs.tracer.instant(
                        "invariant.violation",
                        cat="invariant",
                        track=track,
                        sim_ns=self.machine.sim.now_ns,
                        severity="error",
                        message=message,
                    )
                else:
                    self._obs.tracer.instant(
                        "invariant.violation",
                        cat="invariant",
                        severity="error",
                        message=message,
                    )
        if found:
            # Freeze the flight-recorder ring so the event tail leading
            # up to the violation survives (bundle written only when
            # $REPRO_FLIGHTREC_DIR is set; no-op otherwise).
            from repro.obs.flightrec import record_crash

            trace_id = None
            if self._obs is not None:
                trace_id = self._obs.tracer.trace_id
            record_crash(
                f"invariant-violation:{found[0]}", trace_id=trace_id
            )
        if found and self.raise_on_violation:
            raise InvariantViolation(found)
        return found

    def _snapshot(self) -> None:
        rapl = self.machine.rapl_msrs
        self._prev_pkg_raw = [counter.raw for counter in rapl.pkg]
        self._prev_core_raw = [counter.raw for counter in rapl.core]
        self._prev_update_ns = rapl.last_update_ns
        self._prev_est_pkg_w = self._estimator_pkg_powers()

    def _estimator_pkg_powers(self) -> list[float]:
        machine = self.machine
        return [
            machine.rapl_estimator.package_power_w(
                pkg,
                machine.thermal_state.temps_c[pkg.index],
                dram_traffic_gbs=machine.power_model.package_dram_traffic_gbs(pkg),
            )
            for pkg in machine.topology.packages
        ]

    # --- invariant 1: power breakdown ----------------------------------

    def _check_power_breakdown(self, found: list[str]) -> None:
        machine = self.machine
        bd = machine.power_model.breakdown(machine, machine.thermal_state.temps_c)
        for name in (
            "platform_base_w",
            "system_wake_w",
            "c1_cores_w",
            "active_cores_w",
            "workload_dynamic_w",
            "toggle_w",
            "dram_active_w",
            "leakage_w",
        ):
            value = getattr(bd, name)
            if value < -1e-9:
                found.append(f"power breakdown term {name} is negative ({value:.3f} W)")
        # iodie_w is each awake die's deviation from the Auto/DDR4-3200
        # fclk, the highest any mode yields, so it is never positive and
        # never below every die at its own calibration's lowest fclk
        # P-state.
        if machine.cstates.system_in_deep_sleep():
            if bd.iodie_w != 0.0:
                found.append(
                    f"power breakdown term iodie_w is {bd.iodie_w:.3f} W "
                    "while the system sleeps"
                )
        else:
            floor_w = sum(
                fc.extra_power_w(min(fc.cal.fclk_pstates_hz))
                for fc in machine.fclk_controllers
            )
            if not floor_w - 1e-9 <= bd.iodie_w <= 1e-9:
                found.append(
                    f"power breakdown term iodie_w is {bd.iodie_w:.3f} W, "
                    f"outside [{floor_w:.3f}, 0] W"
                )
        n_pkg = len(machine.topology.packages)
        silicon_w = bd.c1_cores_w + bd.active_cores_w + bd.workload_dynamic_w + bd.toggle_w
        envelope_w = n_pkg * machine.sku.ppt_w * self.power_envelope_margin
        if silicon_w > envelope_w:
            found.append(
                f"silicon power {silicon_w:.1f} W exceeds the PPT envelope "
                f"{envelope_w:.1f} W ({n_pkg} x {machine.sku.ppt_w:.0f} W "
                f"x {self.power_envelope_margin:g})"
            )

    # --- invariant 2: P-state grid -------------------------------------

    def _check_pstate_grid(self, found: list[str]) -> None:
        machine = self.machine
        freqs = machine.pstate_table.frequencies_hz()
        lo_hz = min(freqs) - _GRID_TOL_HZ
        hi_hz = max(max(freqs), machine.sku.boost_freq_hz) + _GRID_TOL_HZ
        for core in machine.topology.cores():
            f_hz = core.applied_freq_hz
            if not lo_hz <= f_hz <= hi_hz:
                found.append(
                    f"core {core.global_index} applied frequency "
                    f"{f_hz / 1e9:.4f} GHz outside [{lo_hz / 1e9:.3f}, "
                    f"{hi_hz / 1e9:.3f}] GHz"
                )
                continue
            cap_hz = machine.edc_cap_hz(core.package.index)
            on_grid = abs(f_hz - snap_to_pstate_grid(f_hz)) <= _GRID_TOL_HZ
            at_cap = cap_hz is not None and abs(f_hz - cap_hz) <= _GRID_TOL_HZ
            if not on_grid and not at_cap:
                found.append(
                    f"core {core.global_index} applied frequency "
                    f"{f_hz / 1e6:.3f} MHz is off the 25 MHz P-state grid"
                )

    # --- invariant 3 + 5: RAPL counters --------------------------------

    def _check_rapl_monotonic(self, found: list[str]) -> None:
        rapl = self.machine.rapl_msrs
        if rapl.last_update_ns < self._prev_update_ns:
            found.append(
                f"RAPL update clock moved backwards ({self._prev_update_ns} ns "
                f"-> {rapl.last_update_ns} ns)"
            )
            return
        dt_s = (rapl.last_update_ns - self._prev_update_ns) / NS_PER_S
        est_now_w = self._estimator_pkg_powers()
        for index, counter in enumerate(rapl.pkg):
            delta_j = (
                (counter.raw - self._prev_pkg_raw[index]) % RAPL_COUNTER_WRAP
            ) * RAPL_ENERGY_UNIT_J
            if delta_j == 0.0:
                continue
            if dt_s == 0.0:
                found.append(
                    f"RAPL pkg{index} counter advanced {delta_j:.3f} J while "
                    "the update clock stood still"
                )
                continue
            # Energy ~ integral of power: band around the estimator power
            # at the window edges (wide — catches unit errors, not noise).
            p_edge_w = max(self._prev_est_pkg_w[index], est_now_w[index], 1.0)
            ceiling_j = (
                self.energy_band_factor * p_edge_w * dt_s + self.energy_band_abs_j
            )
            if delta_j > ceiling_j:
                found.append(
                    f"RAPL pkg{index} deposited {delta_j:.1f} J over "
                    f"{dt_s:.3f} s but estimator power is {p_edge_w:.1f} W "
                    f"(ceiling {ceiling_j:.1f} J) — energy != integral of power"
                )
        for index, counter in enumerate(rapl.core):
            if counter.raw != self._prev_core_raw[index] and dt_s == 0.0:
                found.append(
                    f"RAPL core{index} counter advanced while the update "
                    "clock stood still"
                )
                break

    # --- invariant 4: C-state legality ---------------------------------

    def _check_cstates(self, found: list[str]) -> None:
        machine = self.machine
        parks_in = "C1" if machine.cstates.offline_parks_in_c1 else "C2"
        for thread in machine.topology.threads():
            state = thread.effective_cstate
            if state not in _KNOWN_CSTATES:
                found.append(
                    f"cpu{thread.cpu_id} in unknown C-state {state!r}"
                )
                continue
            if thread.is_active and state != "C0":
                found.append(
                    f"cpu{thread.cpu_id} runs a workload but sits in {state}"
                )
            if not thread.online and state != parks_in:
                found.append(
                    f"offline cpu{thread.cpu_id} in {state}, expected "
                    f"{parks_in} (offline_parks_in_c1="
                    f"{machine.cstates.offline_parks_in_c1})"
                )
            if thread.online and thread.workload is None:
                # An idle thread may be demoted (shallower than requested)
                # but never promoted deeper than the OS asked for.
                if depth_of(state) > depth_of(thread.requested_cstate):
                    found.append(
                        f"cpu{thread.cpu_id} sleeps deeper ({state}) than "
                        f"requested ({thread.requested_cstate})"
                    )
