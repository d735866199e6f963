"""The simulated test system (DESIGN.md §1's global substitution).

:class:`Machine` assembles topology, SMUs, C-state control, the I/O-die
fclk controllers, the ground-truth power model, the RAPL estimator+MSRs,
the OS facade and the external power analyzer into one object that
behaves — through its OS/MSR interfaces — like the paper's dual EPYC 7502
server.

Two operating modes coexist (DESIGN.md §2.9):

* **steady-state** (default): every configuration change calls
  :meth:`changed`, which settles the machine (:meth:`reconfigured`) at
  once; inside a :meth:`batch` scope the settle runs once, at the
  outermost scope's exit, and reads of applied frequencies, caps and
  observable means see the last settle until then.  :meth:`measure`
  integrates instruments over a whole interval analytically.  All
  power/RAPL experiments use this.
* **event-driven**: with :attr:`event_driven` set, cpufreq writes route
  through the SMU transition engine with its 1 ms slots, and RAPL MSRs
  update on their 1 ms grid — the timing experiments (Figs 3, 8, the
  RAPL update-rate test) run here with microsecond resolution.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.cstate.controller import CStateController
from repro.errors import ConvergenceWarning
from repro.cstate.package import PackageSleepResolver
from repro.cstate.states import CSTATE_BASE_IO_ADDRESS
from repro.cstate.wakeup import WakeupModel
from repro.instruments.lmg670 import Lmg670
from repro.instruments.timeline import PowerSeries, inner_window_mean
from repro.iodie.fclk import FclkController, FclkMode
from repro.memory.bandwidth import BandwidthModel
from repro.memory.dram import dram_by_name
from repro.memory.latency import LatencyModel
from repro.msr.definitions import (
    MSR_APERF,
    MSR_CORE_ENERGY_STAT,
    MSR_CSTATE_BASE_ADDR,
    MSR_MPERF,
    MSR_PKG_ENERGY_STAT,
    MSR_PSTATE_CUR_LIM,
    MSR_RAPL_PWR_UNIT,
    pstate_msr_address,
)
from repro.msr.registers import MsrFile
from repro.oslayer.cpuidle import MenuGovernor
from repro.oslayer.interrupts import InterruptModel
from repro.oslayer.kernel import Kernel
from repro.oslayer.tracing import TraceBuffer
from repro.power.calibration import CALIBRATION, Calibration
from repro.power.model import PowerModel
from repro.power.thermal import ThermalModel, ThermalState
from repro.pstate.boost import BoostModel
from repro.pstate.resolver import FrequencyResolver
from repro.pstate.table import PStateTable, encode_pstate_msr
from repro.rapl.estimator import RaplEstimator
from repro.rapl.msrs import RaplMsrs, encode_rapl_power_unit
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.smu.smu import MasterSmu
from repro.topology.components import Core, HardwareThread
from repro.topology.skus import SKU, build_topology, sku_by_name
from repro.units import NS_PER_S, s as seconds


@dataclass
class Quirks:
    """Behaviour switches for the paper's Rome-specific observations.

    Defaults are the behaviours measured on the test system; flipping
    them gives the Intel-like baselines the paper compares against.
    """

    #: §V-A: idle/offline sibling threads vote on the core frequency.
    offline_threads_vote_on_frequency: bool = True
    #: §VI-B: offlined threads park in C1, blocking system sleep.
    offline_parks_in_c1: bool = True


@dataclass
class MeasurementRecord:
    """Everything one 10 s measurement interval produces (§IV workflow)."""

    duration_s: float
    ac: PowerSeries
    rapl_pkg_w: list[float]
    rapl_core_w: list[float]
    pkg_temps_c: list[float]
    true_power_w: float
    breakdown: dict = field(default_factory=dict)

    @property
    def ac_mean_w(self) -> float:
        """The paper's inner-window average of the AC trace."""
        return inner_window_mean(self.ac)

    @property
    def rapl_pkg_total_w(self) -> float:
        return float(sum(self.rapl_pkg_w))


class Machine:
    """The simulated dual-socket Rome server."""

    def __init__(
        self,
        sku: SKU | str = "EPYC 7502",
        *,
        n_packages: int = 2,
        seed: int = 0,
        calibration: Calibration = CALIBRATION,
        quirks: Quirks | None = None,
        fclk_mode: FclkMode = FclkMode.AUTO,
        dram: str = "DDR4-3200",
        boost_enabled: bool = False,
        variation_sigma: float = 0.0,
        obs=None,
    ) -> None:
        self.sku = sku_by_name(sku) if isinstance(sku, str) else sku
        self.cal = calibration
        self.quirks = quirks if quirks is not None else Quirks()
        self.rng = RngFactory(seed)
        self.sim = Simulator()
        self.topology = build_topology(self.sku, n_packages)

        self.cstates = CStateController(
            self.topology, offline_parks_in_c1=self.quirks.offline_parks_in_c1
        )
        self.sleep = PackageSleepResolver(self.topology, self.cstates)
        self.resolver = FrequencyResolver(
            calibration,
            offline_threads_vote=self.quirks.offline_threads_vote_on_frequency,
        )
        self.smus = [
            MasterSmu(
                self.sim,
                pkg,
                self.sku.edc_limit_a,
                calibration,
                ppt_limit_w=self.sku.ppt_w,
            )
            for pkg in self.topology.packages
        ]
        dram_cfg = dram_by_name(dram)
        for pkg in self.topology.packages:
            pkg.io_die.memclk_hz = dram_cfg.memclk_hz
        self.fclk_controllers = [
            FclkController(pkg.io_die, calibration) for pkg in self.topology.packages
        ]
        for fc in self.fclk_controllers:
            fc.apply(fclk_mode)

        # Manufacturing variation (§VI-A: "the reported numbers ... depend
        # on the processor model, processor variations, and other
        # components"): per-package multipliers on the silicon-dependent
        # power terms, drawn once per machine.
        if variation_sigma > 0.0:
            draws = self.rng.child("pkg-variation").normal(
                1.0, variation_sigma, size=n_packages
            )
            self.pkg_power_factors = [float(max(0.7, d)) for d in draws]
        else:
            self.pkg_power_factors = [1.0] * n_packages

        self.power_model = PowerModel(calibration)
        self.thermal = ThermalModel(calibration)
        self.thermal_state = ThermalState.ambient(n_packages, calibration)
        self.rapl_estimator = RaplEstimator(calibration)
        self.rapl_msrs = RaplMsrs(n_packages, self.topology.n_cores, calibration)
        self.wakeup = WakeupModel(calibration, self.rng.child("wakeup"))
        self.latency_model = LatencyModel(calibration)
        self.bandwidth_model = BandwidthModel(calibration)

        self.pstate_table = PStateTable.from_frequencies(
            list(self.sku.available_freqs_hz), calibration.voltage_at
        )
        self.boost = BoostModel(self.sku, enabled=boost_enabled)
        self.msr = MsrFile()
        self._wire_msrs()

        self.os = Kernel(self)
        self.interrupts = InterruptModel()
        self.cstates.governor = MenuGovernor(self.interrupts)
        self.trace = TraceBuffer()
        self.ac_meter = Lmg670(self.rng.child("lmg670"), calibration)
        self._rapl_noise = self.rng.child("rapl-model")

        #: Open :meth:`batch` scopes, and whether one owes a settle.
        self._batch_depth = 0
        self._settle_pending = False
        #: Event-driven mode flag (see module docstring).
        self.event_driven = False
        self._rapl_tick_task = None
        self._observable_mean_hz: dict[int, float] = {}
        self._edc_caps: list[float | None] = [None] * n_packages

        # Observability (repro.obs): None unless an *enabled* bundle is
        # attached, so instrumented paths cost one identity check.
        self._obs = None
        self._obs_track = None
        if obs is not None:
            self.attach_obs(obs)

        self.cstates.refresh()
        self.reconfigured()

    def attach_obs(self, obs) -> None:
        """Instrument this machine with a :class:`repro.obs.Obs` bundle.

        Assigns the machine its own trace track, instruments the
        simulator dispatch loop, bridges
        :class:`~repro.oslayer.tracing.TraceBuffer` tracepoints onto the
        exported timeline, and registers measure, settle and preheat
        metrics.
        ``None`` leaves the machine uninstrumented.
        """
        from repro.obs import COUNT_BUCKETS

        if obs is None:
            return
        tracer = obs.tracer
        track = tracer.new_track("machine")
        self._obs = obs
        self._obs_track = track
        self.sim.attach_obs(obs, track=track)

        metrics = obs.metrics
        self._obs_measures = metrics.counter(
            "machine.measures",
            "Completed measure() intervals",
            "intervals",
            machine=track,
        )
        self._obs_settles = metrics.counter(
            "machine.settles",
            "Steady-state settles (reconfigured() passes)",
            "settles",
            machine=track,
        )
        self._obs_preheat_sweeps = metrics.histogram(
            "machine.preheat_sweeps",
            "Gauss-Seidel sweeps until thermal fixed-point convergence",
            "sweeps",
            buckets=COUNT_BUCKETS,
            machine=track,
        )
        help_ph = "preheat() fixed-point runs by convergence outcome"
        self._obs_preheat_conv = metrics.counter(
            "machine.preheats", help_ph, "runs", machine=track, converged="true"
        )
        self._obs_preheat_unconv = metrics.counter(
            "machine.preheats", help_ph, "runs", machine=track, converged="false"
        )

        def _bridge(time_ns, name, cpu_id, payload, _tracer=tracer, _track=track):
            _tracer.instant(
                name,
                cat="tracepoint",
                track=_track,
                sim_ns=time_ns,
                cpu=cpu_id,
                **payload,
            )

        self.trace.sink = _bridge

    # ------------------------------------------------------------------
    # MSR wiring
    # ------------------------------------------------------------------

    def _wire_msrs(self) -> None:
        msr = self.msr
        msr.register_static(MSR_RAPL_PWR_UNIT, encode_rapl_power_unit())
        msr.register_static(MSR_PSTATE_CUR_LIM, self.pstate_table.current_limit)
        msr.register_static(MSR_CSTATE_BASE_ADDR, CSTATE_BASE_IO_ADDRESS)
        for ps in self.pstate_table:
            msr.register_static(pstate_msr_address(ps.index), encode_pstate_msr(ps))
        msr.register(MSR_PKG_ENERGY_STAT, self._read_pkg_energy)
        msr.register(MSR_CORE_ENERGY_STAT, self._read_core_energy)
        msr.register(MSR_APERF, lambda cpu: int(self._thread(cpu).aperf_cycles))
        msr.register(MSR_MPERF, lambda cpu: int(self._thread(cpu).mperf_cycles))

    def _thread(self, cpu_id: int) -> HardwareThread:
        return self.topology.thread(cpu_id)

    def _read_pkg_energy(self, cpu_id: int) -> int:
        pkg = self._thread(cpu_id).core.package
        return self.rapl_msrs.read_pkg_raw(pkg.index)

    def _read_core_energy(self, cpu_id: int) -> int:
        core = self._thread(cpu_id).core
        return self.rapl_msrs.read_core_raw(core.global_index)

    # ------------------------------------------------------------------
    # configuration / resolution
    # ------------------------------------------------------------------

    def on_freq_request(self, thread: HardwareThread) -> None:
        """cpufreq callback: a logical CPU's request changed."""
        if self.event_driven:
            core = thread.core
            target = self.resolver.core_request_hz(core)
            pkg = core.package
            cap = self._edc_caps[pkg.index]
            if cap is not None and core.has_active_thread:
                target = min(target, cap)
            self.smus[pkg.index].transitions.request(core, target)
        else:
            self.changed()

    def changed(self) -> None:
        """A settle input changed: settle now, or at the batch's exit.

        Outside :meth:`batch` this is :meth:`reconfigured`.  Inside, it
        marks the settle pending.
        """
        if self._batch_depth:
            self._settle_pending = True
        else:
            self.reconfigured()

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Defer settles to the end of the scope: one settle, not one per write.

        Scopes nest.  The outermost exit settles once if a :meth:`changed`
        call is pending, also when the body raised.  Until then, applied
        frequencies, caps and observable means are those of the last
        settle.  Event-mode cpufreq requests do not settle, so they keep
        their per-request semantics inside a batch.
        """
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            if not self._batch_depth and self._settle_pending:
                self.reconfigured()

    def reconfigured(self) -> None:
        """Settle the machine after any configuration change.

        Runs the EDC loop per package, resolves frequencies once per
        distinct CCX input, applies them (instantly, steady-state semantics) and updates the
        L3 and observable-mean caches.  Configuration writers call
        :meth:`changed` instead, which batches settles.
        """
        if self._obs is not None:
            self._obs_settles.inc()
        self._settle_pending = False
        self._observable_mean_hz.clear()
        resolver = self.resolver
        # Per distinct (cap, boost ceiling, CCX inputs): each position's
        # target and observable mean, and the L3 clock.  Lives for this
        # settle only.
        settled_ccx: dict = {}
        for pkg, smu in zip(self.topology.packages, self.smus):
            temp_c = self.thermal_state.temps_c[pkg.index]
            boost_decision = self.boost.ceiling_hz(pkg, temp_c)
            inputs = [resolver.ccx_inputs(ccx) for ccx in pkg.ccxs()]
            active_requests = [
                self.boost.boosted_target_hz(vote, boost_decision)
                for ccx_inputs in inputs
                for vote, active, _ in ccx_inputs
                if active
            ]
            cap = None
            if active_requests:
                requested = max(active_requests)
                smu.run_edc_loop(requested)
                smu.run_ppt_loop(
                    requested,
                    temp_c,
                    self.power_model.package_dram_traffic_gbs(pkg),
                )
                cap = smu.combined_cap_hz
            self._edc_caps[pkg.index] = cap
            boost_ceiling = boost_decision.ceiling_hz if self.boost.enabled else None
            for ccx, ccx_inputs in zip(pkg.ccxs(), inputs):
                key = (cap, boost_ceiling, ccx_inputs)
                settled = settled_ccx.get(key)
                if settled is None:
                    resolved = resolver.resolve_ccx(
                        ccx,
                        edc_cap_hz=cap,
                        boost_ceiling_hz=boost_ceiling,
                        nominal_hz=self.sku.nominal_freq_hz,
                    )
                    settled = settled_ccx[key] = (
                        [(res.target_hz, res.observable_mean_hz) for res in resolved],
                        resolver.l3_target_hz(ccx),
                    )
                clocks, l3_hz = settled
                for core, (target_hz, mean_hz) in zip(ccx.cores, clocks):
                    if not self.event_driven:
                        core.applied_freq_hz = target_hz
                    self._observable_mean_hz[core.global_index] = mean_hz
                ccx.l3_freq_hz = l3_hz

    def observable_mean_hz(self, core: Core) -> float:
        """Time-averaged clock a perf observer sees for ``core``."""
        cached = self._observable_mean_hz.get(core.global_index)
        if cached is not None and not self.event_driven:
            return cached
        # Event mode: derive from the currently applied frequency.
        return core.applied_freq_hz

    def edc_cap_hz(self, pkg_index: int) -> float | None:
        """The EDC frequency cap currently applied to a package."""
        return self._edc_caps[pkg_index]

    # ------------------------------------------------------------------
    # event-driven helpers
    # ------------------------------------------------------------------

    def enable_event_mode(self, *, rapl_ticks: bool = False) -> None:
        """Switch to event-driven semantics (timing experiments)."""
        self.event_driven = True
        if rapl_ticks and self._rapl_tick_task is None:
            self._rapl_tick_task = self.sim.periodic(
                self.cal.rapl_update_period_ns, self._rapl_tick
            )

    def disable_event_mode(self) -> None:
        """Back to steady-state semantics; settles outstanding state."""
        self.event_driven = False
        if self._rapl_tick_task is not None:
            self._rapl_tick_task.cancel()
            self._rapl_tick_task = None
        self.reconfigured()

    def _rapl_tick(self) -> None:
        # A bulk-accounted measure() interval may already cover this tick's
        # span; depositing again would double-count (and run time backwards).
        if self.sim.now_ns <= self.rapl_msrs.last_update_ns:
            return
        pkg_powers = [
            self.rapl_estimator.package_power_w(
                pkg,
                self.thermal_state.temps_c[pkg.index],
                dram_traffic_gbs=self.power_model.package_dram_traffic_gbs(pkg),
            )
            for pkg in self.topology.packages
        ]
        core_powers = self.rapl_estimator.core_domain_w(self.topology.packages)
        self.rapl_msrs.tick(pkg_powers, core_powers, self.sim.now_ns)

    # ------------------------------------------------------------------
    # thermal
    # ------------------------------------------------------------------

    #: Convergence knobs for the power<->temperature fixed point.  The
    #: 0.01 K tolerance is far below every acceptance band (0.01 K of
    #: package leakage is ~2 mW); the 4-sweep floor matches the legacy
    #: iteration count, keeping results bit-identical at calibrations
    #: where 4 sweeps already converge (the default contraction ratio is
    #: thermal_resistance_k_per_w * leakage_w_per_k_pkg ~= 0.053).
    PREHEAT_TOL_C = 0.01
    PREHEAT_MIN_SWEEPS = 4
    PREHEAT_MAX_SWEEPS = 64

    def preheat(
        self,
        *,
        tol_c: float = PREHEAT_TOL_C,
        max_sweeps: int = PREHEAT_MAX_SWEEPS,
    ) -> float:
        """Settle package temperatures at equilibrium (§V-E's 15 min).

        Power and temperature are mutually dependent — leakage rises
        with temperature, equilibrium temperature rises with power — so
        the steady state is a fixed point, iterated in Gauss-Seidel
        sweeps over the packages until the largest per-sweep temperature
        change drops to ``tol_c`` (at most ``max_sweeps``).  A fixed
        sweep count is *not* sufficient in general: the contraction
        ratio ``thermal_resistance_k_per_w * leakage_w_per_k_pkg``
        approaches 1 at strongly leaky calibrations (and >= 1 means
        thermal runaway with no stable equilibrium at all), so exiting
        unconverged now raises :class:`~repro.errors.ConvergenceWarning`
        instead of silently skewing the leakage term.

        Returns the last sweep's maximum temperature change in K.
        """
        temps = self.thermal_state.temps_c
        delta_c = 0.0
        sweeps = 0
        converged = False
        for sweep in range(1, max_sweeps + 1):
            sweeps = sweep
            delta_c = 0.0
            for pkg in self.topology.packages:
                p = self.power_model.package_power_w(self, pkg, temps)
                new_t = self.thermal.equilibrium_c(p)
                delta_c = max(delta_c, abs(new_t - temps[pkg.index]))
                temps[pkg.index] = new_t
            if sweep >= self.PREHEAT_MIN_SWEEPS and delta_c <= tol_c:
                converged = True
                break
        if not converged:
            warnings.warn(
                f"preheat did not converge: last sweep still moved temperatures "
                f"by {delta_c:.3g} K (> {tol_c:.3g} K tolerance) after "
                f"{max_sweeps} sweeps; the calibration's leakage-thermal "
                f"contraction ratio is "
                f"{self.cal.thermal_resistance_k_per_w * self.cal.leakage_w_per_k_pkg:.3g}",
                ConvergenceWarning,
                stacklevel=2,
            )
        if self._obs is not None:
            self._obs_preheat_sweeps.observe(sweeps)
            if converged:
                self._obs_preheat_conv.inc()
            else:
                self._obs_preheat_unconv.inc()
        return delta_c

    # ------------------------------------------------------------------
    # steady-state measurement (the §IV 10 s interval workflow)
    # ------------------------------------------------------------------

    def measure(self, duration_s: float = 10.0) -> MeasurementRecord:
        """Run the current configuration for ``duration_s`` and record.

        Follows the paper's procedure: the AC analyzer samples at
        20 Sa/s out-of-band; RAPL counters integrate the SMU model; the
        analysis later applies the inner-window averaging rule.
        """
        if self._obs is None:
            return self._measure_impl(duration_s)
        tracer = self._obs.tracer
        tracer.begin(
            "machine.measure",
            cat="machine",
            sim_ns=self.sim.now_ns,
            machine=self._obs_track,
            duration_s=duration_s,
        )
        try:
            return self._measure_impl(duration_s)
        finally:
            tracer.end(sim_ns=self.sim.now_ns)
            self._obs_measures.inc()

    def _measure_impl(self, duration_s: float) -> MeasurementRecord:
        temps0 = list(self.thermal_state.temps_c)
        # Temperature trajectory under current power (one-step coupling:
        # power evaluated at initial temps drives the trajectory).
        n_samples = max(1, int(round(duration_s * self.ac_meter.sample_rate_hz)))
        sample_times = np.arange(n_samples) / self.ac_meter.sample_rate_hz

        packages = self.topology.packages
        pkg_powers0 = [
            self.power_model.package_power_w(self, pkg, temps0) for pkg in packages
        ]
        trajectories = self.thermal.trajectories_c(temps0, pkg_powers0, sample_times)

        # True AC power at each sample instant (leakage follows temps).
        base_bd = self.power_model.breakdown(self, None)
        base_w = base_bd.total_w
        leak = np.zeros(n_samples)
        for traj in trajectories:
            leak += np.maximum(
                0.0, self.cal.leakage_w_per_k_pkg * (traj - self.cal.reference_temp_c)
            )
        true_series = base_w + leak
        ac = self.ac_meter.measure_series(true_series)

        # RAPL: estimator power integrated over the interval (per package
        # and per core), with small model noise, deposited in bulk.
        # The noise draws of one call are the same numbers, in the same
        # order, as one scalar draw per package and then per core.
        mean_temps = [float(np.mean(traj)) for traj in trajectories]
        pkg_noise = self._rapl_noise.normal(0.0, 0.05, size=len(packages)).tolist()
        rapl_pkg_w = []
        for pkg, noise in zip(packages, pkg_noise):
            traffic = self.power_model.package_dram_traffic_gbs(pkg)
            p = self.rapl_estimator.package_power_w(
                pkg, mean_temps[pkg.index], dram_traffic_gbs=traffic
            )
            p += noise
            rapl_pkg_w.append(max(0.0, p))
        core_w = self.rapl_estimator.core_domain_w(packages, mean_temps)
        core_noise = self._rapl_noise.normal(0.0, 0.004, size=len(core_w)).tolist()
        rapl_core_w = [max(0.0, p + noise) for p, noise in zip(core_w, core_noise)]
        self.rapl_msrs.advance_bulk(
            [p * duration_s for p in rapl_pkg_w],
            [p * duration_s for p in rapl_core_w],
            seconds(duration_s),
        )

        # Advance counters, thermals and the wall clock.
        self._advance_perf_counters(duration_s)
        for i, traj in enumerate(trajectories):
            self.thermal_state.temps_c[i] = float(traj[-1])
        self.sim.run_for(seconds(duration_s))

        return MeasurementRecord(
            duration_s=duration_s,
            ac=ac,
            rapl_pkg_w=rapl_pkg_w,
            rapl_core_w=rapl_core_w,
            pkg_temps_c=list(self.thermal_state.temps_c),
            true_power_w=float(np.mean(true_series)),
            breakdown={
                "platform_base_w": base_bd.platform_base_w,
                "system_wake_w": base_bd.system_wake_w,
                "c1_cores_w": base_bd.c1_cores_w,
                "active_cores_w": base_bd.active_cores_w,
                "workload_dynamic_w": base_bd.workload_dynamic_w,
                "toggle_w": base_bd.toggle_w,
                "dram_active_w": base_bd.dram_active_w,
                "iodie_w": base_bd.iodie_w,
                "leakage_w": float(np.mean(leak)),
            },
        )

    def _advance_perf_counters(self, duration_s: float) -> None:
        """Accumulate aperf/mperf/instruction counters over an interval."""
        residency = duration_s * 1e9  # ns, a float like cstate_time_ns
        usage = max(1, int(duration_s * 4))
        mperf = self.cal.nominal_freq_hz * duration_s
        # Per distinct (observable clock, SMT count, thread workload):
        # the aperf and instruction increments of an active thread.
        by_point: dict[tuple, tuple[float, float]] = {}
        for core in self.topology.cores():
            smt = core.active_thread_count
            mean_hz = self.observable_mean_hz(core) if smt else None
            for thread in core.threads:
                # Residency accounting runs for every thread (offline
                # threads parked in C1 still accrue C1 time — §VI-B's
                # smoking gun).
                state = thread.effective_cstate
                thread.cstate_time_ns[state] += residency
                if state != "C0":
                    thread.cstate_usage[state] += usage
                if not thread.online:
                    continue
                workload = thread.workload
                if workload is not None:
                    key = (mean_hz, smt, id(workload))
                    increments = by_point.get(key)
                    if increments is None:
                        increments = by_point[key] = (
                            mean_hz * duration_s,
                            workload.ipc(smt) / smt * mean_hz * duration_s,
                        )
                    thread.aperf_cycles += increments[0]
                    thread.mperf_cycles += mperf
                    thread.instructions += increments[1]
                elif state == "C0":
                    thread.aperf_cycles += core.applied_freq_hz * duration_s
                    thread.mperf_cycles += mperf
                # C1/C2: counters halted (§VI-A observation).

    # ------------------------------------------------------------------
    # BIOS-level reconfiguration
    # ------------------------------------------------------------------

    def set_fclk_mode(self, mode: FclkMode) -> None:
        """BIOS I/O-die P-state option (applies to both sockets)."""
        for fc in self.fclk_controllers:
            fc.apply(mode)
        self.changed()

    def set_power_limit_w(self, limit_w: float) -> None:
        """Operator power cap per package (the §II-B capping interface).

        The SMU enforces it against its *modelled* power — see
        :mod:`repro.smu.ppt` for why the wall may disagree.
        """
        for smu in self.smus:
            smu.ppt.limit_w = limit_w
        self.changed()

    def set_dram(self, name: str) -> None:
        """BIOS DRAM speed-grade option."""
        cfg = dram_by_name(name)
        for pkg, fc in zip(self.topology.packages, self.fclk_controllers):
            pkg.io_die.memclk_hz = cfg.memclk_hz
            fc.on_memclk_change()
        self.changed()

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Cancel periodic machinery."""
        for smu in self.smus:
            smu.shutdown()
        if self._rapl_tick_task is not None:
            self._rapl_tick_task.cancel()
            self._rapl_tick_task = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Machine {self.sku.name} x{len(self.topology.packages)} "
            f"@{self.sim.now_ns / NS_PER_S:.3f}s>"
        )
