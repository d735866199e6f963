"""Ground-truth system power model.

This model plays the role of *physics* in the reproduction: it is what
the (simulated) ZES LMG670 measures at the wall.  It must therefore
capture everything the paper shows the real machine doing — including the
effects AMD's RAPL model misses (DRAM power, operand-dependent toggling),
because those gaps are the finding of §VII.

Decomposition (constants in :mod:`repro.power.calibration`):

====================  =====================================================
term                  source
====================  =====================================================
platform base         Fig 7: 99.1 W all-C2 floor (with DRAM idle + package
                      sleep shares)
system wake           §VI-A: +81.2 W once any thread leaves C2
C1 cores              §VI-A: +0.09 W per clock-gated-but-awake core
active cores/threads  §VI-A: +0.33 W/core, +0.05 W/extra thread at 2.5 GHz,
                      scaled by V²f at other operating points
workload dynamic      per-core V²f-scaled activity power (Fig 6 totals)
toggle power          operand Hamming weight term (Fig 10a: 21 W spread)
DRAM active           per-GB/s DIMM power (invisible to RAPL, Fig 9a)
I/O die               fclk-dependent uncore power (Fig 5 power statement)
leakage               temperature-dependent, per package
====================  =====================================================
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields, replace

from repro.power.calibration import CALIBRATION, Calibration
from repro.topology.components import Core, Package
from repro.units import ghz


@dataclass(frozen=True)
class PowerBreakdown:
    """Itemized system power; ``total_w`` is what the AC meter sees."""

    platform_base_w: float
    system_wake_w: float
    c1_cores_w: float
    active_cores_w: float
    workload_dynamic_w: float
    toggle_w: float
    dram_active_w: float
    iodie_w: float
    leakage_w: float

    @property
    def total_w(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))


class PowerModel:
    """Computes :class:`PowerBreakdown` from live machine state.

    The model reads the same state the mechanisms maintain: effective
    C-states from the controller, applied frequencies from the cores,
    workload bindings from the threads, fclk from the I/O dies.

    When bound to its :class:`~repro.machine.Machine` (see :meth:`bind`),
    the temperature-independent part of :meth:`breakdown` and the
    per-package :meth:`package_dram_traffic_gbs` are memoized keyed on
    ``Machine.state_version``: every state mutation path (``reconfigured``,
    cpufreq requests, C-state refreshes, event-mode SMU transition
    completions) bumps the version, so a cache hit is exactly a repeat
    evaluation of unchanged state — ``measure()`` and the 1 ms RAPL tick
    stop recomputing the whole topology walk.  Unbound models (or calls
    with a foreign machine) always compute fresh.
    """

    def __init__(self, calibration: Calibration = CALIBRATION) -> None:
        self.cal = calibration
        self._machine_ref: weakref.ref | None = None
        self._bd_version: int | None = None
        self._bd_no_leak: PowerBreakdown | None = None
        self._traffic_version: int | None = None
        self._traffic: dict[int, float] = {}
        self._obs = None

    def bind(self, machine) -> None:
        """Enable ``state_version``-keyed memoization for ``machine``.

        Called once by ``Machine.__init__``; the reference is weak, so
        binding does not keep the machine alive.
        """
        self._machine_ref = weakref.ref(machine)
        self._bd_version = None
        self._traffic_version = None
        self._traffic.clear()

    def _bound_machine(self):
        return self._machine_ref() if self._machine_ref is not None else None

    def attach_obs(self, obs, machine: str = "") -> None:
        """Count memo hits/misses into a :class:`repro.obs.Obs` registry."""
        if obs is None:
            return
        metrics = obs.metrics
        help_bd = "breakdown() state_version memo lookups"
        help_tr = "package_dram_traffic_gbs() state_version memo lookups"
        self._obs_bd_hits = metrics.counter(
            "power.breakdown_memo", help_bd, "lookups", machine=machine, result="hit"
        )
        self._obs_bd_misses = metrics.counter(
            "power.breakdown_memo", help_bd, "lookups", machine=machine, result="miss"
        )
        self._obs_traffic_hits = metrics.counter(
            "power.traffic_memo", help_tr, "lookups", machine=machine, result="hit"
        )
        self._obs_traffic_misses = metrics.counter(
            "power.traffic_memo", help_tr, "lookups", machine=machine, result="miss"
        )
        self._obs = obs

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def core_dram_demand_gbs(self, core: Core) -> float:
        """DRAM traffic demand of one core's threads."""
        wl = core.active_workload
        if wl is None or wl.dram_gbs_1t == 0.0:
            return 0.0
        smt = core.active_thread_count
        # A second SMT thread adds ~30 % more outstanding traffic.
        return wl.dram_gbs_1t * (1.0 if smt == 1 else 1.3)

    def package_dram_traffic_gbs(self, pkg: Package) -> float:
        """Achieved DRAM traffic of a package (demand, capped).

        The cap is the four-quadrant DRAM ceiling; per-link limits are
        the bandwidth model's business and matter for *performance*
        (Fig 5), while for *power* the aggregate is sufficient.
        """
        machine = self._bound_machine()
        if machine is None:
            return self._compute_traffic_gbs(pkg)
        version = machine.state_version
        if version != self._traffic_version:
            self._traffic.clear()
            self._traffic_version = version
        cached = self._traffic.get(pkg.index)
        if cached is None:
            cached = self._compute_traffic_gbs(pkg)
            self._traffic[pkg.index] = cached
            if self._obs is not None:
                self._obs_traffic_misses.inc()
        elif self._obs is not None:
            self._obs_traffic_hits.inc()
        return cached

    def _compute_traffic_gbs(self, pkg: Package) -> float:
        demand = sum(self.core_dram_demand_gbs(core) for core in pkg.cores())
        memclk_ghz = pkg.io_die.memclk_hz / ghz(1)
        ceiling = 8 * 8.0 * 2.0 * memclk_ghz * self.cal.dram_channel_efficiency
        return min(demand, ceiling)

    # ------------------------------------------------------------------
    # the model
    # ------------------------------------------------------------------

    def breakdown(self, machine, pkg_temps_c: list[float] | None = None) -> PowerBreakdown:
        """Full-system power for the machine's current state.

        The temperature-independent terms are memoized per
        ``machine.state_version`` when the model is bound to ``machine``
        (see the class docstring); the leakage term is always evaluated
        fresh from ``pkg_temps_c``.
        """
        if machine is self._bound_machine():
            version = machine.state_version
            if version != self._bd_version:
                self._bd_no_leak = self._compute_breakdown(machine)
                self._bd_version = version
                if self._obs is not None:
                    self._obs_bd_misses.inc()
            elif self._obs is not None:
                self._obs_bd_hits.inc()
            bd = self._bd_no_leak
        else:
            bd = self._compute_breakdown(machine)
        if pkg_temps_c is None:
            return bd
        cal = self.cal
        leak_w = 0.0
        for temp in pkg_temps_c:
            leak_w += max(0.0, cal.leakage_w_per_k_pkg * (temp - cal.reference_temp_c))
        if leak_w == 0.0:
            return bd
        return replace(bd, leakage_w=leak_w)

    def _compute_breakdown(self, machine) -> PowerBreakdown:
        """The full topology walk (leakage excluded; see :meth:`breakdown`)."""
        cal = self.cal
        topo = machine.topology
        cstates = machine.cstates
        n_pkg = len(topo.packages)

        platform = cal.platform_base_w + cal.dram_idle_w + n_pkg * cal.package_sleep_w

        wake = 0.0 if cstates.system_in_deep_sleep() else cal.system_wake_w

        # C1 cores: clock-gated but voltage-plane-awake cores.
        c1_cores = sum(
            1 for core in topo.cores() if core.deepest_common_cstate_is == "C1"
        )
        c1_w = c1_cores * cal.c1_per_core_w

        # Per-package silicon variation multipliers (1.0 by default).
        factors = getattr(machine, "pkg_power_factors", None)

        active_w = 0.0
        dyn_w = 0.0
        toggle_w = 0.0
        any_active = False
        for core in topo.cores():
            smt = core.active_thread_count
            if smt == 0:
                continue
            any_active = True
            scale = cal.v2f_scale(core.applied_freq_hz)
            if factors is not None:
                scale *= factors[core.package.index]
            active_w += cal.pause_core_nominal_w * scale
            if smt == 2:
                active_w += cal.pause_thread_nominal_w * scale
            wl = core.active_workload
            if wl is not None:
                dyn_w += wl.power_coeff(smt) * cal.dyn_w_per_v2ghz * scale
                if wl.toggle_width_bits:
                    toggle_w += (
                        cal.toggle_w_per_v2ghz_256b
                        * wl.toggle_rate
                        * (wl.toggle_width_bits / 256.0)
                        * scale
                    )
        if any_active:
            # The first-core adjustment is negative; at low frequencies it
            # can exceed a lone core's pause power.  Active power is
            # physically non-negative, so clamp.
            active_w = max(0.0, active_w + cal.active_first_core_adjust_w)

        dram_w = sum(
            cal.dram_w_per_gbs * self.package_dram_traffic_gbs(pkg)
            for pkg in topo.packages
        )

        iodie_w = 0.0
        if wake > 0.0:
            # I/O-die fclk power only flows while the system is awake.
            iodie_w = sum(fc.extra_power_w() for fc in machine.fclk_controllers)

        return PowerBreakdown(
            platform_base_w=platform,
            system_wake_w=wake,
            c1_cores_w=c1_w,
            active_cores_w=active_w,
            workload_dynamic_w=dyn_w,
            toggle_w=toggle_w,
            dram_active_w=dram_w,
            iodie_w=iodie_w,
            leakage_w=0.0,
        )

    def system_power_w(self, machine, pkg_temps_c: list[float] | None = None) -> float:
        """Total AC power (the quantity the LMG670 samples)."""
        return self.breakdown(machine, pkg_temps_c).total_w

    def package_power_w(self, machine, pkg: Package, pkg_temps_c: list[float] | None = None) -> float:
        """One package's DC power share — input to the thermal model.

        Splits the breakdown: per-core terms attribute to their package,
        system-level terms split evenly.
        """
        # Only the temperature-independent shared terms are needed here
        # (this package's leakage is added from its own temperature below).
        bd = self.breakdown(machine, None)
        n_pkg = len(machine.topology.packages)
        shared = (bd.system_wake_w * 0.6 + bd.iodie_w) / n_pkg

        cal = self.cal
        core_w = 0.0
        for core in pkg.cores():
            smt = core.active_thread_count
            if core.deepest_common_cstate_is == "C1":
                core_w += cal.c1_per_core_w
            if smt == 0:
                continue
            scale = cal.v2f_scale(core.applied_freq_hz)
            core_w += cal.pause_core_nominal_w * scale
            if smt == 2:
                core_w += cal.pause_thread_nominal_w * scale
            wl = core.active_workload
            if wl is not None:
                core_w += wl.power_coeff(smt) * cal.dyn_w_per_v2ghz * scale
                if wl.toggle_width_bits:
                    core_w += (
                        cal.toggle_w_per_v2ghz_256b
                        * wl.toggle_rate
                        * (wl.toggle_width_bits / 256.0)
                        * scale
                    )
        pkg_idx = pkg.index
        leak = 0.0
        if pkg_temps_c is not None and pkg_idx < len(pkg_temps_c):
            leak = max(
                0.0,
                cal.leakage_w_per_k_pkg * (pkg_temps_c[pkg_idx] - cal.reference_temp_c),
            )
        return core_w + shared + leak + cal.package_sleep_w
