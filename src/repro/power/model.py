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

from dataclasses import dataclass, fields

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
    workload bindings from the threads, fclk from the I/O dies.  It keeps
    no state of its own, so every figure is that of the state at the
    call, however the state got there.
    """

    def __init__(self, calibration: Calibration = CALIBRATION) -> None:
        self.cal = calibration

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
        demand = sum(self.core_dram_demand_gbs(core) for core in pkg.cores())
        memclk_ghz = pkg.io_die.memclk_hz / ghz(1)
        ceiling = 8 * 8.0 * 2.0 * memclk_ghz * self.cal.dram_channel_efficiency
        return min(demand, ceiling)

    def _wake_and_iodie_w(self, machine) -> tuple[float, float]:
        """The system-wake and I/O-die terms, shared by all packages."""
        wake = 0.0 if machine.cstates.system_in_deep_sleep() else self.cal.system_wake_w
        iodie_w = 0.0
        if wake > 0.0:
            # I/O-die fclk power only flows while the system is awake.
            iodie_w = sum(fc.extra_power_w() for fc in machine.fclk_controllers)
        return wake, iodie_w

    def _core_terms_w(
        self, freq_hz: float, smt: int, wl, factor: float | None = None
    ) -> tuple[float, float | None, float | None, float | None]:
        """An active core's pause, second-thread, dynamic and toggle power.

        A term the core does not draw is None.  ``factor`` is the
        package's silicon-variation multiplier on the V²f scale.
        """
        cal = self.cal
        scale = cal.v2f_scale(freq_hz)
        if factor is not None:
            scale *= factor
        pause_w = cal.pause_core_nominal_w * scale
        thread_w = cal.pause_thread_nominal_w * scale if smt == 2 else None
        dyn_w = toggle_w = None
        if wl is not None:
            dyn_w = wl.power_coeff(smt) * cal.dyn_w_per_v2ghz * scale
            if wl.toggle_width_bits:
                toggle_w = (
                    cal.toggle_w_per_v2ghz_256b
                    * wl.toggle_rate
                    * (wl.toggle_width_bits / 256.0)
                    * scale
                )
        return pause_w, thread_w, dyn_w, toggle_w

    # ------------------------------------------------------------------
    # the model
    # ------------------------------------------------------------------

    def breakdown(self, machine, pkg_temps_c: list[float] | None = None) -> PowerBreakdown:
        """Full-system power for the machine's current state.

        Leakage is evaluated from ``pkg_temps_c``; without temperatures
        it is 0.
        """
        cal = self.cal
        topo = machine.topology
        n_pkg = len(topo.packages)

        platform = cal.platform_base_w + cal.dram_idle_w + n_pkg * cal.package_sleep_w

        wake, iodie_w = self._wake_and_iodie_w(machine)

        # Per-package silicon variation multipliers (1.0 by default).
        factors = getattr(machine, "pkg_power_factors", None)

        # C1 cores: clock-gated but voltage-plane-awake cores.
        c1_cores = 0
        active_w = 0.0
        dyn_w = 0.0
        toggle_w = 0.0
        any_active = False
        # Per distinct (operating point, package) of an active core: its
        # pause, second-thread, dynamic and toggle terms.
        by_point: dict[tuple, tuple] = {}
        for pkg in topo.packages:
            factor = None if factors is None else factors[pkg.index]
            for core in pkg.cores():
                if core.deepest_common_cstate_is == "C1":
                    c1_cores += 1
                smt = core.active_thread_count
                if smt == 0:
                    continue
                any_active = True
                wl = core.active_workload
                key = (core.applied_freq_hz, smt, id(wl), pkg.index)
                terms = by_point.get(key)
                if terms is None:
                    terms = by_point[key] = self._core_terms_w(
                        core.applied_freq_hz, smt, wl, factor
                    )
                pause, second, dyn, toggle = terms
                active_w += pause
                if second is not None:
                    active_w += second
                if dyn is not None:
                    dyn_w += dyn
                if toggle is not None:
                    toggle_w += toggle
        c1_w = c1_cores * cal.c1_per_core_w
        if any_active:
            # The first-core adjustment is negative; at low frequencies it
            # can exceed a lone core's pause power.  Active power is
            # physically non-negative, so clamp.
            active_w = max(0.0, active_w + cal.active_first_core_adjust_w)

        dram_w = sum(
            cal.dram_w_per_gbs * self.package_dram_traffic_gbs(pkg)
            for pkg in topo.packages
        )

        leak_w = 0.0
        if pkg_temps_c is not None:
            for temp in pkg_temps_c:
                leak_w += max(0.0, cal.leakage_w_per_k_pkg * (temp - cal.reference_temp_c))

        return PowerBreakdown(
            platform_base_w=platform,
            system_wake_w=wake,
            c1_cores_w=c1_w,
            active_cores_w=active_w,
            workload_dynamic_w=dyn_w,
            toggle_w=toggle_w,
            dram_active_w=dram_w,
            iodie_w=iodie_w,
            leakage_w=leak_w,
        )

    def system_power_w(self, machine, pkg_temps_c: list[float] | None = None) -> float:
        """Total AC power (the quantity the LMG670 samples)."""
        return self.breakdown(machine, pkg_temps_c).total_w

    def package_power_w(self, machine, pkg: Package, pkg_temps_c: list[float] | None = None) -> float:
        """One package's DC power share — input to the thermal model.

        Splits the breakdown: per-core terms attribute to their package,
        system-level terms split evenly.
        """
        wake, iodie_w = self._wake_and_iodie_w(machine)
        n_pkg = len(machine.topology.packages)
        shared = (wake * 0.6 + iodie_w) / n_pkg

        cal = self.cal
        # The package's silicon-variation multiplier, as in breakdown().
        factors = getattr(machine, "pkg_power_factors", None)
        factor = None if factors is None else factors[pkg.index]
        # Per distinct (C-state class, operating point) of an active core:
        # the terms the core adds, in the order they add.
        by_point: dict[tuple, tuple[float, ...]] = {}
        core_w = 0.0
        for core in pkg.cores():
            c1 = core.deepest_common_cstate_is == "C1"
            smt = core.active_thread_count
            if smt == 0:
                if c1:
                    core_w += cal.c1_per_core_w
                continue
            wl = core.active_workload
            key = (c1, core.applied_freq_hz, smt, id(wl))
            addends = by_point.get(key)
            if addends is None:
                addends = by_point[key] = ((cal.c1_per_core_w,) if c1 else ()) + tuple(
                    w
                    for w in self._core_terms_w(core.applied_freq_hz, smt, wl, factor)
                    if w is not None
                )
            for w in addends:
                core_w += w
        pkg_idx = pkg.index
        leak = 0.0
        if pkg_temps_c is not None and pkg_idx < len(pkg_temps_c):
            leak = max(
                0.0,
                cal.leakage_w_per_k_pkg * (pkg_temps_c[pkg_idx] - cal.reference_temp_c),
            )
        return core_w + shared + leak + cal.package_sleep_w
