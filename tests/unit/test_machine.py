"""The Machine facade: settling, measuring, BIOS options, modes."""

from unittest.mock import Mock

import pytest

from repro.errors import PStateError
from repro.iodie.fclk import FclkMode
from repro.lint.monitor import InvariantMonitor
from repro.machine import Machine, Quirks
from repro.units import RAPL_ENERGY_UNIT_J, ghz, ms
from repro.workloads import FIRESTARTER, SPIN


class TestConstruction:
    def test_default_build(self, machine):
        assert machine.sku.name == "EPYC 7502"
        assert machine.topology.n_threads == 128
        assert machine.cstates.system_in_deep_sleep()

    def test_seeded_reproducibility(self):
        a = Machine("EPYC 7502", seed=7)
        b = Machine("EPYC 7502", seed=7)
        ra = a.measure(10.0).ac_mean_w
        rb = b.measure(10.0).ac_mean_w
        a.shutdown()
        b.shutdown()
        assert ra == rb

    def test_different_seeds_differ(self):
        a = Machine("EPYC 7502", seed=1)
        b = Machine("EPYC 7502", seed=2)
        assert a.measure(10.0).ac_mean_w != b.measure(10.0).ac_mean_w
        a.shutdown()
        b.shutdown()

    def test_single_socket(self):
        m = Machine("EPYC 7502", n_packages=1, seed=0)
        assert len(m.topology.packages) == 1
        assert len(m.smus) == 1
        m.shutdown()


class TestReconfigure:
    def test_applied_frequency_follows_request(self, machine):
        machine.os.run(SPIN, [0])
        machine.os.set_frequency(0, ghz(2.2))
        assert machine.topology.thread(0).core.applied_freq_hz == ghz(2.2)

    def test_l3_clock_updated(self, machine):
        machine.os.run(SPIN, machine.os.cpus_of_ccx(0))
        for cpu in machine.os.cpus_of_ccx(0):
            machine.os.set_frequency(cpu, ghz(2.5))
        assert machine.topology.thread(0).core.ccx.l3_freq_hz == ghz(2.5)

    def test_observable_mean_cached(self, machine):
        machine.os.run(SPIN, [0])
        machine.os.set_frequency(0, ghz(2.2))
        core = machine.topology.thread(0).core
        assert machine.observable_mean_hz(core) == pytest.approx(ghz(2.2))


def _spy_settles(machine) -> Mock:
    """Count ``machine``'s settles (its ``reconfigured()`` calls)."""
    spy = Mock(wraps=machine.reconfigured)
    machine.reconfigured = spy
    return spy


class TestBatch:
    def test_set_all_frequencies_settles_once(self, machine):
        monitor = InvariantMonitor(machine).attach()
        before = monitor.checks_run
        machine.os.set_all_frequencies(ghz(2.2))
        monitor.detach()
        assert monitor.checks_run - before == 1

    def test_nested_scopes_settle_once_at_outermost_exit(self, machine):
        core = machine.topology.thread(0).core
        settles = _spy_settles(machine)
        with machine.batch():
            with machine.batch():
                machine.os.run(SPIN, [0])
                machine.os.set_frequency(0, ghz(2.5))
            assert settles.call_count == 0
            assert core.applied_freq_hz == ghz(1.5)
        assert settles.call_count == 1
        assert core.applied_freq_hz == ghz(2.5)

    def test_empty_batch_does_not_settle(self, machine):
        settles = _spy_settles(machine)
        with machine.batch():
            pass
        assert settles.call_count == 0

    def test_error_inside_batch_still_settles_earlier_requests(self, machine):
        machine.os.run(SPIN, [0])
        settles = _spy_settles(machine)
        with pytest.raises(PStateError):
            with machine.batch():
                machine.os.set_frequency(0, ghz(2.2))
                machine.os.set_frequency(1, ghz(1.0))  # not a P-state
        assert settles.call_count == 1
        assert machine.topology.thread(0).core.applied_freq_hz == ghz(2.2)


class TestMeasure:
    def test_record_fields(self, machine):
        rec = machine.measure(10.0)
        assert rec.duration_s == 10.0
        assert rec.ac.power_w.size == 200
        assert len(rec.rapl_pkg_w) == 2
        assert len(rec.rapl_core_w) == 64
        assert rec.ac_mean_w > 0

    def test_clock_advances(self, machine):
        t0 = machine.sim.now_ns
        machine.measure(10.0)
        assert machine.sim.now_ns == t0 + 10_000_000_000

    def test_breakdown_sums_to_true_power(self, machine):
        rec = machine.measure(10.0)
        assert sum(rec.breakdown.values()) == pytest.approx(rec.true_power_w, rel=1e-6)

    def test_temperatures_rise_under_load(self, machine):
        machine.os.run(FIRESTARTER, machine.os.all_cpus())
        t_before = list(machine.thermal_state.temps_c)
        machine.measure(10.0)
        assert all(
            after > before
            for after, before in zip(machine.thermal_state.temps_c, t_before)
        )

    def test_preheat_reaches_equilibrium(self, machine):
        machine.os.run(FIRESTARTER, machine.os.all_cpus())
        machine.preheat()
        temps = list(machine.thermal_state.temps_c)
        machine.measure(10.0)
        # already settled: barely moves
        assert all(
            abs(a - b) < 0.5 for a, b in zip(machine.thermal_state.temps_c, temps)
        )


class TestBiosOptions:
    def test_set_fclk_mode(self, machine):
        machine.set_fclk_mode(FclkMode.P2)
        for pkg in machine.topology.packages:
            assert pkg.io_die.fclk_hz == ghz(0.8)

    def test_set_dram(self, machine):
        machine.set_dram("DDR4-2666")
        for pkg in machine.topology.packages:
            assert pkg.io_die.memclk_hz == ghz(1.333)

    def test_dram_change_recouples_auto_fclk(self, machine):
        machine.set_dram("DDR4-2666")
        assert machine.topology.packages[0].io_die.fclk_hz == ghz(1.333)


class TestEventMode:
    def test_requests_are_deferred(self, machine):
        machine.os.run(SPIN, [0])
        machine.enable_event_mode()
        machine.os.set_frequency(0, ghz(2.5))
        core = machine.topology.thread(0).core
        assert core.applied_freq_hz != ghz(2.5)
        machine.sim.run_for(ms(3))
        assert core.applied_freq_hz == ghz(2.5)

    def test_disable_event_mode_settles(self, machine):
        machine.os.run(SPIN, [0])
        machine.enable_event_mode()
        machine.os.set_frequency(0, ghz(2.5))
        machine.disable_event_mode()
        assert machine.topology.thread(0).core.applied_freq_hz == ghz(2.5)

    def test_rapl_ticks_only_in_event_mode(self, machine):
        raw0 = machine.rapl_msrs.read_pkg_raw(0)
        machine.sim.run_for(ms(10))
        assert machine.rapl_msrs.read_pkg_raw(0) == raw0
        machine.enable_event_mode(rapl_ticks=True)
        machine.sim.run_for(ms(10))
        assert machine.rapl_msrs.read_pkg_raw(0) > raw0

    def test_rapl_ticks_deposit_live_power_after_direct_writes(self, machine):
        machine.enable_event_mode(rapl_ticks=True)
        machine.os.run(SPIN, [0])
        machine.sim.run_for(ms(3))
        for cpu in range(1, 32):
            machine.topology.thread(cpu).workload = FIRESTARTER
        before_j = machine.rapl_msrs.pkg_joules(0)
        machine.sim.run_for(ms(5))
        pkg = machine.topology.packages[0]
        live_w = machine.rapl_estimator.package_power_w(
            pkg,
            machine.thermal_state.temps_c[0],
            dram_traffic_gbs=machine.power_model.package_dram_traffic_gbs(pkg),
        )
        # Five 1 ms ticks; the counter keeps whole 2^-16 J units.
        assert machine.rapl_msrs.pkg_joules(0) - before_j == pytest.approx(
            5 * live_w * 1e-3, abs=RAPL_ENERGY_UNIT_J
        )


class TestQuirks:
    def test_quirk_free_machine_is_intel_like(self):
        m = Machine(
            "EPYC 7502",
            seed=0,
            quirks=Quirks(
                offline_threads_vote_on_frequency=False, offline_parks_in_c1=False
            ),
        )
        m.os.run(SPIN, [0])
        m.os.set_frequency(0, ghz(1.5))
        m.os.set_frequency(64, ghz(2.5))  # idle sibling
        assert m.topology.thread(0).core.applied_freq_hz == ghz(1.5)
        m.os.hotplug.set_offline(70)
        assert m.topology.thread(70).effective_cstate == "C2"
        m.shutdown()


class TestPreheatConvergence:
    """The power<->temperature fixed point must iterate to tolerance,
    not a hard-coded sweep count (the legacy loop ran exactly 4)."""

    @staticmethod
    def _leaky_machine(leakage_w_per_k, resistance_k_per_w):
        from dataclasses import replace

        from repro.power.calibration import CALIBRATION

        cal = replace(
            CALIBRATION,
            leakage_w_per_k_pkg=leakage_w_per_k,
            thermal_resistance_k_per_w=resistance_k_per_w,
        )
        return Machine("EPYC 7502", seed=0, calibration=cal)

    def test_four_sweeps_provably_insufficient_when_leaky(self):
        # Contraction ratio r = 0.45 * 1.5 = 0.675: each sweep removes
        # only ~1/3 of the residual, so 4 sweeps cannot reach 0.01 K.
        from repro.errors import ConvergenceWarning

        m = self._leaky_machine(1.5, 0.45)
        try:
            m.os.run(FIRESTARTER, m.os.all_cpus())
            with pytest.warns(ConvergenceWarning):
                residual = m.preheat(max_sweeps=Machine.PREHEAT_MIN_SWEEPS)
            assert residual > Machine.PREHEAT_TOL_C
        finally:
            m.shutdown()

    def test_tolerance_iteration_reaches_fixed_point_when_leaky(self):
        import warnings

        m = self._leaky_machine(1.5, 0.45)
        try:
            m.os.run(FIRESTARTER, m.os.all_cpus())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                residual = m.preheat()
            assert residual <= Machine.PREHEAT_TOL_C
            # Self-consistency: the settled temperatures reproduce
            # themselves through the power model (true fixed point).
            temps = m.thermal_state.temps_c
            for pkg in m.topology.packages:
                p = m.power_model.package_power_w(m, pkg, temps)
                assert m.thermal.equilibrium_c(p) == pytest.approx(
                    temps[pkg.index], abs=0.05
                )
        finally:
            m.shutdown()

    def test_thermal_runaway_warns(self):
        # r = 0.45 * 2.5 > 1: leakage grows faster than the heatsink
        # sheds it — there is no stable equilibrium to converge to.
        from repro.errors import ConvergenceWarning

        m = self._leaky_machine(2.5, 0.45)
        try:
            m.os.run(FIRESTARTER, m.os.all_cpus())
            with pytest.warns(ConvergenceWarning):
                m.preheat()
        finally:
            m.shutdown()

    def test_default_calibration_converges_in_legacy_sweep_count(self, machine):
        # r ~= 0.053 at the shipped calibration: 4 sweeps always land
        # within tolerance, so results stay bit-identical to the legacy
        # fixed-count loop (the golden suite pins this globally).
        import warnings

        machine.os.run(FIRESTARTER, machine.os.all_cpus())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residual = machine.preheat()
        assert residual <= Machine.PREHEAT_TOL_C
