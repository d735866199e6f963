"""Ground-truth power model against the Fig 7 / Fig 6 / Fig 10 anchors."""

import pytest

from repro.machine import Machine
from repro.power.calibration import CALIBRATION
from repro.units import ghz
from repro.workloads import FIRESTARTER, PAUSE_LOOP, instruction_block


@pytest.fixture
def m():
    machine = Machine("EPYC 7502", seed=0)
    yield machine
    machine.shutdown()


class TestIdleAnchors:
    def test_all_c2_floor(self, m):
        bd = m.power_model.breakdown(m)
        assert bd.total_w == pytest.approx(99.1, abs=0.01)
        assert bd.system_wake_w == 0.0

    def test_single_c1_thread_costs_wake_penalty(self, m):
        m.cstates.disable_state(0, "C2")
        m.reconfigured()
        bd = m.power_model.breakdown(m)
        assert bd.total_w == pytest.approx(99.1 + 81.2, abs=0.05)

    def test_additional_c1_cores_009_each(self, m):
        m.cstates.disable_state(0, "C2")
        base = m.power_model.breakdown(m).total_w
        for cpu in (1, 2, 3):
            m.cstates.disable_state(cpu, "C2")
        three_more = m.power_model.breakdown(m).total_w
        assert three_more - base == pytest.approx(3 * 0.09, abs=0.005)

    def test_sibling_thread_in_c1_free(self, m):
        m.cstates.disable_state(0, "C2")
        base = m.power_model.breakdown(m).total_w
        m.cstates.disable_state(64, "C2")  # sibling of cpu0
        assert m.power_model.breakdown(m).total_w == pytest.approx(base, abs=1e-6)


class TestActiveAnchors:
    def test_first_pause_thread(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(PAUSE_LOOP, [0])
        assert m.power_model.breakdown(m).total_w == pytest.approx(180.4, abs=0.05)

    def test_additional_active_core_033(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(PAUSE_LOOP, [0])
        one = m.power_model.breakdown(m).total_w
        m.os.run(PAUSE_LOOP, [1])
        assert m.power_model.breakdown(m).total_w - one == pytest.approx(0.33, abs=0.01)

    def test_additional_thread_005(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(PAUSE_LOOP, [0])
        one = m.power_model.breakdown(m).total_w
        m.os.run(PAUSE_LOOP, [64])  # sibling
        assert m.power_model.breakdown(m).total_w - one == pytest.approx(0.05, abs=0.01)

    def test_active_power_scales_with_frequency(self, m):
        m.os.run(PAUSE_LOOP, [0])
        m.os.set_all_frequencies(ghz(2.5))
        hi = m.power_model.breakdown(m).total_w
        m.os.set_all_frequencies(ghz(1.5))
        lo = m.power_model.breakdown(m).total_w
        assert lo < hi

    def test_c1_power_frequency_independent(self, m):
        m.cstates.disable_state(0, "C2")
        m.os.set_all_frequencies(ghz(2.5))
        m.reconfigured()
        hi = m.power_model.breakdown(m).total_w
        m.os.set_all_frequencies(ghz(1.5))
        m.reconfigured()
        lo = m.power_model.breakdown(m).total_w
        assert hi == pytest.approx(lo, abs=1e-6)


class TestWorkloadPower:
    def test_firestarter_dominates(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(FIRESTARTER, m.os.all_cpus())
        bd = m.power_model.breakdown(m)
        assert bd.workload_dynamic_w > 200

    def test_toggle_power_spread(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        totals = {}
        for w in (0.0, 1.0):
            m.os.run(instruction_block("vxorps", w), m.os.all_cpus())
            totals[w] = m.power_model.breakdown(m).total_w
        assert totals[1.0] - totals[0.0] == pytest.approx(21.1, abs=0.5)

    def test_dram_power_present_for_memory_workloads(self, m):
        from repro.workloads import MEMORY_READ

        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(MEMORY_READ, m.os.all_cpus())
        bd = m.power_model.breakdown(m)
        assert bd.dram_active_w > 10

    def test_dram_traffic_capped_at_channel_ceiling(self, m):
        from repro.workloads import MEMORY_READ

        m.os.run(MEMORY_READ, m.os.all_cpus())
        pkg = m.topology.packages[0]
        traffic = m.power_model.package_dram_traffic_gbs(pkg)
        ceiling = 8 * 8 * 2 * 1.6 * CALIBRATION.dram_channel_efficiency
        assert traffic <= ceiling + 1e-9

    def test_leakage_increases_with_temperature(self, m):
        m.os.run(FIRESTARTER, m.os.all_cpus())
        cold = m.power_model.breakdown(m, [30.0, 30.0]).total_w
        hot = m.power_model.breakdown(m, [70.0, 70.0]).total_w
        assert hot > cold

    def test_package_power_split_sums_close_to_core_terms(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(FIRESTARTER, m.os.all_cpus())
        temps = [50.0, 50.0]
        p0 = m.power_model.package_power_w(m, m.topology.packages[0], temps)
        p1 = m.power_model.package_power_w(m, m.topology.packages[1], temps)
        assert p0 == pytest.approx(p1, rel=1e-6)  # symmetric load
        assert p0 > 100  # each package carries a real share


def _firestarter_package_powers(variation_sigma):
    machine = Machine("EPYC 7502", seed=5, variation_sigma=variation_sigma)
    try:
        machine.os.run(FIRESTARTER, machine.os.all_cpus())
        temps = machine.thermal_state.temps_c
        powers = [
            machine.power_model.package_power_w(machine, pkg, temps)
            for pkg in machine.topology.packages
        ]
        return machine.pkg_power_factors, powers
    finally:
        machine.shutdown()


class TestSiliconVariation:
    """The thermal model's package power carries the package's variation
    factor, as the breakdown the AC meter sees does."""

    def test_package_power_follows_the_factors(self):
        factors, (p0, p1) = _firestarter_package_powers(0.05)
        assert factors[0] > 1.0 > factors[1]
        assert p0 > p1

    def test_no_variation_leaves_package_power_unchanged(self):
        factors, powers = _firestarter_package_powers(0.0)
        assert factors == [1.0, 1.0]
        # 126.27 W per package, as before package power read the factors.
        assert [p.hex() for p in powers] == ["0x1.f9163b575a65dp+6"] * 2


class TestBreakdownMemoization:
    """Every figure comes from live state: repeated calls agree, and every
    mutation path that feeds the power model shows at the next call."""

    def test_repeated_calls_identical(self, m):
        temps = m.thermal_state.temps_c
        a = m.power_model.breakdown(m, temps)
        b = m.power_model.breakdown(m, temps)
        assert a == b

    def test_invalidated_by_workload_change(self, m):
        base = m.power_model.breakdown(m).total_w
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(PAUSE_LOOP, [0])
        assert m.power_model.breakdown(m).total_w != base

    def test_invalidated_by_cstate_change_without_reconfigure(self, m):
        # disable_state() refreshes the C-states without a settle; the
        # model must still see the new state.
        base = m.power_model.breakdown(m).total_w
        m.cstates.disable_state(0, "C2")
        assert m.power_model.breakdown(m).total_w == pytest.approx(
            base + 81.2, abs=0.05
        )

    def test_invalidated_by_event_mode_transition(self, m):
        from repro.units import ms

        m.os.set_all_frequencies(ghz(2.2))
        m.os.run(PAUSE_LOOP, [0])
        base = m.power_model.breakdown(m).total_w
        m.enable_event_mode()
        m.os.set_frequency(0, ghz(1.5))
        m.os.set_frequency(64, ghz(1.5))  # SMT sibling votes too
        m.sim.run_for(ms(10))  # let the SMU slot apply the change
        assert m.topology.thread(0).core.applied_freq_hz == ghz(1.5)
        assert m.power_model.breakdown(m).total_w < base

    def test_leakage_recomputed_per_temperature(self, m):
        cold = [CALIBRATION.reference_temp_c] * 2
        hot = [CALIBRATION.reference_temp_c + 20.0] * 2
        bd_cold = m.power_model.breakdown(m, cold)
        bd_hot = m.power_model.breakdown(m, hot)
        assert bd_cold.leakage_w == 0.0
        assert bd_hot.leakage_w == pytest.approx(
            2 * 20.0 * CALIBRATION.leakage_w_per_k_pkg, rel=1e-9
        )
        # Only the leakage term depends on the temperatures.
        assert bd_hot.total_w - bd_hot.leakage_w == pytest.approx(
            bd_cold.total_w, rel=1e-12
        )

    def test_unbound_machine_bypasses_cache(self, m):
        # One model answers for whichever machine it is asked about.
        other = Machine("EPYC 7502", seed=0)
        try:
            other.cstates.disable_state(0, "C2")
            mine = m.power_model.breakdown(m).total_w
            theirs = m.power_model.breakdown(other).total_w
            assert theirs == pytest.approx(mine + 81.2, abs=0.05)
            assert m.power_model.breakdown(m).total_w == mine
        finally:
            other.shutdown()
