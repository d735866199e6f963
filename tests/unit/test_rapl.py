"""RAPL estimator structure and MSR counter behaviour."""

import pytest

from repro.machine import Machine
from repro.msr import MSR_CORE_ENERGY_STAT, MSR_PKG_ENERGY_STAT
from repro.rapl.estimator import RaplEstimator
from repro.rapl.msrs import RaplMsrs, encode_rapl_power_unit
from repro.units import RAPL_COUNTER_WRAP, RAPL_ENERGY_UNIT_J, ghz, ms, s
from repro.workloads import FIRESTARTER, MEMORY_READ, instruction_block


@pytest.fixture
def m():
    machine = Machine("EPYC 7502", seed=0)
    yield machine
    machine.shutdown()


class TestEstimatorStructure:
    def test_gated_core_near_zero(self, m):
        est = RaplEstimator()
        core = m.topology.thread(0).core
        assert est.core_power_w(core) == pytest.approx(est.GATED_CORE_W)

    def test_firestarter_package_near_170w(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(FIRESTARTER, m.os.all_cpus())
        est = RaplEstimator()
        pkg = m.topology.packages[0]
        traffic = m.power_model.package_dram_traffic_gbs(pkg)
        p = est.package_power_w(pkg, 70.0, dram_traffic_gbs=traffic)
        assert p == pytest.approx(170.0, rel=0.03)

    def test_operand_weight_invisible_to_core_domain(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        est = RaplEstimator()
        core = m.topology.thread(0).core
        readings = []
        for w in (0.0, 1.0):
            m.os.run(instruction_block("vxorps", w), m.os.all_cpus())
            readings.append(est.core_power_w(core, 50.0))
        assert readings[0] == pytest.approx(readings[1], rel=1e-9)

    def test_dram_traffic_token_charge_only(self, m):
        # the paper: memory power "not fully captured"
        est = RaplEstimator()
        pkg = m.topology.packages[0]
        with_traffic = est.package_power_w(pkg, None, dram_traffic_gbs=40.0)
        without = est.package_power_w(pkg, None, dram_traffic_gbs=0.0)
        charged = with_traffic - without
        true_dram_w = 40.0 * m.cal.dram_w_per_gbs
        assert charged < true_dram_w / 3

    def test_temperature_leak_term_small(self, m):
        est = RaplEstimator()
        pkg = m.topology.packages[0]
        cold = est.package_power_w(pkg, 45.0)
        hot = est.package_power_w(pkg, 75.0)
        assert 0 < hot - cold < 1.0

    def test_memory_workload_underreported_vs_truth(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(MEMORY_READ, m.os.all_cpus())
        est = RaplEstimator()
        rapl_total = sum(
            est.package_power_w(
                pkg, None, dram_traffic_gbs=m.power_model.package_dram_traffic_gbs(pkg)
            )
            for pkg in m.topology.packages
        )
        truth = m.power_model.breakdown(m).total_w
        assert rapl_total < truth - 100  # the Fig 9a gap


class TestRaplMsrs:
    def test_power_unit_encoding(self):
        reg = encode_rapl_power_unit()
        assert (reg >> 8) & 0x1F == 16  # 2^-16 J

    def test_tick_deposits_energy(self):
        msrs = RaplMsrs(1, 1)
        msrs.tick([100.0], [5.0], ms(1))
        assert msrs.pkg_joules(0) == pytest.approx(0.1, rel=1e-3)
        assert msrs.core_joules(0) == pytest.approx(0.005, rel=1e-2)

    def test_counter_frozen_between_ticks(self):
        msrs = RaplMsrs(1, 1)
        msrs.tick([100.0], [5.0], ms(1))
        raw = msrs.read_pkg_raw(0)
        assert msrs.read_pkg_raw(0) == raw  # no time passes on read

    def test_fraction_carries_across_deposits(self):
        msrs = RaplMsrs(1, 1)
        # deposit 1000 x half an energy unit -> ~500 units, not 0
        half = RAPL_ENERGY_UNIT_J / 2
        for i in range(1000):
            msrs.tick([0.0], [0.0], i)  # keep time moving
            msrs.pkg[0].deposit(half)
        assert abs(msrs.read_pkg_raw(0) - 500) <= 1

    def test_wraparound(self):
        msrs = RaplMsrs(1, 1)
        msrs.pkg[0].raw = RAPL_COUNTER_WRAP - 10
        msrs.pkg[0].deposit(RAPL_ENERGY_UNIT_J * 25)
        assert msrs.read_pkg_raw(0) == 15

    def test_bulk_advance_equivalent_to_ticks(self):
        a = RaplMsrs(1, 1)
        b = RaplMsrs(1, 1)
        for k in range(1, 101):
            a.tick([123.0], [7.0], ms(k))
        b.advance_bulk([123.0 * 0.1], [7.0 * 0.1], s(0.1))
        assert a.read_pkg_raw(0) == b.read_pkg_raw(0)
        assert a.read_core_raw(0) == b.read_core_raw(0)

    def test_measure_fills_counters_with_joules(self, m):
        # Each counter delta over a steady-state measure() is the reported
        # power times the interval: joules, not W x ns.
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(FIRESTARTER, m.os.all_cpus())
        pkg_cpus = [next(pkg.threads()).cpu_id for pkg in m.topology.packages]

        def counters():
            return [
                *(m.msr.read(cpu, MSR_PKG_ENERGY_STAT) for cpu in pkg_cpus),
                m.msr.read(0, MSR_CORE_ENERGY_STAT),
            ]

        before = counters()
        rec = m.measure(10.0)
        after = counters()
        core0 = m.topology.thread(0).core
        expected_j = [
            *(p * 10.0 for p in rec.rapl_pkg_w),
            rec.rapl_core_w[core0.global_index] * 10.0,
        ]
        for b, a, want in zip(before, after, expected_j, strict=True):
            got_j = ((a - b) % RAPL_COUNTER_WRAP) * RAPL_ENERGY_UNIT_J
            assert got_j == pytest.approx(want, abs=RAPL_ENERGY_UNIT_J)

    def test_negative_energy_rejected(self):
        from repro.errors import MsrError

        msrs = RaplMsrs(1, 1)
        with pytest.raises(MsrError):
            msrs.pkg[0].deposit(-1.0)

    def test_backwards_tick_rejected(self):
        from repro.errors import MsrError

        msrs = RaplMsrs(1, 1)
        msrs.tick([1.0], [1.0], ms(5))
        with pytest.raises(MsrError):
            msrs.tick([1.0], [1.0], ms(3))
