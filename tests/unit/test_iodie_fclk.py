"""I/O-die fclk control: modes, coupling, mismatch, power."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.iodie.fclk import FclkController, FclkMode
from repro.lint.monitor import InvariantMonitor
from repro.machine import Machine
from repro.power.calibration import CALIBRATION
from repro.topology import build_topology
from repro.units import ghz
from repro.workloads import SPIN

#: A calibration whose fclk P2 differs from the default's 0.8 GHz.
SLOW_P2 = replace(CALIBRATION, fclk_pstates_hz=(ghz(1.467), ghz(1.2), ghz(0.6)))


@pytest.fixture
def io_die():
    topo = build_topology("EPYC 7502", n_packages=1)
    return topo.packages[0].io_die


class TestModes:
    def test_fixed_pstates(self, io_die):
        ctrl = FclkController(io_die)
        modes = (FclkMode.P0, FclkMode.P1, FclkMode.P2)
        for mode, expect in zip(modes, CALIBRATION.fclk_pstates_hz):
            ctrl.apply(mode)
            assert io_die.fclk_hz == expect

    def test_auto_couples_to_memclk_below_ceiling(self, io_die):
        io_die.memclk_hz = ghz(1.333)
        ctrl = FclkController(io_die)
        ctrl.apply(FclkMode.AUTO)
        assert io_die.fclk_hz == ghz(1.333)

    def test_auto_capped_at_fabric_ceiling(self, io_die):
        io_die.memclk_hz = ghz(1.6)
        ctrl = FclkController(io_die)
        ctrl.apply(FclkMode.AUTO)
        assert io_die.fclk_hz == ghz(1.467)

    def test_memclk_change_reapplies_auto(self, io_die):
        io_die.memclk_hz = ghz(1.6)
        ctrl = FclkController(io_die)
        io_die.memclk_hz = ghz(1.333)
        ctrl.on_memclk_change()
        assert io_die.fclk_hz == ghz(1.333)


class TestMismatch:
    def test_auto_below_ceiling_fully_matched(self, io_die):
        io_die.memclk_hz = ghz(1.333)
        ctrl = FclkController(io_die)
        assert ctrl.mismatch_factor() == 0.0

    def test_auto_above_ceiling_residual(self, io_die):
        io_die.memclk_hz = ghz(1.6)
        ctrl = FclkController(io_die)
        assert 0.0 < ctrl.mismatch_factor() < 1.0

    def test_integer_ratio_matched(self, io_die):
        io_die.memclk_hz = ghz(1.6)
        ctrl = FclkController(io_die)
        ctrl.apply(FclkMode.P2)  # 0.8 GHz -> ratio 2.0
        assert ctrl.mismatch_factor() == 0.0

    def test_fractional_ratio_mismatched(self, io_die):
        io_die.memclk_hz = ghz(1.6)
        ctrl = FclkController(io_die)
        ctrl.apply(FclkMode.P0)  # 1.467 -> ratio 1.09
        assert ctrl.mismatch_factor() == 1.0

    def test_p1_matched_at_2666(self, io_die):
        io_die.memclk_hz = ghz(1.333)
        ctrl = FclkController(io_die)
        ctrl.apply(FclkMode.P1)  # 1.333 -> ratio 1.0
        assert ctrl.mismatch_factor() == 0.0


class TestPower:
    def test_reference_point_is_zero(self, io_die):
        io_die.memclk_hz = ghz(1.6)
        ctrl = FclkController(io_die)
        ctrl.apply(FclkMode.P0)
        assert ctrl.extra_power_w() == pytest.approx(0.0, abs=0.01)

    def test_lower_fclk_saves_power(self, io_die):
        ctrl = FclkController(io_die)
        ctrl.apply(FclkMode.P2)
        assert ctrl.extra_power_w() < 0.0

    def test_power_monotone_in_fclk(self, io_die):
        ctrl = FclkController(io_die)
        powers = []
        for mode in (FclkMode.P2, FclkMode.P1, FclkMode.P0):
            ctrl.apply(mode)
            powers.append(ctrl.extra_power_w())
        assert powers == sorted(powers)


class TestCalibratedPstates:
    """The fixed P-states come from the machine's calibration."""

    @pytest.fixture
    def machine(self):
        m = Machine("EPYC 7502", calibration=SLOW_P2)
        yield m
        m.shutdown()

    def test_p2_applies_the_calibrated_fclk_on_both_dies(self, machine):
        machine.set_fclk_mode(FclkMode.P2)
        dies = [pkg.io_die for pkg in machine.topology.packages]
        assert [die.fclk_hz for die in dies] == [ghz(0.6), ghz(0.6)]

    def test_monitored_run_at_p2_records_no_violation(self, machine):
        # The monitor's iodie_w floor follows the same calibration.
        monitor = InvariantMonitor(machine, raise_on_violation=False).attach()
        machine.os.run(SPIN, [0])
        machine.set_fclk_mode(FclkMode.P2)
        machine.measure()
        assert monitor.checks_run > 0
        assert monitor.violations == []
