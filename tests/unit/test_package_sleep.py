"""Package/system sleep states and xGMI link width."""

import pytest

from repro.cstate.package import PackageSleepState, XgmiLinkState
from repro.machine import Machine
from repro.workloads import SPIN


@pytest.fixture
def m():
    machine = Machine("EPYC 7502", seed=0)
    yield machine
    machine.shutdown()


class TestPackageState:
    def test_idle_system_reaches_pc6(self, m):
        report = m.sleep.report()
        assert report.in_deep_sleep
        assert all(s is PackageSleepState.PC6 for s in report.package_states)
        assert report.blockers == ()

    def test_active_core_makes_package_active(self, m):
        m.os.run(SPIN, [0])
        report = m.sleep.report()
        assert report.package_states[0] is PackageSleepState.ACTIVE

    def test_c1_thread_blocks_pc6_on_both_packages(self, m):
        # the §VI-A criterion: a single shallow thread anywhere blocks all
        m.os.sysfs.write("/sys/devices/system/cpu/cpu0/cpuidle/state2/disable", "1")
        report = m.sleep.report()
        assert not report.in_deep_sleep
        assert report.package_states[0] is PackageSleepState.CORES_GATED
        # the *other* package cannot sleep either
        assert report.package_states[1] is PackageSleepState.CORES_GATED
        assert report.blockers == (0,)

    def test_blockers_list_offline_parked_threads(self, m):
        m.os.hotplug.set_offline(70)
        report = m.sleep.report()
        assert 70 in report.blockers

    def test_io_die_low_power_follows_sleep(self, m):
        assert m.sleep.report().io_dies_low_power
        m.os.run(SPIN, [0])
        assert not m.sleep.report().io_dies_low_power


class TestXgmi:
    def test_full_width_when_active(self, m):
        m.os.run(SPIN, [0])
        assert m.sleep.xgmi_state() is XgmiLinkState.FULL_WIDTH

    def test_low_power_in_deep_sleep(self, m):
        assert m.sleep.xgmi_state() is XgmiLinkState.LOW_POWER

    def test_reduced_width_when_gated(self, m):
        m.os.sysfs.write("/sys/devices/system/cpu/cpu3/cpuidle/state2/disable", "1")
        assert m.sleep.xgmi_state() is XgmiLinkState.REDUCED_WIDTH

    def test_single_socket_has_no_link(self):
        m = Machine("EPYC 7502", n_packages=1, seed=0)
        assert m.sleep.xgmi_state() is XgmiLinkState.LOW_POWER
        m.shutdown()
