"""OS layer: sysfs tree, cpufreq, hotplug, kernel placement helpers."""

import pytest

from repro.errors import ConfigurationError, PStateError, SysfsError, TopologyError
from repro.lint.monitor import InvariantMonitor
from repro.oslayer.cpufreq import Governor
from repro.units import ghz
from repro.workloads import SPIN


class TestSysfs:
    def test_online_read(self, machine):
        assert machine.os.sysfs.read("/sys/devices/system/cpu/cpu0/online") == "1"

    def test_online_write_offline(self, machine):
        machine.os.sysfs.write("/sys/devices/system/cpu/cpu5/online", "0")
        assert not machine.topology.thread(5).online
        assert machine.os.sysfs.read("/sys/devices/system/cpu/cpu5/online") == "0"

    def test_invalid_online_value(self, machine):
        with pytest.raises(SysfsError):
            machine.os.sysfs.write("/sys/devices/system/cpu/cpu5/online", "2")

    def test_unknown_path(self, machine):
        with pytest.raises(SysfsError):
            machine.os.sysfs.read("/sys/devices/system/cpu/cpu0/bogus")

    def test_unknown_cpu(self, machine):
        with pytest.raises(SysfsError):
            machine.os.sysfs.read("/sys/devices/system/cpu/cpu999/online")

    def test_non_cpu_path(self, machine):
        with pytest.raises(SysfsError):
            machine.os.sysfs.read("/proc/cpuinfo")

    def test_governor_read_write(self, machine):
        path = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
        assert machine.os.sysfs.read(path) == "userspace"
        machine.os.sysfs.write(path, "performance")
        assert machine.os.sysfs.read(path) == "performance"

    def test_setspeed_in_khz(self, machine):
        base = "/sys/devices/system/cpu/cpu0/cpufreq"
        machine.os.sysfs.write(f"{base}/scaling_setspeed", "2200000")
        assert machine.topology.thread(0).requested_freq_hz == ghz(2.2)

    def test_setspeed_invalid_string(self, machine):
        with pytest.raises(SysfsError):
            machine.os.sysfs.write(
                "/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed", "fast"
            )

    def test_available_frequencies(self, machine):
        out = machine.os.sysfs.read(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies"
        )
        assert out == "1500000 2200000 2500000"

    def test_cur_freq_reflects_applied(self, machine):
        machine.os.run(SPIN, [0])
        machine.os.set_frequency(0, ghz(2.5))
        out = machine.os.sysfs.read(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq"
        )
        assert out == "2500000"

    def test_cpuidle_attributes(self, machine):
        base = "/sys/devices/system/cpu/cpu0/cpuidle"
        assert machine.os.sysfs.read(f"{base}/state1/name") == "C1"
        assert machine.os.sysfs.read(f"{base}/state2/latency") == "400"
        assert machine.os.sysfs.read(f"{base}/state1/latency") == "1"
        assert machine.os.sysfs.read(f"{base}/state2/disable") == "0"

    def test_cpuidle_disable_roundtrip(self, machine):
        path = "/sys/devices/system/cpu/cpu3/cpuidle/state2/disable"
        machine.os.sysfs.write(path, "1")
        assert machine.os.sysfs.read(path) == "1"
        assert machine.topology.thread(3).effective_cstate == "C1"
        machine.os.sysfs.write(path, "0")
        assert machine.topology.thread(3).effective_cstate == "C2"

    def test_cpuidle_readonly_attributes(self, machine):
        with pytest.raises(SysfsError):
            machine.os.sysfs.write(
                "/sys/devices/system/cpu/cpu0/cpuidle/state1/latency", "5"
            )

    def test_state0_disable_rejected(self, machine):
        with pytest.raises(SysfsError):
            machine.os.sysfs.write(
                "/sys/devices/system/cpu/cpu0/cpuidle/state0/disable", "1"
            )

    def test_out_of_range_state(self, machine):
        with pytest.raises(SysfsError):
            machine.os.sysfs.read("/sys/devices/system/cpu/cpu0/cpuidle/state3/name")


class TestCpufreq:
    def test_userspace_setspeed(self, machine):
        machine.os.set_frequency(0, ghz(2.2))
        assert machine.topology.thread(0).requested_freq_hz == ghz(2.2)

    def test_setspeed_requires_userspace(self, machine):
        policy = machine.os.cpufreq_policy(0)
        policy.set_governor("performance")
        with pytest.raises(ConfigurationError):
            policy.set_speed(ghz(1.5))

    def test_performance_governor_pins_max(self, machine):
        machine.os.cpufreq_policy(0).set_governor("performance")
        assert machine.topology.thread(0).requested_freq_hz == ghz(2.5)

    def test_powersave_governor_pins_min(self, machine):
        machine.os.cpufreq_policy(0).set_governor("powersave")
        assert machine.topology.thread(0).requested_freq_hz == ghz(1.5)

    def test_unknown_governor(self, machine):
        with pytest.raises(ConfigurationError, match="userspace"):
            machine.os.cpufreq_policy(0).set_governor("ondemand-ng")

    def test_off_grid_frequency_rejected(self, machine):
        with pytest.raises(PStateError):
            machine.os.set_frequency(0, ghz(2.3))

    def test_governor_enum_values(self, machine):
        assert Governor("userspace") is Governor.USERSPACE

    def test_set_all_frequencies(self, machine):
        machine.os.set_all_frequencies(ghz(2.2))
        assert all(
            t.requested_freq_hz == ghz(2.2) for t in machine.topology.threads()
        )

    @pytest.mark.parametrize(
        "error, freq_ghz",
        [(ConfigurationError, 2.2), (PStateError, 2.3)],
        ids=["governor", "unavailable-frequency"],
    )
    def test_refused_set_all_frequencies_writes_nothing(self, machine, error, freq_ghz):
        # cpu5 does not take setspeed writes: the call must refuse before
        # cpu0-4 hold the new request, and before a batch exit settles it.
        machine.os.run(SPIN, [0, 1, 2, 3, 4, 5])
        machine.os.cpufreq_policy(5).set_governor("performance")
        before = _frequency_state(machine)
        with pytest.raises(error):
            machine.os.set_all_frequencies(ghz(freq_ghz))
        assert _frequency_state(machine) == before


def _frequency_state(machine):
    """Every request and every figure a settle writes."""
    topo = machine.topology
    return (
        [t.requested_freq_hz for t in topo.threads()],
        [(c.applied_freq_hz, machine.observable_mean_hz(c)) for c in topo.cores()],
        [ccx.l3_freq_hz for ccx in topo.ccxs()],
        [machine.edc_cap_hz(pkg.index) for pkg in topo.packages],
        machine._settle_pending,
    )


class TestHotplug:
    def test_offline_removes_workload(self, machine):
        machine.os.run(SPIN, [5])
        machine.os.sysfs.write("/sys/devices/system/cpu/cpu5/online", "0")
        assert machine.topology.thread(5).workload is None

    def test_cpu0_cannot_offline(self, machine):
        with pytest.raises(ConfigurationError):
            machine.os.hotplug.set_offline(0)

    def test_offline_idempotent(self, machine):
        machine.os.hotplug.set_offline(5)
        machine.os.hotplug.set_offline(5)
        assert not machine.topology.thread(5).online

    def test_online_idempotent(self, machine):
        machine.os.hotplug.set_online(5)
        assert machine.topology.thread(5).online

    def test_run_on_offline_cpu_rejected(self, machine):
        machine.os.hotplug.set_offline(5)
        with pytest.raises(ConfigurationError):
            machine.os.run(SPIN, [5])

    def test_rejected_run_binds_no_cpu(self, machine):
        # The offline CPU is checked before cpu1 is bound, so no thread
        # is left running a workload in C2 without a settle.
        machine.os.hotplug.set_offline(100)
        with pytest.raises(ConfigurationError):
            machine.os.run(SPIN, [1, 100])
        assert machine.topology.thread(1).workload is None
        assert InvariantMonitor(machine, raise_on_violation=False).check() == []

    def test_rejected_stop_unbinds_no_cpu(self, machine):
        machine.os.run(SPIN, [1])
        with pytest.raises(TopologyError):
            machine.os.stop([1, 999])
        assert machine.topology.thread(1).workload is SPIN
        assert InvariantMonitor(machine, raise_on_violation=False).check() == []


class TestKernelPlacement:
    def test_cpus_of_ccx(self, machine):
        cpus = machine.os.cpus_of_ccx(0)
        assert len(cpus) == 4
        cores = {machine.topology.thread(c).core.ccx.global_index for c in cpus}
        assert cores == {0}

    def test_cpus_of_ccx_with_smt(self, machine):
        cpus = machine.os.cpus_of_ccx(0, smt=True)
        assert len(cpus) == 8

    def test_unknown_ccx(self, machine):
        with pytest.raises(ConfigurationError):
            machine.os.cpus_of_ccx(99)

    def test_first_thread_cpus(self, machine):
        cpus = machine.os.first_thread_cpus()
        assert len(cpus) == 64
        assert all(machine.topology.thread(c).smt_index == 0 for c in cpus)

    def test_compact_cpus_fill_ccx_first(self, machine):
        cpus = machine.os.compact_cpus(6)
        ccxs = [machine.topology.thread(c).core.ccx.global_index for c in cpus]
        assert ccxs == [0, 0, 0, 0, 1, 1]

    def test_compact_cpus_too_many(self, machine):
        with pytest.raises(ConfigurationError):
            machine.os.compact_cpus(1000)

    def test_stop_all(self, machine):
        machine.os.run(SPIN, [0, 1, 2])
        machine.os.stop()
        assert all(t.workload is None for t in machine.topology.threads())


class TestPerf:
    def test_active_thread_reports_applied_frequency(self, machine):
        machine.os.run(SPIN, [0])
        machine.os.set_frequency(0, ghz(2.2))
        f = machine.os.perf.mean_freq_hz(0, count=5)
        assert f == pytest.approx(ghz(2.2), rel=1e-3)

    def test_idle_thread_below_60k_cycles(self, machine):
        samples = machine.os.perf.sample([7], 1.0, 5)
        assert all(row[0].cycles < 60_000 for row in samples)

    def test_offline_thread_reports_zero(self, machine):
        machine.os.hotplug.set_offline(5)
        samples = machine.os.perf.sample([5], 1.0, 2)
        assert all(row[0].cycles == 0 for row in samples)

    def test_ipc_reported_per_thread(self, machine):
        machine.os.run(SPIN, [0])
        machine.os.set_frequency(0, ghz(2.5))
        sample = machine.os.perf.sample([0], 1.0, 1)[0][0]
        assert sample.ipc == pytest.approx(SPIN.ipc_1t, rel=0.01)

    def test_sample_shape(self, machine):
        out = machine.os.perf.sample([0, 1, 2], 0.5, 4)
        assert len(out) == 4
        assert len(out[0]) == 3
        assert out[0][0].interval_s == 0.5
