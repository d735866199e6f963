"""InvariantMonitor: each invariant must trip on a deliberately broken machine.

A healthy machine passes every check; then each test corrupts exactly
one aspect of machine state and asserts the matching violation message
appears (and only then).
"""

from __future__ import annotations

import pytest

from repro.errors import InvariantViolation
from repro.iodie.fclk import FclkMode
from repro.lint.monitor import InvariantMonitor
from repro.machine import Machine
from repro.power.model import PowerBreakdown
from repro.units import ms
from repro.workloads import SPIN


@pytest.fixture
def machine():
    m = Machine("EPYC 7502", n_packages=1, seed=0)
    yield m
    m.shutdown()


@pytest.fixture
def monitor(machine):
    return InvariantMonitor(machine, raise_on_violation=False)


def _breakdown(**overrides) -> PowerBreakdown:
    base = dict(
        platform_base_w=60.0,
        system_wake_w=0.0,
        c1_cores_w=10.0,
        active_cores_w=0.0,
        workload_dynamic_w=0.0,
        toggle_w=0.0,
        dram_active_w=5.0,
        iodie_w=0.0,
        leakage_w=15.0,
    )
    base.update(overrides)
    return PowerBreakdown(**base)


def test_clean_machine_has_no_violations(machine, monitor):
    assert monitor.check() == []
    machine.os.run(SPIN, [0])
    machine.sim.run_for(ms(5))
    machine.os.stop()
    assert monitor.check() == []
    assert monitor.violations == []
    assert monitor.checks_run == 2


def test_negative_power_term_trips(machine, monitor):
    machine.power_model.breakdown = lambda m, temps=None: _breakdown(
        c1_cores_w=-3.0
    )
    (violation,) = monitor.check()
    assert "c1_cores_w is negative" in violation


def _awake_at_lowest_fclk_iodie_w(machine) -> float:
    """Wake the system, select fclk P2 and return the live iodie_w."""
    machine.os.run(SPIN, [0])
    machine.set_fclk_mode(FclkMode.P2)
    return machine.power_model.breakdown(machine).iodie_w


def test_iodie_term_at_its_floor_passes(machine, monitor):
    floor_w = _awake_at_lowest_fclk_iodie_w(machine)
    assert floor_w < 0.0
    assert monitor.check() == []


def test_sign_flipped_iodie_term_trips(machine, monitor):
    floor_w = _awake_at_lowest_fclk_iodie_w(machine)
    machine.power_model.breakdown = lambda m, temps=None: _breakdown(iodie_w=-floor_w)
    (violation,) = monitor.check()
    assert f"iodie_w is {-floor_w:.3f} W, outside [{floor_w:.3f}, 0] W" in violation


def test_iodie_term_below_its_floor_trips(machine, monitor):
    floor_w = _awake_at_lowest_fclk_iodie_w(machine)
    machine.power_model.breakdown = lambda m, temps=None: _breakdown(
        iodie_w=floor_w - 1e-6
    )
    (violation,) = monitor.check()
    assert "outside" in violation and "iodie_w" in violation


def test_iodie_term_while_asleep_must_be_zero(machine, monitor):
    assert machine.cstates.system_in_deep_sleep()
    machine.power_model.breakdown = lambda m, temps=None: _breakdown(iodie_w=-1.0)
    (violation,) = monitor.check()
    assert "iodie_w is -1.000 W while the system sleeps" in violation


def test_ppt_envelope_trips(machine, monitor):
    machine.power_model.breakdown = lambda m, temps=None: _breakdown(
        active_cores_w=10_000.0
    )
    (violation,) = monitor.check()
    assert "exceeds the PPT envelope" in violation


def test_off_grid_frequency_trips(machine, monitor):
    core = next(iter(machine.topology.cores()))
    core.applied_freq_hz = 2.2134e9  # between 25 MHz grid points
    violations = monitor.check()
    assert any("off the 25 MHz P-state grid" in v for v in violations)


def test_out_of_band_frequency_trips(machine, monitor):
    core = next(iter(machine.topology.cores()))
    core.applied_freq_hz = 9.0e9  # way above any boost ceiling
    violations = monitor.check()
    assert any("outside" in v for v in violations)


def test_rapl_clock_backwards_trips(machine, monitor):
    machine.sim.run_for(ms(10))  # let RAPL tick forward
    monitor.check()
    machine.rapl_msrs.last_update_ns -= 1
    violations = monitor.check()
    assert any("moved backwards" in v for v in violations)


def test_rapl_counter_advance_without_time_trips(machine, monitor):
    monitor.check()
    machine.rapl_msrs.pkg[0].raw += 1 << 16  # 1 J with a frozen clock
    violations = monitor.check()
    assert any("stood still" in v for v in violations)


def test_energy_power_band_trips(machine, monitor):
    monitor.check()
    # Deposit ~15 kJ over 1 us: no estimator power explains that.
    machine.rapl_msrs.last_update_ns += 1_000
    machine.rapl_msrs.pkg[0].raw += 1_000_000_000
    violations = monitor.check()
    assert any("energy != integral of power" in v for v in violations)


def test_unknown_cstate_trips(machine, monitor):
    thread = machine.topology.thread(0)
    thread.effective_cstate = "C6"
    violations = monitor.check()
    assert any("unknown C-state" in v for v in violations)


def test_active_thread_not_in_c0_trips(machine, monitor):
    machine.os.run(SPIN, [0])
    thread = machine.topology.thread(0)
    thread.effective_cstate = "C2"
    violations = monitor.check()
    assert any("runs a workload but sits in C2" in v for v in violations)


def test_offline_park_state_trips(machine, monitor):
    thread = machine.topology.thread(0)
    thread.online = False
    thread.effective_cstate = "C2"  # quirk says offline parks in C1
    violations = monitor.check()
    assert any("offline cpu0" in v for v in violations)


def test_deeper_than_requested_trips(machine, monitor):
    thread = machine.topology.thread(0)
    thread.requested_cstate = "C1"
    thread.effective_cstate = "C2"
    violations = monitor.check()
    assert any("sleeps deeper" in v for v in violations)


def test_raise_mode_raises_with_messages(machine):
    monitor = InvariantMonitor(machine)  # raise_on_violation defaults on
    thread = machine.topology.thread(0)
    thread.effective_cstate = "C6"
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.check()
    assert excinfo.value.violations
    assert "unknown C-state" in str(excinfo.value)


def test_attach_hooks_run_until_and_reconfigured(machine, monitor):
    orig_run_until = machine.sim.run_until
    monitor.attach()
    assert machine.sim.run_until is not orig_run_until
    machine.sim.run_for(ms(1))
    assert monitor.checks_run == 1
    machine.reconfigured()
    assert monitor.checks_run == 2
    monitor.detach()
    machine.sim.run_for(ms(1))
    machine.reconfigured()
    assert monitor.checks_run == 2  # hooks are gone
    assert machine.sim.run_until == orig_run_until


def test_attach_is_idempotent(machine, monitor):
    assert monitor.attach() is monitor
    hooked = machine.sim.run_until
    monitor.attach()
    assert machine.sim.run_until is hooked
    monitor.detach()
    monitor.detach()  # no-op
