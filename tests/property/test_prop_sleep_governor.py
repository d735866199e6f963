"""Properties of the sleep resolver, the menu governor and its interrupt model."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cstate.package import PackageSleepState
from repro.errors import ConfigurationError
from repro.machine import Machine
from repro.oslayer.cpuidle import MenuGovernor
from repro.oslayer.interrupts import (
    IDLE_RESIDUAL_WAKEUPS_HZ,
    InterruptModel,
    InterruptSource,
)
from repro.workloads import SPIN


@given(
    c1_cpus=st.sets(st.integers(min_value=0, max_value=127), max_size=6),
    active_cpus=st.sets(st.integers(min_value=0, max_value=127), max_size=6),
)
@settings(max_examples=25, deadline=None)
def test_sleep_report_consistency(c1_cpus, active_cpus):
    m = Machine("EPYC 7502", seed=0)
    # go through the sysfs path: it refreshes C-states AND resettles the
    # machine (direct CStateController calls leave resettling to the
    # caller — that is the machine's contract)
    for cpu in c1_cpus:
        m.os.sysfs.write(
            f"/sys/devices/system/cpu/cpu{cpu}/cpuidle/state2/disable", "1"
        )
    if active_cpus:
        m.os.run(SPIN, sorted(active_cpus))
    report = m.sleep.report()

    # invariant 1: deep sleep iff no blockers
    assert report.in_deep_sleep == (len(report.blockers) == 0)
    # invariant 2: every configured shallow CPU appears as a blocker
    for cpu in c1_cpus | active_cpus:
        assert cpu in report.blockers
    # invariant 3: any shallow thread anywhere blocks PC6 everywhere
    if report.blockers:
        assert all(s is not PackageSleepState.PC6 for s in report.package_states)
    # invariant 4: packages hosting an active CPU are ACTIVE
    for cpu in active_cpus:
        pkg = m.topology.thread(cpu).core.package.index
        assert report.package_states[pkg] is PackageSleepState.ACTIVE
    m.shutdown()


@given(rate=st.floats(min_value=0.1, max_value=1e7))
@settings(max_examples=60, deadline=None)
def test_governor_selection_is_threshold_monotone(rate):
    interrupts = InterruptModel()
    interrupts.register("src", 0, rate)
    gov = MenuGovernor(interrupts)
    pick = gov.select(0, "C2")
    breakeven = gov.breakeven_rate_hz("C2")
    total = interrupts.wakeup_rate_hz(0)
    if total <= breakeven:
        assert pick == "C2"
    else:
        assert pick == "C1"


@given(
    rate_a=st.floats(min_value=1.0, max_value=1e6),
    rate_b=st.floats(min_value=1.0, max_value=1e6),
)
@settings(max_examples=40, deadline=None)
def test_higher_rate_never_deepens_the_pick(rate_a, rate_b):
    lo, hi = sorted((rate_a, rate_b))
    order = {"C0": 0, "C1": 1, "C2": 2}

    def pick(rate):
        interrupts = InterruptModel()
        interrupts.register("src", 0, rate)
        return MenuGovernor(interrupts).select(0, "C2")

    assert order[pick(hi)] <= order[pick(lo)]


_NAMES = ("timer", "nic0", "nic1", "ipi", "disk")
_RATES = st.one_of(st.floats(min_value=1e-3, max_value=1e6), st.sampled_from([0.0, -1.0]))


@given(
    program=st.lists(
        st.one_of(
            st.tuples(
                st.just("register"), st.sampled_from(_NAMES), st.integers(0, 3), _RATES
            ),
            st.tuples(st.just("unregister"), st.sampled_from(_NAMES)),
        ),
        max_size=30,
    )
)
@settings(max_examples=200, deadline=None)
def test_per_cpu_sources_equal_a_full_scan(program):
    """After every register/unregister, each CPU's sources and wake-up rate
    equal a scan over all sources in registration order."""
    model = InterruptModel()
    everything: list[InterruptSource] = []
    for op in program:
        name = op[1]
        known = any(s.name == name for s in everything)
        if op[0] == "register":
            cpu, rate = op[2], op[3]
            if known or rate <= 0:
                with pytest.raises(ConfigurationError):
                    model.register(name, cpu, rate)
            else:
                model.register(name, cpu, rate)
                everything.append(InterruptSource(name, cpu, rate))
        elif known:
            model.unregister(name)
            everything = [s for s in everything if s.name != name]
        else:
            with pytest.raises(ConfigurationError):
                model.unregister(name)
        for cpu in range(4):
            want = [s for s in everything if s.cpu_id == cpu]
            got = model.sources_on(cpu)
            assert got == want
            got.clear()  # a copy: procfs may keep it
            assert model.sources_on(cpu) == want
            rate = IDLE_RESIDUAL_WAKEUPS_HZ + sum(s.rate_hz for s in want)
            assert model.wakeup_rate_hz(cpu).hex() == rate.hex()
