"""Properties of the sleep resolver and the menu governor."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cstate.package import PackageSleepState
from repro.machine import Machine
from repro.oslayer.cpuidle import MenuGovernor
from repro.oslayer.interrupts import InterruptModel
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
