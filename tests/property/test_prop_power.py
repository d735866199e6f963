"""Monotonicity properties of the ground-truth power model."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.machine import Machine
from repro.power.model import PowerModel
from repro.units import ghz
from repro.workloads import SPIN, instruction_block
from tests.property.test_prop_topology import _STEP, _apply

FREQS = [ghz(1.5), ghz(2.2), ghz(2.5)]


def _machine_with_active(n_active, freq_hz):
    m = Machine("EPYC 7502", seed=0)
    cpus = m.os.first_thread_cpus(n_active)
    if cpus:
        m.os.set_all_frequencies(freq_hz)
        m.os.run(SPIN, cpus)
    return m


@given(
    n=st.integers(min_value=0, max_value=16),
    freq_idx=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=30, deadline=None)
def test_power_nondecreasing_in_active_cores(n, freq_idx):
    freq = FREQS[freq_idx]
    a = _machine_with_active(n, freq)
    b = _machine_with_active(n + 1, freq)
    pa = a.power_model.breakdown(a).total_w
    pb = b.power_model.breakdown(b).total_w
    a.shutdown()
    b.shutdown()
    assert pb >= pa


@given(
    n=st.integers(min_value=1, max_value=16),
    lo=st.integers(min_value=0, max_value=1),
)
@settings(max_examples=20, deadline=None)
def test_power_nondecreasing_in_frequency(n, lo):
    a = _machine_with_active(n, FREQS[lo])
    b = _machine_with_active(n, FREQS[lo + 1])
    pa = a.power_model.breakdown(a).total_w
    pb = b.power_model.breakdown(b).total_w
    a.shutdown()
    b.shutdown()
    assert pb >= pa


@given(
    w1=st.floats(min_value=0.0, max_value=1.0),
    w2=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=20, deadline=None)
def test_power_monotone_in_operand_weight(w1, w2):
    lo, hi = sorted((w1, w2))
    m = Machine("EPYC 7502", seed=0)
    m.os.set_all_frequencies(ghz(2.5))
    m.os.run(instruction_block("vxorps", lo), m.os.all_cpus())
    p_lo = m.power_model.breakdown(m).total_w
    m.os.run(instruction_block("vxorps", hi), m.os.all_cpus())
    p_hi = m.power_model.breakdown(m).total_w
    m.shutdown()
    assert p_hi >= p_lo


@given(temps=st.lists(st.floats(min_value=20.0, max_value=95.0), min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_breakdown_total_equals_component_sum(temps):
    m = Machine("EPYC 7502", seed=0)
    m.os.run(SPIN, m.os.first_thread_cpus(8))
    bd = m.power_model.breakdown(m, temps)
    manual = (
        bd.platform_base_w
        + bd.system_wake_w
        + bd.c1_cores_w
        + bd.active_cores_w
        + bd.workload_dynamic_w
        + bd.toggle_w
        + bd.dram_active_w
        + bd.iodie_w
        + bd.leakage_w
    )
    m.shutdown()
    assert bd.total_w == manual


# --- every figure is that of the live state --------------------------------


def _figures(model, machine, temps):
    return (
        model.breakdown(machine, temps),
        [model.package_power_w(machine, pkg, temps) for pkg in machine.topology.packages],
        [model.package_dram_traffic_gbs(pkg) for pkg in machine.topology.packages],
    )


@given(program=st.lists(_STEP, max_size=25))
@settings(max_examples=100, deadline=None)
def test_power_figures_equal_a_fresh_model(program):
    # The programs mix OS calls with direct thread writes, which settle
    # nothing; a model asked after any step must answer as a new one.
    m = Machine("EPYC 7252", n_packages=1, seed=0)
    try:
        for step in program:
            _apply(m, step)
            temps = m.thermal_state.temps_c
            assert _figures(m.power_model, m, temps) == _figures(PowerModel(m.cal), m, temps), step
    finally:
        m.shutdown()
