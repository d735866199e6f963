"""The PPT power-capping loop."""

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.machine import Machine
from repro.smu.ppt import PptManager
from repro.topology.components import Core
from repro.units import PSTATE_FREQ_STEP_HZ, ghz
from repro.workloads import FIRESTARTER, MEMORY_READ, SPIN, STREAM_TRIAD


@pytest.fixture
def m():
    machine = Machine("EPYC 7502", seed=0)
    yield machine
    machine.shutdown()


def _load_firestarter(m):
    m.os.set_all_frequencies(ghz(2.5))
    m.os.run(FIRESTARTER, m.os.all_cpus())
    m.preheat()


class TestPptLoop:
    def test_default_limit_never_binds_fig6(self, m):
        # the Fig 6 operating point stays EDC-limited, not power-limited
        _load_firestarter(m)
        assert m.topology.thread(0).core.applied_freq_hz == ghz(2.0)
        assert m.smus[0].edc_cap_hz == ghz(2.0)
        ppt = m.smus[0].ppt_cap_hz
        assert ppt is None or ppt > ghz(2.0)

    def test_lower_limit_throttles_below_edc(self, m):
        _load_firestarter(m)
        m.set_power_limit_w(120.0)
        assert m.topology.thread(0).core.applied_freq_hz < ghz(2.0)

    def test_cap_released_when_limit_raised(self, m):
        _load_firestarter(m)
        m.set_power_limit_w(120.0)
        m.set_power_limit_w(1000.0)
        assert m.topology.thread(0).core.applied_freq_hz == ghz(2.0)

    def test_modelled_power_respects_limit(self, m):
        _load_firestarter(m)
        m.set_power_limit_w(120.0)
        rec = m.measure(10.0)
        assert rec.rapl_pkg_w[0] <= 121.0

    def test_wall_power_can_violate_the_cap(self, m):
        # the §VII accuracy gap as an operational risk: the SMU holds the
        # cap in model-space while the true package power exceeds it
        _load_firestarter(m)
        m.set_power_limit_w(120.0)
        excess = m.smus[0].ppt.true_power_excess_w(m, m.topology.packages[0])
        assert excess > 5.0

    def test_assessment_quantized_to_grid(self, m):
        _load_firestarter(m)
        m.set_power_limit_w(120.0)
        cap = m.smus[0].ppt_cap_hz
        assert cap is not None
        assert cap / 25e6 == pytest.approx(round(cap / 25e6))

    def test_light_load_unaffected_by_moderate_cap(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(SPIN, m.os.cpus_of_ccx(0))
        m.set_power_limit_w(120.0)
        assert m.topology.thread(0).core.applied_freq_hz == ghz(2.5)

    def test_hypothetical_evaluation_restores_state(self, m):
        _load_firestarter(m)
        pkg = m.topology.packages[0]
        before = [c.applied_freq_hz for c in pkg.cores()]
        ppt = PptManager(limit_w=100.0)
        ppt.modelled_package_power_w(pkg, ghz(1.5))
        assert [c.applied_freq_hz for c in pkg.cores()] == before

    def test_memory_workload_cap_mostly_honest(self, m):
        # DIMM power lives outside the package, so a *package* cap on a
        # memory workload is not violated at the socket
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(MEMORY_READ, m.os.all_cpus())
        m.preheat()
        m.set_power_limit_w(90.0)
        excess = m.smus[0].ppt.true_power_excess_w(m, m.topology.packages[0])
        assert excess < 5.0


# --- the model is read, never written -------------------------------------------


def _swap_reference_w(ppt, pkg, freq_hz, temp_c, traffic):
    """The estimator at ``freq_hz`` by swapping every active core's clock
    in and restoring it (how the loop evaluated its model before)."""
    saved = [core.applied_freq_hz for core in pkg.cores()]
    try:
        for core in pkg.cores():
            if core.has_active_thread:
                core.applied_freq_hz = freq_hz
        return ppt.estimator.package_power_w(pkg, temp_c, dram_traffic_gbs=traffic)
    finally:
        for core, f in zip(pkg.cores(), saved):
            core.applied_freq_hz = f


def _clock_writes_during(fn):
    """``fn()``'s result and every write to a core's ``applied_freq_hz``."""
    writes = []

    def spy(core, name, value):
        if name == "applied_freq_hz":
            writes.append((core.global_index, value))
        object.__setattr__(core, name, value)

    with mock.patch.object(Core, "__setattr__", spy):
        result = fn()
    return result, writes


_CPU = st.integers(0, 31)  # EPYC 7252, two packages
_PLACEMENT = st.tuples(
    st.sampled_from([SPIN, FIRESTARTER, STREAM_TRIAD]), st.lists(_CPU, min_size=1, max_size=8)
)


@given(
    placements=st.lists(_PLACEMENT, min_size=1, max_size=3),
    freq_ghz=st.sampled_from([1.5, 2.2, 3.1]),
    requested_hz=st.integers(40, 124).map(lambda k: k * PSTATE_FREQ_STEP_HZ),
    temp_c=st.none() | st.floats(20.0, 90.0),
    share=st.floats(0.5, 0.99),
)
@settings(max_examples=40, deadline=None)
def test_assess_at_a_binding_limit_writes_no_clock(placements, freq_ghz, requested_hz, temp_c, share):
    machine = Machine("EPYC 7252", n_packages=2, seed=0)
    try:
        machine.os.set_all_frequencies(ghz(freq_ghz))
        for workload, cpus in placements:
            machine.os.run(workload, cpus)
        for pkg, smu in zip(machine.topology.packages, machine.smus):
            ppt = smu.ppt
            traffic = machine.power_model.package_dram_traffic_gbs(pkg)
            ppt.limit_w = share * _swap_reference_w(ppt, pkg, requested_hz, temp_c, traffic)
            assessment, writes = _clock_writes_during(
                lambda: ppt.assess(pkg, requested_hz, temp_c, traffic)
            )
            assert writes == []
            assert assessment.throttled
            # Every clock the loop walked, down to the cap it settled on.
            f = requested_hz
            while f >= assessment.cap_hz:
                got, writes = _clock_writes_during(
                    lambda: ppt.modelled_package_power_w(pkg, f, temp_c, traffic)
                )
                assert writes == []
                assert got.hex() == _swap_reference_w(ppt, pkg, f, temp_c, traffic).hex()
                f -= PSTATE_FREQ_STEP_HZ
            assert (
                assessment.modelled_power_w.hex()
                == _swap_reference_w(ppt, pkg, assessment.cap_hz, temp_c, traffic).hex()
            )
    finally:
        machine.shutdown()
