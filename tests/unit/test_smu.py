"""EDC manager and SMU hierarchy."""

import pytest

from repro.machine import Machine
from repro.smu.edc import EdcManager
from repro.units import ghz
from repro.workloads import FIRESTARTER, SPIN, STREAM_TRIAD


@pytest.fixture
def m():
    machine = Machine("EPYC 7502", seed=0)
    yield machine
    machine.shutdown()


class TestEdcDemand:
    def test_gated_core_residual_current(self):
        edc = EdcManager(limit_a=150.0)
        assert 0 < edc.core_current_a(None, 0, ghz(2.5)) < 1.0

    def test_demand_scales_with_frequency(self):
        edc = EdcManager(limit_a=150.0)
        lo = edc.core_current_a(FIRESTARTER, 2, ghz(2.0))
        hi = edc.core_current_a(FIRESTARTER, 2, ghz(2.5))
        assert hi > lo

    def test_demand_scales_with_edc_weight(self):
        edc = EdcManager(limit_a=150.0)
        heavy = edc.core_current_a(FIRESTARTER, 2, ghz(2.5))
        light = edc.core_current_a(SPIN, 2, ghz(2.5))
        assert heavy > 4 * light

    def test_smt_mode_amortizes_current(self):
        edc = EdcManager(limit_a=150.0)
        # per unit of (ipc x f), two threads draw slightly less
        one = edc.core_current_a(FIRESTARTER, 1, ghz(2.0))
        two = edc.core_current_a(FIRESTARTER, 2, ghz(2.0))
        ratio = (two - 0.55 * 0.95) / (one - 0.55 * 0.95)
        ipc_ratio = FIRESTARTER.ipc_2t / FIRESTARTER.ipc_1t
        assert ratio < ipc_ratio  # coefficient discount applied


class TestEdcControl:
    def test_firestarter_throttles_to_paper_points(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(FIRESTARTER, m.os.all_cpus())
        assert m.topology.thread(0).core.applied_freq_hz == ghz(2.0)
        m.os.run(FIRESTARTER, m.os.first_thread_cpus())
        m.os.stop([t.cpu_id for t in m.topology.threads() if t.smt_index == 1])
        assert m.topology.thread(0).core.applied_freq_hz == ghz(2.1)

    def test_light_workloads_never_throttle(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        for wl in (SPIN, STREAM_TRIAD):
            m.os.run(wl, m.os.all_cpus())
            assert m.topology.thread(0).core.applied_freq_hz == ghz(2.5)
            assert m.edc_cap_hz(0) is None

    def test_partial_load_no_throttle(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(FIRESTARTER, m.os.cpus_of_ccx(0, smt=True))  # 4 cores only
        assert m.topology.thread(0).core.applied_freq_hz == ghz(2.5)

    def test_assessment_reports_demand_and_cap(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(FIRESTARTER, m.os.all_cpus())
        smu = m.smus[0]
        assessment = smu.run_edc_loop(ghz(2.5))
        assert assessment.throttled
        assert assessment.cap_hz == ghz(2.0)
        assert assessment.demand_a <= assessment.limit_a

    def test_cap_quantized_to_25mhz(self, m):
        m.os.set_all_frequencies(ghz(2.5))
        m.os.run(FIRESTARTER, m.os.all_cpus())
        cap = m.edc_cap_hz(0)
        assert cap is not None
        assert (cap / 25e6) == pytest.approx(round(cap / 25e6))

    def test_bigger_sku_throttles_deeper(self):
        results = {}
        for sku in ("EPYC 7502", "EPYC 7742"):
            machine = Machine(sku, seed=0)
            machine.os.set_all_frequencies(max(machine.sku.available_freqs_hz))
            machine.os.run(FIRESTARTER, machine.os.all_cpus())
            results[sku] = machine.topology.thread(0).core.applied_freq_hz
            machine.shutdown()
        assert results["EPYC 7742"] < results["EPYC 7502"]
