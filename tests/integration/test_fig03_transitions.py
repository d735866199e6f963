"""Fig 3 + §V-B: transition delays and their anomalies, end to end."""

import numpy as np
import pytest

from repro.core import ExperimentConfig, FrequencyTransitionExperiment, freq_transition
from repro.core.experiment import machine_hook
from repro.units import ghz, ms, ns_to_us, us
from repro.workloads import SPIN
from tests.property.test_prop_stats import numpy_within_interval


@pytest.fixture(scope="module")
def exp():
    return FrequencyTransitionExperiment(ExperimentConfig(seed=2021))


@pytest.fixture(scope="module")
def down_result(exp):
    return exp.measure_pair(ghz(2.2), ghz(1.5), n_samples=3000)


class TestFig3Histogram:
    def test_paper_comparison_passes(self, exp, down_result):
        table = exp.compare_with_paper(down_result)
        assert table.all_ok, table.render()

    def test_support_is_390_to_1390us(self, down_result):
        lo, hi = down_result.histogram.support
        assert lo == pytest.approx(390.0, abs=30.0)
        assert hi == pytest.approx(1390.0, abs=40.0)

    def test_distribution_flat(self, down_result):
        assert down_result.histogram.uniformity_cv() < 0.25

    def test_slot_period_recoverable_from_width(self, down_result):
        # max - min ~ the SMU update interval (1 ms)
        width_us = down_result.max_us - down_result.min_us
        assert width_us == pytest.approx(1000.0, rel=0.05)

    def test_validation_discards_a_few_percent(self, down_result):
        # the 95 % CI validation rejects ~5 % of samples by construction
        frac = down_result.n_invalid / (down_result.n_invalid + len(down_result.latencies_us))
        assert 0.0 < frac < 0.15


class TestSec5BAnomalies:
    def test_up_switch_sometimes_instant(self, exp):
        res = exp.measure_pair(ghz(2.2), ghz(2.5), n_samples=400)
        assert res.min_us < 10.0  # paper: 1 us (plus probe quantization)
        assert (res.latencies_us < 10.0).mean() > 0.05

    def test_down_switch_sometimes_partial(self, exp):
        res = exp.measure_pair(ghz(2.5), ghz(2.2), n_samples=600)
        assert res.min_us < 385.0  # below the normal minimum
        assert res.min_us > 100.0  # but never instant

    def test_effect_disappears_with_5ms_waits(self, exp):
        up = exp.measure_pair(ghz(2.2), ghz(2.5), n_samples=200, min_wait_ms=5.0)
        down = exp.measure_pair(ghz(2.5), ghz(2.2), n_samples=200, min_wait_ms=5.0)
        assert up.min_us > 300.0
        assert down.min_us > 385.0

    def test_large_gap_pair_has_no_fast_path(self, exp):
        res = exp.measure_pair(ghz(2.5), ghz(1.5), n_samples=300)
        assert res.min_us > 385.0

    def test_up_transitions_faster_than_down(self, exp):
        up = exp.measure_pair(ghz(1.5), ghz(2.2), n_samples=300, min_wait_ms=5.0)
        down = exp.measure_pair(ghz(2.2), ghz(1.5), n_samples=300, min_wait_ms=5.0)
        assert up.min_us < down.min_us  # 360 vs 390 us execution


class _SequentialReference(FrequencyTransitionExperiment):
    """The reference §V-B loop, one sample at a time: one ``run_for(quantum)``
    per polling quantum, each switch's probes built by allocation and judged
    at once with numpy's own mean and std, and the keep/discard rule applied
    before the next switch.  Only the set-up helpers are inherited."""

    timeouts = 0

    def measure_pair(self, from_hz, to_hz, n_samples, *, min_wait_ms=0.0, max_wait_ms=10.0):
        machine = self.config.build_machine()
        machine.enable_event_mode()
        rng = machine.rng.child("freq-transition-experiment")
        cpu = 0
        core = machine.topology.thread(cpu).core
        machine.os.run(SPIN, [cpu])
        machine.os.set_frequency(cpu, from_hz)
        self._await_frequency(machine, core, from_hz)
        machine.sim.run_for(int(rng.integers(0, ms(1))))

        latencies = np.empty(n_samples, dtype=float)
        n_invalid = 0
        filled = 0
        discard_next = False
        while filled < n_samples:
            latency_ns, valid = self._one_switch(machine, cpu, core, to_hz, rng)
            if not valid or discard_next:
                n_invalid += int(not valid)
                discard_next = not valid
            else:
                latencies[filled] = ns_to_us(latency_ns)
                filled += 1
            self._one_switch(machine, cpu, core, from_hz, rng)
            machine.sim.run_for(int(rng.uniform(ms(min_wait_ms), ms(max_wait_ms))))
        machine.shutdown()
        return freq_transition.TransitionDelayResult(
            from_hz=from_hz, to_hz=to_hz, latencies_us=latencies, n_invalid=n_invalid
        )

    def _one_switch(self, machine, cpu, core, target_hz, rng):
        sim = machine.sim
        t0 = sim.now_ns
        machine.os.set_frequency(cpu, target_hz)
        quantum = self._poll_quantum_ns(core)
        while abs(core.applied_freq_hz - target_hz) > 1e3:
            sim.run_for(quantum)
            if sim.now_ns - t0 > freq_transition.SAMPLE_TIMEOUT_NS:
                self.timeouts += 1
                return sim.now_ns - t0, False
            quantum = self._poll_quantum_ns(core)
        latency_ns = sim.now_ns - t0
        probes = target_hz * (1.0 + rng.normal(0.0, 1e-4, size=100))
        valid = numpy_within_interval(target_hz, probes)
        sim.run_for(100 * self._poll_quantum_ns(core))
        return latency_ns, valid


class TestPollingJumpsToNextEvent:
    @pytest.mark.parametrize(
        "from_ghz, to_ghz",
        [(2.2, 1.5), (2.2, 2.5), (2.5, 2.2)],
        ids=["down", "fast-return", "partial"],
    )
    def test_matches_quantum_stepping_timeouts_included(self, monkeypatch, from_ghz, to_ghz):
        # A 900 us timeout cuts into the 390-1390 us transitions, so the
        # timeout branch's jump cap and the masking of timed-out rows are
        # exercised too; 300 samples cross two validation-round boundaries.
        monkeypatch.setattr(freq_transition, "SAMPLE_TIMEOUT_NS", us(900))
        runs = []
        for cls in (FrequencyTransitionExperiment, _SequentialReference):
            exp = cls(ExperimentConfig(seed=5))
            machines = []
            with machine_hook(machines.append):
                res = exp.measure_pair(ghz(from_ghz), ghz(to_ghz), n_samples=300)
            runs.append((exp, res, machines[0].sim.now_ns))
        (_, jumped, jumped_end), (stepping, stepped, stepped_end) = runs
        assert 300 > 2 * freq_transition.ROUND_SAMPLES
        assert stepping.timeouts > 0
        assert np.array_equal(jumped.latencies_us, stepped.latencies_us)
        assert jumped.n_invalid == stepped.n_invalid
        assert jumped_end == stepped_end
