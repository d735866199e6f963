"""§V-A idle-sibling, RAPL update rate, and Fig 1 dataset checks."""

import pytest

from repro.core import (
    ExperimentConfig,
    IdleSiblingExperiment,
    RaplUpdateRateExperiment,
)
from repro.core.experiment import machine_hook
from repro.datasets.green500 import amd_leads_x86, synthesize_green500
from repro.rapl.msrs import RaplMsrs


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(seed=2021)


class TestSec5AIdleSibling:
    def test_paper_comparison_passes(self, cfg):
        exp = IdleSiblingExperiment(cfg)
        table = exp.compare_with_paper(exp.measure())
        assert table.all_ok, table.render()

    def test_all_four_scenarios(self, cfg):
        res = IdleSiblingExperiment(cfg).measure()
        assert res.active_freq_with_idle_sibling_ghz == pytest.approx(2.5, abs=0.01)
        assert res.active_freq_with_offline_sibling_ghz == pytest.approx(2.5, abs=0.01)
        assert res.active_freq_with_low_sibling_ghz == pytest.approx(1.5, abs=0.01)
        assert res.idle_sibling_cycles_per_s < 60_000


class TestRaplUpdateRate:
    def test_update_period_1ms(self, cfg):
        exp = RaplUpdateRateExperiment(cfg)
        res = exp.measure(n_updates=30)
        assert res.median_ms == pytest.approx(1.0, abs=0.05)
        table = exp.compare_with_paper(res)
        assert table.all_ok, table.render()

    def test_counter_frozen_between_updates(self, cfg):
        # a finer poll does not see finer increments
        exp = RaplUpdateRateExperiment(cfg)
        res = exp.measure(n_updates=20, poll_interval_us=5.0)
        assert res.median_ms == pytest.approx(1.0, abs=0.05)

    def test_guard_stops_a_frozen_counter_at_the_same_poll(self, monkeypatch):
        # The counter never moves, so the guard ends the loop after
        # n_updates * 1000 + 1 polls of 20 us: poll 2,001, at 40.02 ms.
        monkeypatch.setattr(RaplMsrs, "tick", lambda self, *args: None)
        machines = []
        with machine_hook(machines.append):
            res = RaplUpdateRateExperiment(ExperimentConfig(seed=3)).measure(n_updates=2)
        assert len(res.intervals_ms) == 0
        assert machines[0].sim.now_ns == 40_020_000


class TestFig1:
    def test_amd_leads_the_x86_field(self):
        assert amd_leads_x86(synthesize_green500(2021))
