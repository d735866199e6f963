"""repro.bench: the dispatch-loop variants and the <=2% overhead guard."""

import pytest

import repro.bench as bench
from repro.bench import BASELINE, CANDIDATES, dispatch_kernel, run_overhead_guard
from repro.errors import ConfigurationError

TINY = 2_000


class TestOverheadGuard:
    def test_disabled_kernel_registered(self):
        assert set(CANDIDATES) == {"obs.overhead_disabled", "obs.flightrec_overhead"}
        for variant in (BASELINE, *CANDIDATES):
            run = dispatch_kernel(variant, TINY)
            # Deterministic loop: the same event count every repetition.
            assert run() == run() == TINY
        with pytest.raises(ConfigurationError):
            dispatch_kernel("no.such.variant", TINY)

    def test_guard_reports_interleaved_ratios(self):
        # A generous budget keeps the verdict deterministic at tiny
        # scale; the real 2% budget is enforced by make bench-guard.
        for candidate in CANDIDATES:
            verdict = run_overhead_guard(
                candidate, rounds=2, budget=0.9, n_events=TINY
            )
            assert verdict["ok"] is True
            assert len(verdict["ratios"]) == 2
            assert all(r > 0 for r in verdict["ratios"])

    def test_guard_rejects_bad_rounds(self):
        with pytest.raises(ConfigurationError):
            run_overhead_guard(
                "obs.overhead_disabled", rounds=0, budget=0.02, n_events=TINY
            )
        with pytest.raises(ConfigurationError):
            run_overhead_guard(BASELINE, rounds=1, budget=0.02, n_events=TINY)

    def test_cli_guard_pass_and_fail_exit_codes(self, monkeypatch, capsys):
        assert (bench.BUDGET, bench.ROUNDS) == (0.02, 5)
        monkeypatch.setattr(bench, "N_EVENTS", TINY)
        monkeypatch.setattr(bench, "ROUNDS", 1)
        monkeypatch.setattr(bench, "BUDGET", 0.9)
        assert bench.main([]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2
        # An impossible budget (a candidate would need >11x the baseline
        # throughput) pins the failing exit path without flakiness.
        monkeypatch.setattr(bench, "BUDGET", -10)
        assert bench.main([]) == 1
        assert capsys.readouterr().out.count("FAIL") == 2
