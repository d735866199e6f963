"""Suite-runner semantics: name validation, failure containment, modes."""

from __future__ import annotations

import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.suite import SUITE, run_suite, suite_to_dict
from repro.errors import MeasurementError, SuiteError

FAST_ENTRY = "sec5a_idle_sibling"


def _boom_entry(cfg):
    """A registry entry that always fails (module-level: picklable)."""
    raise MeasurementError("injected failure")


@pytest.fixture
def cfg() -> ExperimentConfig:
    return ExperimentConfig(seed=11, scale=0.02)


class TestNameValidation:
    def test_duplicate_only_entries_rejected(self, cfg):
        with pytest.raises(SuiteError, match="duplicate suite entries"):
            run_suite(cfg, only=[FAST_ENTRY, FAST_ENTRY])

    def test_duplicate_message_names_the_entry(self, cfg):
        with pytest.raises(SuiteError, match=FAST_ENTRY):
            run_suite(cfg, only=[FAST_ENTRY, "sec7_rapl_update_rate", FAST_ENTRY])

    def test_unknown_entries_still_keyerror(self, cfg):
        with pytest.raises(KeyError, match="fig99"):
            run_suite(cfg, only=["fig99"])

    def test_bad_parallel_rejected(self, cfg):
        with pytest.raises(SuiteError, match="parallel"):
            run_suite(cfg, only=[FAST_ENTRY], parallel=0)


class TestFailureContainment:
    def test_serial_exceptions_propagate_unchanged(self, cfg, monkeypatch):
        monkeypatch.setitem(SUITE, "boom", _boom_entry)
        with pytest.raises(MeasurementError, match="injected"):
            run_suite(cfg, only=["boom"])

    def test_parallel_failure_is_structured_not_fatal(self, cfg, monkeypatch):
        monkeypatch.setitem(SUITE, "boom", _boom_entry)
        result = run_suite(
            cfg, only=["boom", FAST_ENTRY], parallel=2, retries=0
        )
        assert FAST_ENTRY in result.tables
        assert "boom" not in result.tables
        failure = result.errors["boom"]
        assert failure.kind == "error"
        assert "injected" in failure.message
        assert not result.all_ok
        assert "FAILED" in result.render()

    def test_failures_key_in_document_only_when_failing(self, cfg, monkeypatch):
        monkeypatch.setitem(SUITE, "boom", _boom_entry)
        bad = suite_to_dict(
            run_suite(cfg, only=["boom", FAST_ENTRY], parallel=2, retries=0)
        )
        good = suite_to_dict(run_suite(cfg, only=[FAST_ENTRY]))
        assert bad["failures"]["boom"]["kind"] == "error"
        assert bad["all_ok"] is False
        assert "failures" not in good


class TestCache:
    def test_malformed_cached_document_is_a_miss(self, cfg, tmp_path):
        # Cache files come from outside the process: a document that does
        # not replay is recomputed and overwritten, never a traceback.
        from repro.cache import ResultCache, cache_key

        cold = suite_to_dict(run_suite(cfg, only=[FAST_ENTRY]))
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache_key(FAST_ENTRY, cfg)
        cache.put(key, {"bogus": 1})
        result = run_suite(cfg, only=[FAST_ENTRY], cache=cache)
        assert suite_to_dict(result) == cold
        assert cache.get(key) == cold["experiments"][FAST_ENTRY]


class TestInvariantMonitoring:
    def test_monitored_run_records_sweep(self, cfg):
        result = run_suite(cfg, only=[FAST_ENTRY], monitor=True)
        summary = result.invariants[FAST_ENTRY]
        assert summary.machines >= 1
        assert summary.checks >= 1
        assert summary.violations == []
        assert result.all_ok
        assert "invariant sweep" in result.render()

    def test_monitoring_is_opt_in(self, cfg):
        result = run_suite(cfg, only=[FAST_ENTRY])
        assert result.invariants == {}
        assert "invariant sweep" not in result.render()

    def test_document_key_only_when_monitored(self, cfg):
        monitored = suite_to_dict(run_suite(cfg, only=[FAST_ENTRY], monitor=True))
        plain = suite_to_dict(run_suite(cfg, only=[FAST_ENTRY]))
        assert monitored["invariants"][FAST_ENTRY]["violations"] == []
        assert "invariants" not in plain
        # Monitoring must not perturb the measurement itself.
        assert monitored["experiments"] == plain["experiments"]

    def test_violation_fails_the_suite(self, cfg):
        from repro.core.suite import InvariantSummary

        result = run_suite(cfg, only=[FAST_ENTRY], monitor=True)
        result.invariants[FAST_ENTRY] = InvariantSummary(
            machines=1, checks=2, violations=["injected: power went negative"]
        )
        assert not result.all_ok
        assert "power went negative" in result.render()

    def test_monitored_run_bypasses_cache(self, cfg, tmp_path):
        from repro.cache import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        result = run_suite(cfg, only=[FAST_ENTRY], cache=cache, monitor=True)
        assert result.cache_stats is None
        stats = cache.stats.as_dict()
        assert stats["stores"] == 0 and stats["hits"] == 0

    def test_machine_hook_nesting_and_removal(self, cfg):
        from repro.core.experiment import machine_hook

        seen: list[str] = []
        with machine_hook(lambda m: seen.append("outer")):
            with machine_hook(lambda m: seen.append("inner")):
                cfg.build_machine().shutdown()
            cfg.build_machine().shutdown()
        cfg.build_machine().shutdown()
        assert seen == ["outer", "inner", "outer"]
