"""The repro-zen2 command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestCli:
    def test_experiment_registry_covers_all_artifacts(self):
        expected = {
            "fig1", "sec5a", "fig3", "tab1", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "rapl-rate",
        }
        assert set(EXPERIMENTS) == expected

    def test_fig1_runs(self, capsys):
        assert main(["fig1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Green500" in out
        assert "Zen 2 (Rome)" in out

    def test_sec5a_runs_and_passes(self, capsys):
        assert main(["sec5a", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "idle sibling" in out
        assert "DEVIATES" not in out

    def test_rapl_rate_runs(self, capsys):
        assert main(["rapl-rate", "--scale", "0.02"]) == 0
        assert "update period" in capsys.readouterr().out

    def test_tab1_runs(self, capsys):
        assert main(["tab1", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "set 2.2 / others 2.5" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_selfcheck_passes_on_default_machine(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "selfcheck: EPYC 7502" in out
        assert "DEVIATES" not in out

    def test_suite_subset_json(self, tmp_path, capsys, monkeypatch):
        import repro.core.suite as suite_mod

        monkeypatch.setattr(
            suite_mod,
            "SUITE",
            {"sec5a_idle_sibling": suite_mod.SUITE["sec5a_idle_sibling"]},
        )
        path = tmp_path / "r.json"
        assert main(["suite", "--scale", "0.02", "--json", str(path)]) == 0
        assert "suite verdict: OK" in capsys.readouterr().out
        assert path.exists()

    def test_suite_parallel_jobs_and_cache_flags(self, capsys, monkeypatch):
        import repro.core.suite as suite_mod

        monkeypatch.setattr(
            suite_mod,
            "SUITE",
            {
                name: suite_mod.SUITE[name]
                for name in ("sec5a_idle_sibling", "sec7_rapl_update_rate")
            },
        )
        assert main(["suite", "--scale", "0.02", "--jobs", "2", "--cache-stats"]) == 0
        cold = capsys.readouterr().out
        assert "suite verdict: OK" in cold
        assert "cache stats:" in cold
        assert '"misses": 2' in cold
        # second invocation hits the (test-isolated) cache
        assert main(["suite", "--scale", "0.02", "--jobs", "2", "--cache-stats"]) == 0
        warm = capsys.readouterr().out
        assert '"hits": 2' in warm

    def test_suite_no_cache_bypasses_store(self, capsys, monkeypatch):
        import repro.core.suite as suite_mod

        monkeypatch.setattr(
            suite_mod,
            "SUITE",
            {"sec5a_idle_sibling": suite_mod.SUITE["sec5a_idle_sibling"]},
        )
        assert main(["suite", "--scale", "0.02", "--no-cache", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "suite verdict: OK" in out
        assert "cache stats:" not in out

    def test_seed_changes_nothing_structural(self, capsys):
        main(["fig1", "--seed", "1"])
        first = capsys.readouterr().out
        main(["fig1", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second  # different draws
        assert first.splitlines()[0] == second.splitlines()[0]  # same header
