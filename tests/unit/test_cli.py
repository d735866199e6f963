"""The repro-zen2 command-line interface."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.suite import SUITE

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "golden" / "suite_seed2021_scale0.02.json"
)


class TestCli:
    def test_experiment_registry_covers_all_artifacts(self):
        expected = {
            "sec5a", "fig3", "tab1", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "sec7",
        }
        assert {key.split("_", 1)[0] for key in SUITE} == expected

    def test_sec5a_runs_and_passes(self, capsys):
        assert main(["sec5a", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "idle sibling" in out
        assert "DEVIATES" not in out

    def test_rapl_rate_runs(self, capsys):
        assert main(["sec7", "--scale", "0.02"]) == 0
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
        main(["fig3", "--seed", "1", "--scale", "0.01"])
        first = capsys.readouterr().out
        main(["fig3", "--seed", "2", "--scale", "0.01"])
        second = capsys.readouterr().out
        assert first != second  # different draws
        assert first.splitlines()[0] == second.splitlines()[0]  # same header

    def test_failing_band_exits_nonzero(self, capsys):
        assert main(["fig10", "--seed", "1", "--scale", "0.02", "--no-cache"]) == 1
        assert "DEVIATES" in capsys.readouterr().out

    def test_fig5_under_monitor_exits_zero(self, capsys):
        # fig5 selects the lower I/O-die P-states, whose iodie_w is negative.
        assert main(["fig5", "--monitor", "--no-cache"]) == 0
        assert "0 with violations" in capsys.readouterr().out

    def test_entry_command_reproduces_golden_entry(self, tmp_path):
        path = tmp_path / "r.json"
        argv = ["fig7", "--seed", "2021", "--scale", "0.02", "--no-cache"]
        assert main([*argv, "--json", str(path)]) == 0
        golden = json.loads(GOLDEN_PATH.read_text())["experiments"]
        doc = json.loads(path.read_text())["experiments"]
        assert doc == {"fig7_idle_power": golden["fig7_idle_power"]}

    @pytest.mark.parametrize("key", list(SUITE))
    def test_every_entry_reachable_by_key_and_short_name(self, key, monkeypatch):
        import repro.core.suite as suite_mod

        calls = []

        def fake_run_suite(cfg, only=None, **kwargs):
            calls.append(only)
            return suite_mod.SuiteResult(config=cfg)

        monkeypatch.setattr(suite_mod, "run_suite", fake_run_suite)
        assert main([key]) == 0
        assert main([key.split("_", 1)[0]]) == 0
        assert calls == [[key], [key]]

    def test_only_with_entry_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig3", "--only", "fig7_idle_power"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["all", "--only", "nope"],
            ["all", "--jobs", "0"],
            ["all", "--jobs", "-3"],
            ["all", "--only", "sec7_rapl_update_rate", "--only", "sec7_rapl_update_rate"],
            ["selfcheck", "--json", "F"],
            ["selfcheck", "--trace", "F"],
            ["selfcheck", "--metrics", "F"],
            ["selfcheck", "--only", "sec7_rapl_update_rate"],
        ],
        ids=[
            "only-unknown", "jobs-zero", "jobs-negative", "only-repeated",
            "selfcheck-json", "selfcheck-trace", "selfcheck-metrics", "selfcheck-only",
        ],
    )
    def test_bad_input_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        # Exit 1 means a paper band failed; a typo must not read as one.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err_lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("repro-zen2: error:")
        ]
        assert len(err_lines) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_scale_must_be_positive_and_finite(self, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig3", "--scale", scale, "--no-cache"])
        assert exc.value.code == 2
        assert "scale must be a positive finite number" in capsys.readouterr().err

    def test_import_loads_no_runner_module(self):
        runners = ("repro.core", "repro.cache", "repro.parallel", "repro.datasets")
        code = (
            "import sys, repro.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({runners})))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        )
        assert proc.stdout.strip() == "[]"


def _run_module(args, cwd, *, stdout_closed):
    """``python -m <args>``, its stdout read in full or a pipe whose read
    end is already closed (the reader of ``| head`` has gone)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    cmd = [sys.executable, "-m", *args]
    kwargs = dict(
        cwd=cwd, env={**os.environ, "PYTHONPATH": src}, text=True, timeout=120
    )
    if not stdout_closed:
        return subprocess.run(cmd, capture_output=True, **kwargs)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, **kwargs)
    finally:
        os.close(write_end)


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _healthz(port, attempts):
    """The ``/healthz`` status, polled every 0.1 s until the daemon
    answers (None if it never does)."""
    for _ in range(attempts):
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=5
            ) as resp:
                return resp.status
        except OSError:
            time.sleep(0.1)
    return None


class TestClosedStdout:
    """A reader that has gone changes neither the files nor the exit status."""

    def test_experiment_writes_every_file(self, tmp_path):
        runs = {}
        for name, closed in (("read", False), ("closed", True)):
            out = tmp_path / name
            out.mkdir()
            argv = [
                "repro.cli", "sec7", "--seed", "2021", "--no-cache",
                "--json", "F.json", "--trace", "T.json", "--metrics", "M.prom",
            ]
            runs[name] = _run_module(argv, out, stdout_closed=closed)
            assert "Traceback" not in runs[name].stderr
            for produced in ("F.json", "T.json", "M.prom", "M.prom.json"):
                assert (out / produced).exists(), (name, produced)
        assert runs["closed"].returncode == runs["read"].returncode == 0
        read_doc = (tmp_path / "read" / "F.json").read_bytes()
        assert (tmp_path / "closed" / "F.json").read_bytes() == read_doc

    @pytest.mark.parametrize(
        "argv",
        [
            ["repro.cli", "selfcheck"],
            ["repro.cli", "lint", "--list-rules"],
            ["repro.cli", "lint", "{units}", "--format", "sarif"],
            ["repro.lint", "--list-rules"],
            ["repro.lint", "{units}", "--format", "sarif"],
        ],
        ids=["selfcheck", "zen2-lint-rules", "zen2-lint-sarif", "lint-rules", "lint-sarif"],
    )
    def test_exit_status_is_unchanged(self, argv, tmp_path):
        units = str(Path(repro.__file__).resolve().parent / "units.py")
        argv = [arg.format(units=units) for arg in argv]
        read = _run_module(argv, tmp_path, stdout_closed=False)
        closed = _run_module(argv, tmp_path, stdout_closed=True)
        assert "Traceback" not in closed.stderr
        assert closed.returncode == read.returncode == 0

    @pytest.mark.parametrize(
        "obs", [["repro.obs"], ["repro.cli", "obs"]], ids=["module", "zen2"]
    )
    def test_obs_summarize_exits_zero(self, obs, tmp_path):
        made = _run_module(
            ["repro.cli", "sec7", "--seed", "2021", "--no-cache", "--trace", "T.json"],
            tmp_path,
            stdout_closed=False,
        )
        assert made.returncode == 0, made.stderr
        for argv in ([*obs, "summarize", "T.json"], [*obs, "validate", "T.json"]):
            closed = _run_module(argv, tmp_path, stdout_closed=True)
            assert "Traceback" not in closed.stderr, argv
            assert closed.returncode == 0, argv

    @pytest.mark.parametrize(
        "obs", [["repro.obs"], ["repro.cli", "obs"]], ids=["module", "zen2"]
    )
    def test_obs_validate_invalid_keeps_exit_one(self, obs, tmp_path):
        (tmp_path / "bad.json").write_text("{}")
        argv = [*obs, "validate", "bad.json"]
        read = _run_module(argv, tmp_path, stdout_closed=False)
        closed = _run_module(argv, tmp_path, stdout_closed=True)
        assert "INVALID" in read.stdout
        assert "Traceback" not in closed.stderr
        assert closed.returncode == read.returncode == 1

    def test_serve_answers_and_drains(self, tmp_path):
        port = _free_port()
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "REPRO_CACHE_DIR": str(tmp_path)}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve", "--port", str(port)],
                cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        try:
            assert _healthz(port, attempts=600) == 200
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
            assert "Traceback" not in err
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
