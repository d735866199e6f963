"""repro.bench: harness statistics, registry, schema, CLI round-trip."""

import json

import pytest

from repro.bench import (
    REGISTRY,
    SCHEMA_ID,
    SCHEMA_VERSION,
    BenchContext,
    Kernel,
    document_from_results,
    kernel_names,
    percentile,
    validate_document,
)
from repro.bench.cli import main as bench_main
from repro.bench.harness import time_kernel
from repro.bench.kernels import select_kernels
from repro.errors import ConfigurationError

TINY = BenchContext(scale=0.001, seed=2021)


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_median_even_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5

    def test_extremes(self):
        xs = [5.0, 1.0, 3.0]
        assert percentile(xs, 0.0) == 1.0
        assert percentile(xs, 100.0) == 5.0

    def test_single_sample(self):
        assert percentile([7.0], 90.0) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101.0)


class TestHarness:
    def test_time_kernel_counts_and_stats(self):
        calls = []

        def setup(ctx):
            def run():
                calls.append(None)
                return 42

            return run

        k = Kernel(
            name="t", description="d", unit="ops/s", better="higher", setup=setup
        )
        res = time_kernel(k, TINY, warmup=2, reps=3)
        assert len(calls) == 5  # warmup runs excluded from samples
        assert len(res.samples) == 3
        assert res.ops_per_rep == 42
        assert res.p10 <= res.median <= res.p90

    def test_latency_kernel_samples_are_seconds(self):
        k = Kernel(
            name="t",
            description="d",
            unit="s",
            better="lower",
            setup=lambda ctx: (lambda: 1),
        )
        res = time_kernel(k, TINY, warmup=0, reps=2)
        assert all(s >= 0.0 for s in res.samples)

    def test_max_reps_cap(self):
        k = Kernel(
            name="t",
            description="d",
            unit="s",
            better="lower",
            setup=lambda ctx: (lambda: 1),
            max_reps=2,
        )
        assert time_kernel(k, TINY, warmup=0, reps=9).reps == 2

    def test_bad_params_rejected(self):
        k = REGISTRY["event_queue.mixed"]
        with pytest.raises(ConfigurationError):
            time_kernel(k, TINY, warmup=0, reps=0)
        with pytest.raises(ConfigurationError):
            time_kernel(k, TINY, warmup=-1, reps=1)


class TestRegistry:
    def test_expected_kernels_registered(self):
        names = kernel_names()
        for expected in (
            "event_queue.mixed",
            "event_queue.mixed_shuffle",
            "event_queue.cancel_churn",
            "sim.dispatch",
            "machine.measure.10s",
            "suite.e2e",
        ):
            assert expected in names

    def test_quick_kernels_exclude_suite(self):
        quick = [k.name for k in select_kernels(smoke=True)]
        assert "suite.e2e" not in quick
        assert "event_queue.mixed" in quick

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            select_kernels(["no.such.kernel"])

    def test_queue_kernels_run_and_count_ops(self):
        for name in (
            "event_queue.mixed",
            "event_queue.mixed_shuffle",
            "event_queue.cancel_churn",
            "sim.dispatch",
        ):
            run = REGISTRY[name].setup(TINY)
            assert run() > 0
            # Deterministic fixtures: same op count every repetition.
            assert run() == run()


class TestSchema:
    def _doc(self):
        results = [
            time_kernel(REGISTRY["event_queue.mixed"], TINY, warmup=0, reps=2)
        ]
        return document_from_results(results, ctx=TINY, warmup=0, reps=2)

    def test_round_trip_validates(self):
        doc = json.loads(json.dumps(self._doc()))
        assert validate_document(doc) == []
        assert doc["schema"] == SCHEMA_ID
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_rejects_non_object(self):
        assert validate_document([1, 2]) != []

    def test_rejects_wrong_version(self):
        doc = self._doc()
        doc["schema_version"] = 999
        assert any("schema_version" in e for e in validate_document(doc))

    def test_rejects_tampered_stats(self):
        doc = self._doc()
        doc["kernels"][0]["median"] = doc["kernels"][0]["median"] * 2 + 1
        assert any("median" in e for e in validate_document(doc))

    def test_rejects_missing_samples(self):
        doc = self._doc()
        del doc["kernels"][0]["samples"]
        assert any("samples" in e for e in validate_document(doc))

    def test_rejects_reps_mismatch(self):
        doc = self._doc()
        doc["kernels"][0]["reps"] = 17
        assert any("reps" in e for e in validate_document(doc))


class TestCli:
    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "event_queue.mixed" in out
        assert "suite.e2e" in out

    def test_writes_schema_valid_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_test.json"
        rc = bench_main(
            [
                "--only",
                "event_queue.mixed,sim.dispatch",
                "--scale",
                "0.001",
                "--warmup",
                "0",
                "--reps",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_document(doc) == []
        assert [k["name"] for k in doc["kernels"]] == [
            "event_queue.mixed",
            "sim.dispatch",
        ]
        assert "median" in capsys.readouterr().out

    def test_smoke_skips_slow_kernels(self, tmp_path):
        out = tmp_path / "BENCH_smoke.json"
        rc = bench_main(
            ["--smoke", "--scale", "0.001", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_document(doc) == []
        names = [k["name"] for k in doc["kernels"]]
        assert "suite.e2e" not in names
        assert doc["params"] == {"warmup": 0, "reps": 1}

    def test_unknown_kernel_errors(self, capsys):
        assert bench_main(["--only", "bogus", "--out", "-"]) == 2
        assert "unknown bench kernel" in capsys.readouterr().err


class TestOverheadGuard:
    def test_disabled_kernel_registered(self):
        assert "obs.overhead_disabled" in kernel_names()

    def test_guard_reports_interleaved_ratios(self):
        from repro.bench.harness import run_overhead_guard

        # A generous budget keeps the verdict deterministic at tiny
        # scale; the real 2% budget is enforced by make bench-guard.
        verdict = run_overhead_guard(TINY, rounds=2, budget=0.9)
        assert verdict["ok"] is True
        assert len(verdict["ratios"]) == 2
        assert verdict["baseline"] == "sim.dispatch"
        assert verdict["candidate"] == "obs.overhead_disabled"
        assert all(r > 0 for r in verdict["ratios"])

    def test_guard_rejects_bad_rounds(self):
        from repro.bench.harness import run_overhead_guard

        with pytest.raises(ConfigurationError):
            run_overhead_guard(TINY, rounds=0)

    def test_cli_guard_pass_and_fail_exit_codes(self, capsys):
        args = ["--guard", "--scale", "0.001", "--guard-rounds", "1"]
        assert bench_main(args + ["--guard-budget", "0.9"]) == 0
        assert "PASS" in capsys.readouterr().out
        # An impossible budget (candidate would need >11x the baseline
        # throughput) pins the failing exit path without flakiness.
        assert bench_main(args + ["--guard-budget", "-10"]) == 1
        assert "FAIL" in capsys.readouterr().out
