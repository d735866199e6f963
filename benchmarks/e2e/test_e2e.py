"""Tests of the end-to-end benchmark; run with ``pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import hostspeed
import layers
import pytest
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def copy_benchmark(dst: Path) -> None:
    """BENCHMARK.json and this directory, without caches or results."""
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(HERE, dst / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__", "results"))


class FakeClock:
    def __init__(self) -> None:
        self.t = 0

    def __call__(self) -> int:
        return self.t


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    rec = SpanRecorder(min_span_ns=5, clock=clock)
    registry = {}

    def inner():
        clock.t += 4

    def outer():
        clock.t += 3
        registry["inner"]()
        clock.t += 2
        registry["inner"]()

    registry.update(inner=inner, outer=outer)
    rec.wrap(registry, "inner", "layer.inner")
    rec.wrap(registry, "outer", "layer.outer")
    rec.span("pass", registry["outer"])
    rec.restore()

    assert rec.stats["pass"] == [1, 13, 0]
    assert rec.stats["layer.outer"] == [1, 13, 5]
    assert rec.stats["layer.inner"] == [2, 8, 8]
    assert registry["inner"] is inner and registry["outer"] is outer
    # inner calls (4 ns) fall under min_span_ns; boundaries are always kept.
    assert [(name, parent) for name, _, _, parent in rec.spans] == [("layer.outer", "pass"), ("pass", None)]
    trace = rec.chrome_trace(workload="x")
    assert [e["dur"] for e in trace["traceEvents"]] == [0.013, 0.013]


def test_derived_layer_values():
    rec = SpanRecorder()
    for name, calls, self_ns in [
        ("oslayer.set_frequency", 8, 0), ("oslayer.run", 2, 0), ("machine.reconfigured", 5, 0),
        ("sim.run_until", 10, 0), ("core.fig3", 1, 2_000_000_000), ("core.compare_with_paper", 1, 500_000_000),
    ]:
        rec.stats[name] = [calls, self_ns, self_ns]
    names = ["machine.settles_per_os_call", "core.self_s", "sim.run_until.calls", "setup.import_s"]
    assert layers.layer_values(names, rec, {}) == {
        "machine.settles_per_os_call": 0.5,
        "core.self_s": 2.5,
        "sim.run_until.calls": 10.0,
        "setup.import_s": 0.0,
    }


def test_rescale_removes_kernel_time_and_host_slowdown():
    ref = hostspeed.REF_KERNEL_S
    # Every sample took twice the reference: the host ran at half speed.
    samples = [2 * ref] * 10
    assert hostspeed.speed(samples) == pytest.approx(0.5)
    assert hostspeed.rescale(1.0 + sum(samples), samples) == pytest.approx(0.5)
    # Half the time at full speed, half at half speed: the mean speed.
    assert hostspeed.speed([ref, 2 * ref]) == pytest.approx(0.75)
    assert hostspeed.rescale(0.25, []) == 0.25


def test_host_speed_samples_while_active_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed(0.002) as hs:
        for _ in range(400):  # ~0.1 s of work, about 50 intervals
            hostspeed.kernel()
    assert len(hs.samples) >= 5 and all(s > 0 for s in hs.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_is_valid():
    bench = benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(bench["command"]) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/") and ".." not in arg for arg in bench["command"])
    assert 1 <= len(bench["paths"]) <= 16
    assert all(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) and (ROOT / p).is_dir() for p in bench["paths"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_layer_metric_names_what_it_moves():
    bench = benchmark()
    assert list(layers.MOVES) == [m["name"] for m in bench["per_layer"]]
    metrics = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for name, moves in layers.MOVES.items():
        assert moves, name
        for target in moves:
            metric, _, workload = target.partition("@")
            assert metric in metrics and workload in workloads, (name, target)


def test_smoke_run_prints_every_metric(tmp_path):
    bench = benchmark()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{m['name']}@{w['name']}": m["unit"] for m in bench["end_to_end"] for w in bench["workloads"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric in bench["end_to_end"]:
        assert re.search(rf"{re.escape(metric['name'])} +\S+ {re.escape(metric['unit'])}", proc.stdout)


def test_traced_smoke_run_prints_every_layer_metric(tmp_path):
    bench = benchmark()
    out = tmp_path / "traced.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1", "--workload", "event_timing",
         "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    result = last_json(proc.stdout)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in bench["per_layer"]}
    trace = json.loads(out.read_text())["results"]["event_timing"]["trace"]
    assert trace["coverage"] >= 0.95
    assert trace["overhead"] > 0
    assert result["metrics"]["sim.run_until.calls"]["value"] > 0


def test_corrupted_expected_digest_counts_as_failure(tmp_path):
    copy_benchmark(tmp_path)
    for name in ("src", "tests"):
        (tmp_path / name).symlink_to(ROOT / name)
    path = tmp_path / "benchmarks" / "e2e" / "expected.json"
    expected = json.loads(path.read_text())
    expected["digests"]["event_timing/smoke"]["2021"] = "0" * 64
    path.write_text(json.dumps(expected))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke", "--workload", "event_timing", "--seed", "2021"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    result = last_json(proc.stdout)
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] > 0
    assert re.search(r"failed_frac +[0-9.]+ +\((?!0 of)", proc.stdout)


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "suite_serial"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
