"""Observability end-to-end: traced suite runs, artifacts, determinism.

The determinism guarantee under test: ``suite_to_dict`` is a function of
the experiment outputs only, so a traced run serializes byte-identically
to an untraced one (tracing observes, never perturbs).  The exported
trace and metrics artifacts must pass the bundled validators and cover
the suite → experiment → measure → dispatch span hierarchy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.experiment import ExperimentConfig
from repro.core.serialize import canonical_json
from repro.core.suite import run_suite, suite_to_dict
from repro.obs import Obs
from repro.obs.schema import (
    validate_metrics_document,
    validate_trace_document,
)

# Entries chosen to exercise every instrumented layer quickly:
# fig7 drives Machine.measure/preheat, sec7 drives simulator dispatch
# and the RAPL tick path.
QUICK = ["sec5a_idle_sibling", "fig7_idle_power", "sec7_rapl_update_rate"]
CFG = ExperimentConfig(seed=2021, scale=0.02)


def test_suite_output_byte_identical_with_tracing_on_and_off():
    plain = run_suite(CFG, only=QUICK)
    traced = run_suite(CFG, only=QUICK, obs=Obs())
    assert canonical_json(suite_to_dict(plain)) == canonical_json(
        suite_to_dict(traced)
    )


def test_traced_suite_covers_span_hierarchy():
    obs = Obs()
    result = run_suite(CFG, only=QUICK, obs=obs)
    assert result.obs is obs
    doc = obs.trace_document()
    assert validate_trace_document(doc) == []
    spans = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
    assert "suite" in spans
    assert set(QUICK) <= spans  # one experiment span per entry
    assert "machine.measure" in spans
    assert "sim.dispatch" in spans
    snap = obs.metrics_snapshot()
    assert validate_metrics_document(snap) == []
    families = {f["name"] for f in snap["metrics"]}
    assert {"suite.entries", "machine.measures", "sim.events_dispatched"} <= (
        families
    )


def test_traced_parallel_suite_matches_serial():
    serial = run_suite(CFG, only=QUICK)
    obs = Obs()
    par = run_suite(CFG, only=QUICK, parallel=2, obs=obs)
    assert canonical_json(suite_to_dict(serial)) == canonical_json(
        suite_to_dict(par)
    )
    # Parent-side pool instrumentation exists and validates.
    spans = {r["name"] for r in obs.tracer.spans()}
    assert "pool.gang" in spans
    assert any(name.startswith("pool.task:") for name in spans)
    assert validate_trace_document(obs.trace_document()) == []


def test_monitored_traced_suite_records_invariant_metrics():
    obs = Obs()
    result = run_suite(CFG, only=["sec5a_idle_sibling"], monitor=True, obs=obs)
    assert result.invariants["sec5a_idle_sibling"].checks > 0
    checks = obs.metrics.counter("invariant.checks").value
    assert checks == sum(i.checks for i in result.invariants.values())


def test_cli_trace_and_metrics_artifacts(tmp_path, monkeypatch, capsys):
    from repro.cli import main as cli_main
    from repro.obs.cli import main as obs_main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    trace_path = tmp_path / "trace.json"
    prom_path = tmp_path / "metrics.prom"
    rc = cli_main(
        [
            "suite",
            "--seed", "2021",
            "--scale", "0.02",
            "--only", "sec5a_idle_sibling",
            "--only", "sec7_rapl_update_rate",
            "--trace", str(trace_path),
            "--metrics", str(prom_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()

    trace = json.loads(trace_path.read_text())
    assert validate_trace_document(trace) == []
    snapshot = json.loads((tmp_path / "metrics.prom.json").read_text())
    assert validate_metrics_document(snapshot) == []
    prom = prom_path.read_text()
    assert "# TYPE repro_cache_lookups counter" in prom
    assert "repro_suite_entries" in prom

    # The shipped inspector agrees with the in-process validators.
    assert obs_main(
        ["validate", str(trace_path), str(prom_path) + ".json"]
    ) == 0


def test_run_suite_only_filter_validation():
    with pytest.raises(KeyError):
        run_suite(CFG, only=["no_such_entry"], obs=Obs())


# ---------------------------------------------------------------------------
# cross-process tracing and crash diagnostics
# ---------------------------------------------------------------------------


def test_worker_traces_merge_into_one_correlated_timeline():
    from repro.core.suite import suite_trace_document
    from repro.obs.tracer import mint_trace_id

    obs = Obs()
    result = run_suite(CFG, only=QUICK, parallel=2, obs=obs)
    # One shipped trace document per entry, each tagged with the suite's
    # content-derived trace id.
    assert len(result.worker_traces) == len(QUICK)
    # The id is minted from the config and the entries in submission
    # order.
    expected = mint_trace_id("suite", CFG.seed, CFG.scale, CFG.sku, *QUICK)
    assert obs.tracer.trace_id == expected
    for worker_doc in result.worker_traces:
        assert worker_doc["otherData"]["trace_id"] == expected

    merged = suite_trace_document(result, run="test")
    assert validate_trace_document(merged) == []
    assert merged["otherData"]["trace_id"] == expected
    assert merged["otherData"]["merged"] == len(QUICK) + 1
    process_names = {
        e["args"]["name"]
        for e in merged["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    # Parent tracks are labelled suite:*, worker tracks by entry name.
    assert "suite:host" in process_names
    assert any(name.startswith("sec5a_idle_sibling:") for name in process_names)
    spans = {e["name"] for e in merged["traceEvents"] if e.get("ph") == "X"}
    # Parent-side gang orchestration and worker-side experiment internals
    # land on one timeline.
    assert "pool.gang" in spans
    assert "machine.measure" in spans
    assert "sim.dispatch" in spans
    assert set(QUICK) <= spans


#: Runs the untraced serial suite, then the pool, in a fresh process and
#: prints the ``repro.obs`` modules loaded after each step.
_UNTRACED_PROBE = """
import sys
from operator import mul

from repro.core.experiment import ExperimentConfig
from repro.core.suite import run_suite
from repro.parallel import Task, run_tasks


def loaded():
    return sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "obs"])


result = run_suite(
    ExperimentConfig(seed=2021, scale=0.02),
    only=["sec5a_idle_sibling", "sec7_rapl_update_rate"],
)
assert result.all_ok
print(loaded())
(outcome,) = run_tasks([Task("mul", mul, (6, 7))], jobs=1)
assert outcome.value == 42
print(loaded())
"""


def test_untraced_path_loads_no_obs_module():
    # obs=None is the off switch: neither the serial suite nor the pool
    # may import an instrument it will not use.
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _UNTRACED_PROBE],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
