"""Observability end-to-end: traced suite runs, artifacts, determinism.

The determinism guarantee under test: ``suite_to_dict`` is a function of
the experiment outputs only, so a traced run serializes byte-identically
to an untraced one (tracing observes, never perturbs).  The exported
trace and metrics artifacts must pass the bundled validators and cover
the suite → experiment → measure → dispatch span hierarchy.
"""

from __future__ import annotations

import json

import pytest

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


def test_crash_mid_task_dumps_validating_bundle(tmp_path, monkeypatch):
    from repro.obs.flightrec import recorder
    from repro.obs.schema import validate_flightrec_document
    from repro.parallel import Task, run_tasks
    from tests.unit.test_parallel_pool import _boom, _double

    monkeypatch.setenv("REPRO_FLIGHTREC_DIR", str(tmp_path))
    recorder().clear()
    outcomes = run_tasks(
        [Task("ok", _double, (2,)), Task("bad", _boom, ())],
        jobs=2,
        retries=0,
    )
    by_name = {o.name: o for o in outcomes}
    assert by_name["ok"].value == 4
    assert not by_name["bad"].ok
    bundles = sorted(tmp_path.glob("flightrec-*.json"))
    assert bundles, "worker crash must leave a flight-recorder bundle"
    doc = json.loads(bundles[0].read_text())
    assert validate_flightrec_document(doc) == []
    assert doc["reason"] == "task-failure:bad"
    assert doc["context"].get("task") == "bad"
    names = [e.get("name") for e in doc["events"] if e.get("kind") == "note"]
    assert "pool.task.start" in names
    recorder().clear()
