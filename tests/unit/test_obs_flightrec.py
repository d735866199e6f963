"""Crash flight recorder: ring, feeds, bundle schema, dump gating.

The ring must stay bounded while counting drops, the tracer and logger
must feed it automatically, bundles must only reach disk when a
directory is configured (atomically, with sequence-derived names), and
``validate_flightrec_document`` must accept the writer's output and
name every defect in corrupted bundles.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.obs import Obs
from repro.obs.flightrec import (
    ENV_DIR,
    FlightRecorder,
    dump_bundle,
    dump_dir,
    flightrec_document,
    record_crash,
    recorder,
    summarize_flightrec,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel import Task, run_tasks
from repro.obs.schema import (
    FLIGHTREC_SCHEMA_ID,
    sniff_schema,
    validate_document,
    validate_flightrec_document,
)


@pytest.fixture(autouse=True)
def clean_recorder(monkeypatch):
    """Isolate each test from the process singleton and the env gate."""
    monkeypatch.delenv(ENV_DIR, raising=False)
    recorder().clear()
    yield
    recorder().clear()


class FakeClock:
    def __init__(self) -> None:
        self.t = 1_000_000

    def __call__(self) -> int:
        self.t += 1_000
        return self.t


def test_ring_bounds_memory_and_counts_drops():
    rec = FlightRecorder(capacity=3, clock=FakeClock())
    for i in range(5):
        rec.note(f"n{i}")
    assert len(rec) == 3
    assert rec.dropped == 2
    assert [e["name"] for e in rec.events()] == ["n2", "n3", "n4"]


def test_capacity_validated():
    with pytest.raises(ConfigurationError):
        FlightRecorder(capacity=0)


def test_note_carries_args_and_clear_resets():
    rec = FlightRecorder(clock=FakeClock())
    rec.context["entry"] = "fig3"
    rec.note("suite.entry.start", entry="fig3", seed=0)
    event = rec.events()[0]
    assert event["kind"] == "note"
    assert event["args"] == {"entry": "fig3", "seed": 0}
    rec.clear()
    assert len(rec) == 0 and rec.dropped == 0 and rec.context == {}


def test_tracer_and_logger_feed_the_process_ring():
    obs = Obs(trace_id="feedbeef")
    with obs.tracer.span("suite"):
        obs.log.info("tick")
    kinds = [e["kind"] for e in recorder().events()]
    assert "log" in kinds and "span" in kinds
    log_event = next(e for e in recorder().events() if e["kind"] == "log")
    assert log_event["trace_id"] == "feedbeef"


def _raise_value_error() -> None:
    raise ValueError("injected")  # EXC001: injected fault for the test


def test_failed_pool_task_leaves_only_valid_events():
    # The pool logs the failure's kind; the ring event's own kind stays "log".
    (outcome,) = run_tasks(
        [Task("t1", _raise_value_error)], jobs=1, retries=0, obs=Obs()
    )
    assert not outcome.ok
    (failed,) = [
        e for e in recorder().events() if e.get("event") == "pool.task.failed"
    ]
    assert failed["kind"] == "log"
    assert failed["failure_kind"] == outcome.failure.kind
    assert validate_flightrec_document(flightrec_document(recorder(), "probe")) == []


def test_untraced_suite_feeds_only_the_entry_notes():
    # The ring-feed cost of an untraced run, in exact form: two notes per
    # suite entry, however many events the entries dispatch.
    from repro.core.experiment import ExperimentConfig
    from repro.core.suite import run_suite

    rec = recorder()
    result = run_suite(
        ExperimentConfig(seed=2021, scale=0.02),
        only=["sec7_rapl_update_rate", "fig3_transition_delay"],
    )
    assert result.all_ok
    assert len(rec) + rec.dropped == 4
    assert [(e["name"], e["args"]["entry"]) for e in rec.events()] == [
        ("suite.entry.start", "sec7_rapl_update_rate"),
        ("suite.entry.end", "sec7_rapl_update_rate"),
        ("suite.entry.start", "fig3_transition_delay"),
        ("suite.entry.end", "fig3_transition_delay"),
    ]


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------


def _bundle(**kw) -> dict:
    rec = FlightRecorder(clock=FakeClock())
    rec.context["task"] = "t1"
    rec.note("pool.task.start", task="t1")
    defaults = dict(
        metrics=MetricsRegistry().snapshot(),
        config={"seed": 0, "scale": 0.02},
        cache_keys=["ab12", "cd34"],
        trace_id="abc123",
    )
    defaults.update(kw)
    return flightrec_document(rec, "task-failure:t1", **defaults)


def test_bundle_validates_and_round_trips():
    doc = _bundle()
    assert validate_flightrec_document(doc) == []
    assert sniff_schema(doc) == FLIGHTREC_SCHEMA_ID
    assert doc["cache_keys"] == ["ab12", "cd34"]  # sorted
    rt = json.loads(json.dumps(doc))
    assert validate_document(rt) == []
    assert rt == doc


def test_optional_sections_may_be_absent():
    doc = _bundle(metrics=None, config=None, cache_keys=None, trace_id=None)
    assert validate_flightrec_document(doc) == []


@pytest.mark.parametrize(
    "mutate",
    [
        {"schema": "repro.obs/nope"},
        {"schema_version": 99},
        {"reason": ""},
        {"pid": "not-an-int"},
        {"events": "not-a-list"},
        {"events": [{"kind": "mystery"}]},
        {"dropped": -1},
        {"context": []},
        {"trace_id": 7},
        {"metrics": {"schema": "repro.obs/metrics", "schema_version": 99}},
        {"cache_keys": [17]},
    ],
)
def test_flightrec_validator_rejects_defects(mutate):
    doc = _bundle()
    doc.update(mutate)
    assert validate_flightrec_document(doc) != []


def test_dump_is_gated_on_configured_directory(tmp_path, monkeypatch):
    doc = _bundle()
    assert dump_dir() is None
    assert dump_bundle(doc) is None  # no directory: ring only, no file
    monkeypatch.setenv(ENV_DIR, str(tmp_path))
    path = dump_bundle(doc)
    assert path is not None and os.path.dirname(path) == str(tmp_path)
    on_disk = json.loads(open(path).read())
    assert validate_flightrec_document(on_disk) == []
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_dump_sequence_never_clobbers(tmp_path):
    doc = _bundle()
    p1 = dump_bundle(doc, directory=str(tmp_path))
    p2 = dump_bundle(doc, directory=str(tmp_path))
    assert p1 != p2
    assert sorted(os.listdir(tmp_path)) == sorted(
        os.path.basename(p) for p in (p1, p2)
    )


def test_record_crash_notes_then_dumps(tmp_path):
    path = record_crash(
        "invariant-violation:PWR001",
        trace_id="abc123",
        directory=str(tmp_path),
    )
    doc = json.loads(open(path).read())
    assert validate_flightrec_document(doc) == []
    assert doc["reason"] == "invariant-violation:PWR001"
    assert doc["trace_id"] == "abc123"
    notes = [e for e in doc["events"] if e.get("kind") == "note"]
    assert notes[-1]["name"] == "flightrec.dump"


def test_summarize_names_reason_context_and_tail():
    doc = _bundle()
    digest = summarize_flightrec(doc)
    assert "task-failure:t1" in digest
    assert "trace_id: abc123" in digest
    assert "task=t1" in digest
    assert "pool.task.start" in digest
