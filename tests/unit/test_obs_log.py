"""Structured logging: correlation envelope, sinks, schema.

Records must carry the trace correlation of the bound tracer (trace_id
plus the innermost open span id), the in-memory tail must stay bounded,
and the ``repro.obs/log`` export must pass ``validate_log_document``
for good documents and name every defect in bad ones.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import Obs
from repro.obs.log import StructuredLogger, log_document
from repro.obs.schema import (
    LOG_SCHEMA_ID,
    sniff_schema,
    validate_document,
    validate_log_document,
)
from repro.obs.tracer import SpanTracer


class FakeClock:
    def __init__(self) -> None:
        self.t = 1_000_000

    def __call__(self) -> int:
        self.t += 1_000
        return self.t


def make_logger(**kw) -> StructuredLogger:
    return StructuredLogger(clock=FakeClock(), **kw)


def test_record_envelope_and_free_fields():
    log = make_logger()
    rec = log.info("job.admitted", job_id="job-000001", tenant="t0")
    assert rec["level"] == "info"
    assert rec["event"] == "job.admitted"
    assert rec["job_id"] == "job-000001"
    assert rec["tenant"] == "t0"
    assert rec["t_wall_ns"] >= 0
    # Unbound logger: correlation fields present but null.
    assert rec["trace_id"] is None and rec["span_id"] is None
    assert log.records() == [rec]


def test_trace_correlation_from_bound_tracer():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock, trace_id="abc123")
    log = StructuredLogger(tracer=tracer, clock=clock)
    with tracer.span("outer"):
        rec = log.info("inside")
    outside = log.info("after")
    assert rec["trace_id"] == "abc123"
    assert rec["span_id"] == 1  # the open span's sequence id
    assert outside["span_id"] is None


def test_level_and_field_validation():
    log = make_logger()
    with pytest.raises(ConfigurationError):
        log.log("loud", "event")
    with pytest.raises(ConfigurationError):
        log.log("info", "")
    with pytest.raises(ConfigurationError):
        log.info("event", trace_id="spoofed")  # reserved envelope key


def test_tail_bounds_memory_and_counts_drops():
    log = make_logger(max_records=2)
    for i in range(4):
        log.debug(f"e{i}")
    assert len(log) == 2
    assert log.dropped == 2
    assert [r["event"] for r in log.records()] == ["e2", "e3"]


def test_stream_sink_emits_sorted_json_lines():
    stream = io.StringIO()
    log = make_logger(stream=stream)
    log.warning("pool.task.failed", task="t1", failure_kind="crash")
    line = stream.getvalue().strip()
    parsed = json.loads(line)
    assert parsed["event"] == "pool.task.failed"
    assert line == json.dumps(parsed, sort_keys=True)


def test_path_sink_appends_and_close_is_idempotent(tmp_path):
    path = tmp_path / "service.jsonl"
    log = make_logger(path=str(path))
    log.info("one")
    log.info("two")
    log.close()
    log.close()
    lines = path.read_text().splitlines()
    assert [json.loads(ln)["event"] for ln in lines] == ["one", "two"]


def test_stream_and_path_are_exclusive(tmp_path):
    with pytest.raises(ConfigurationError):
        StructuredLogger(stream=io.StringIO(), path=str(tmp_path / "x"))


def test_obs_bundle_wires_logger_to_tracer():
    obs = Obs(trace_id="deadbeef")
    with obs.tracer.span("suite"):
        obs.log.info("tick")
    doc = obs.log_document()
    assert doc["records"][0]["trace_id"] == "deadbeef"


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def test_log_document_validates_and_round_trips():
    log = make_logger()
    log.info("a", n=1)
    log.error("b")
    doc = log_document(log.records())
    assert validate_log_document(doc) == []
    assert sniff_schema(doc) == LOG_SCHEMA_ID
    rt = json.loads(json.dumps(doc))
    assert validate_document(rt) == []
    assert rt == doc


@pytest.mark.parametrize(
    "mutate",
    [
        {"schema": "repro.obs/nope"},
        {"schema_version": 99},
        {"pid": "not-an-int"},
        {"records": "not-a-list"},
        {"records": [{"level": "loud", "event": "e", "t_wall_ns": 0, "pid": 1}]},
        {"records": [{"level": "info", "event": "", "t_wall_ns": 0, "pid": 1}]},
        {"records": [{"level": "info", "event": "e", "pid": 1}]},
        {"records": [17]},
    ],
)
def test_log_validator_rejects_defects(mutate):
    log = make_logger()
    log.info("ok")
    doc = log_document(log.records())
    doc.update(mutate)
    assert validate_log_document(doc) != []
