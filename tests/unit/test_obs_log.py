"""Structured logging: correlation envelope and sinks.

Records must carry the trace correlation of the bound tracer (trace_id
plus the innermost open span id) and reach the sink as one sorted JSON
line each.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import Obs
from repro.obs.log import StructuredLogger
from repro.obs.tracer import SpanTracer


class FakeClock:
    def __init__(self) -> None:
        self.t = 1_000_000

    def __call__(self) -> int:
        self.t += 1_000
        return self.t


def make_logger(**kw) -> StructuredLogger:
    return StructuredLogger(clock=FakeClock(), **kw)


def sink_records(stream: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def test_record_envelope_and_free_fields():
    stream = io.StringIO()
    log = make_logger(stream=stream)
    rec = log.info("job.admitted", job_id="job-000001", tenant="t0")
    assert rec["level"] == "info"
    assert rec["event"] == "job.admitted"
    assert rec["job_id"] == "job-000001"
    assert rec["tenant"] == "t0"
    assert rec["t_wall_ns"] >= 0
    # Unbound logger: correlation fields present but null.
    assert rec["trace_id"] is None and rec["span_id"] is None
    assert sink_records(stream) == [rec]


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
    stream = io.StringIO()
    obs = Obs(trace_id="deadbeef", log_stream=stream)
    with obs.tracer.span("suite"):
        obs.log.info("tick")
    (record,) = sink_records(stream)
    assert record["trace_id"] == "deadbeef"
