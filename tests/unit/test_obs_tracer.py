"""Span tracer and trace export.

Ids must be sequence-derived (identical runs → identical ids), the ring
must bound memory while counting drops, and the exported Chrome-trace
document must pass the bundled validator — including the nesting rule
that complete events on one (pid, tid) never partially overlap.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.export import merge_trace_documents, trace_document
from repro.obs.schema import (
    METRICS_SCHEMA_ID,
    TRACE_SCHEMA_ID,
    sniff_schema,
    validate_document,
    validate_trace_document,
)
from repro.obs.tracer import HOST_TRACK, SpanTracer


class FakeClock:
    """Deterministic nanosecond clock for id/timestamp assertions."""

    def __init__(self) -> None:
        self.t = 1_000_000

    def __call__(self) -> int:
        self.t += 1_000
        return self.t


def make_tracer(**kw) -> SpanTracer:
    return SpanTracer(clock=FakeClock(), **kw)


def test_span_nesting_and_parent_ids():
    tr = make_tracer()
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            assert inner["parent"] == outer["id"]
        assert tr.open_depth == 1
    assert tr.open_depth == 0
    names = [r["name"] for r in tr.records()]
    # Inner commits first (it ends first).
    assert names == ["inner", "outer"]


def test_ids_are_sequence_derived_and_run_stable():
    ids_a = [r["id"] for r in _run_fixed_workload().records()]
    ids_b = [r["id"] for r in _run_fixed_workload().records()]
    assert ids_a == ids_b
    # Ids are assigned 1..N from the sequence counter (commit order may
    # differ from begin order — inner spans commit first).
    assert set(ids_a) == set(range(1, len(ids_a) + 1))


def _run_fixed_workload() -> SpanTracer:
    tr = make_tracer()
    track = tr.new_track("machine")
    with tr.span("suite"):
        for i, name in enumerate(("e1", "e2")):
            with tr.span(name):
                tr.instant("tick", track=track, sim_ns=5 + 20 * i)
                tr.complete(
                    "batch",
                    track=track,
                    t0_wall_ns=0,
                    sim_t0_ns=20 * i,
                    sim_t1_ns=20 * i + 9,
                )
    return tr


def test_end_without_begin_raises():
    tr = make_tracer()
    with pytest.raises(ConfigurationError):
        tr.end()


def test_span_unwinds_mismatched_begins():
    tr = make_tracer()
    with tr.span("outer"):
        tr.begin("leaked")  # body forgets to end()
    assert tr.open_depth == 0
    assert [r["name"] for r in tr.records()] == ["leaked", "outer"]


def test_ring_bounds_memory_and_counts_drops():
    tr = make_tracer(max_events=3)
    for i in range(5):
        tr.instant(f"i{i}")
    assert len(tr) == 3
    assert tr.dropped == 2
    assert [r["name"] for r in tr.records()] == ["i2", "i3", "i4"]


def test_max_events_validated():
    with pytest.raises(ConfigurationError):
        SpanTracer(max_events=0)


def test_new_track_is_deterministic():
    tr = make_tracer()
    assert tr.new_track("machine") == "machine0"
    assert tr.new_track("machine") == "machine1"
    assert tr.new_track("pool") == "pool0"


def test_spans_and_instants_filters():
    tr = _run_fixed_workload()
    assert len(tr.spans()) == 5
    assert len(tr.spans("batch")) == 2
    assert len(tr.instants("tick")) == 2
    assert tr.instants("absent") == []


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_trace_document_validates_and_round_trips():
    import json

    doc = trace_document(_run_fixed_workload(), run="test")
    assert validate_trace_document(doc) == []
    assert sniff_schema(doc) == TRACE_SCHEMA_ID
    assert doc["otherData"]["run"] == "test"
    rt = json.loads(json.dumps(doc))
    assert validate_document(rt) == []
    assert rt == doc


def test_sim_axis_routing():
    tr = make_tracer()
    track = tr.new_track("machine")
    tr.complete(
        "sim.dispatch", track=track, t0_wall_ns=0, sim_t0_ns=100, sim_t1_ns=900
    )
    tr.instant("sched_waking", track=track, sim_ns=500, cpu=3)
    doc = trace_document(tr)
    span = next(e for e in doc["traceEvents"] if e["name"] == "sim.dispatch")
    inst = next(e for e in doc["traceEvents"] if e["name"] == "sched_waking")
    # Sim-time microseconds, machine pid distinct from host, cpu thread.
    assert span["ts"] == pytest.approx(0.1)
    assert span["dur"] == pytest.approx(0.8)
    assert span["pid"] != 1 and span["tid"] == 0
    assert inst["tid"] == 4
    thread_names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "thread_name"
    }
    assert thread_names[(span["pid"], 0)] == "sim"
    assert thread_names[(inst["pid"], 4)] == "cpu3"


def test_host_spans_use_wall_axis():
    tr = make_tracer()
    with tr.span("suite"):
        pass
    doc = trace_document(tr)
    span = next(e for e in doc["traceEvents"] if e["name"] == "suite")
    assert span["pid"] == 1 and span["tid"] == 1
    assert span["dur"] > 0


def test_lanes_keep_concurrent_spans_valid():
    tr = make_tracer()
    track = tr.new_track("pool")
    # Two overlapping wall-time windows — invalid on one tid, fine on two.
    tr.complete("t1", track=track, t0_wall_ns=0, t1_wall_ns=10_000, lane=1)
    tr.complete("t2", track=track, t0_wall_ns=5_000, t1_wall_ns=15_000, lane=2)
    assert validate_trace_document(trace_document(tr)) == []


def test_nesting_validator_rejects_partial_overlap():
    tr = make_tracer()
    tr.complete("a", t0_wall_ns=0, t1_wall_ns=10_000)
    tr.complete("b", t0_wall_ns=5_000, t1_wall_ns=15_000)  # same pid/tid
    problems = validate_trace_document(trace_document(tr))
    assert any("overlap" in p for p in problems)


@pytest.mark.parametrize("axis", ["wall", "sim"])
def test_touching_spans_at_epoch_magnitude_validate(axis):
    # ts + (t1 - t0) / 1000 rounds to 1000598804.7340001 here, one ulp
    # past the next span's start; the export must keep them touching.
    t0, t1, t2 = 1000591682483, 1000598804734, 1000599000000
    tr = make_tracer()
    track = HOST_TRACK if axis == "wall" else tr.new_track("sim")
    for name, start, end in (("http.accept", t0, t1), ("queue.wait", t1, t2)):
        if axis == "wall":
            tr.complete(name, track=track, t0_wall_ns=start, t1_wall_ns=end)
        else:
            tr.complete(
                name,
                track=track,
                t0_wall_ns=0,
                t1_wall_ns=1,
                sim_t0_ns=start,
                sim_t1_ns=end,
            )
    doc = trace_document(tr)
    assert validate_trace_document(doc) == []
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert spans[0]["ts"] + spans[0]["dur"] == spans[1]["ts"] == t1 / 1000


def test_merge_remaps_pids_and_validates():
    docs = [trace_document(_run_fixed_workload()) for _ in range(2)]
    merged = merge_trace_documents(docs)
    assert validate_trace_document(merged) == []
    names = {
        e["args"]["name"]
        for e in merged["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert {"run0:host", "run1:host"} <= names
    assert merged["otherData"]["merged"] == 2


def test_merge_labels_name_processes_and_keep_shared_trace_id():
    docs = [
        trace_document(_run_fixed_workload(), entry=name)
        for name in ("fig3", "sec5a")
    ]
    for doc in docs:
        doc["otherData"]["trace_id"] = "abc123"
    merged = merge_trace_documents(docs, labels=["fig3", "sec5a"])
    assert validate_trace_document(merged) == []
    names = {
        e["args"]["name"]
        for e in merged["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert {"fig3:host", "sec5a:host"} <= names
    # Every input carried the same trace id, so the merge keeps it.
    assert merged["otherData"]["trace_id"] == "abc123"


def test_merge_drops_trace_id_on_disagreement():
    docs = [trace_document(_run_fixed_workload()) for _ in range(2)]
    docs[0]["otherData"]["trace_id"] = "aaa"
    docs[1]["otherData"]["trace_id"] = "bbb"
    merged = merge_trace_documents(docs)
    assert "trace_id" not in merged["otherData"]


def test_merge_label_count_must_match():
    docs = [trace_document(_run_fixed_workload())]
    with pytest.raises(ConfigurationError):
        merge_trace_documents(docs, labels=["a", "b"])


def test_merge_keeps_span_ids_unique_per_remapped_pid():
    """Worker-trace round-trip: every worker restarts its span-id counter
    at 1, so uniqueness is only meaningful per process — pid remapping
    must preserve it, and strict nesting must survive on every track."""
    docs = [trace_document(_run_fixed_workload()) for _ in range(3)]
    merged = merge_trace_documents(docs, labels=["w0", "w1", "w2"])
    assert validate_trace_document(merged) == []
    seen: set[tuple[int, int]] = set()
    spans = [e for e in merged["traceEvents"] if e.get("ph") == "X"]
    for event in spans:
        span_id = event["args"].get("span_id")
        if span_id is None:
            continue
        key = (event["pid"], span_id)
        assert key not in seen, f"duplicate span id {key} after remap"
        seen.add(key)
    # Identical inputs: the same per-document ids repeat across pids.
    assert len({sid for _, sid in seen}) < len(seen)
    assert merged["otherData"]["records"] == sum(
        d["otherData"]["records"] for d in docs
    )


def test_trace_id_exported_and_minted_deterministically():
    from repro.obs.tracer import mint_trace_id

    a = mint_trace_id("suite", 0, 0.02, "EPYC 7502", None, "fig3")
    b = mint_trace_id("suite", 0, 0.02, "EPYC 7502", None, "fig3")
    assert a == b and len(a) == 16
    assert mint_trace_id("suite", 1, 0.02, "EPYC 7502", None, "fig3") != a
    tr = make_tracer(trace_id=a)
    with tr.span("suite"):
        pass
    assert trace_document(tr)["otherData"]["trace_id"] == a
    assert "trace_id" not in trace_document(make_tracer())["otherData"]


def test_sniff_schema_distinguishes_documents():
    from repro.obs.metrics import MetricsRegistry

    assert sniff_schema(MetricsRegistry().snapshot()) == METRICS_SCHEMA_ID
    assert sniff_schema({"schema": "nope"}) == "nope"
    assert sniff_schema([1, 2]) is None
    assert validate_document({"schema": "nope"})  # unknown schema: problems
