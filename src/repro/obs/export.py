"""Export :class:`~repro.obs.tracer.SpanTracer` records to Chrome trace JSON.

The output is the Chrome trace-event format (the ``{"traceEvents": [...]}``
object form), which both ``chrome://tracing`` and Perfetto load directly.
Top-level ``schema``/``schema_version`` keys tag it as ``repro.obs/trace``
v1 — trace viewers ignore unknown keys, and ``repro-zen2 obs validate``
dispatches on them.

Track model
-----------

* The ``host`` track becomes pid 1 on the **wall-clock** axis
  (microseconds since the tracer epoch): suite → experiment → measure
  spans nest on tid 1.
* Every other track (one per machine, assigned by
  :meth:`SpanTracer.new_track`) becomes its own process on the
  **sim-time** axis: dispatch spans and invariant findings land on tid 0
  (``sim``), and bridged :class:`~repro.oslayer.tracing.TraceBuffer`
  tracepoints land on one merged thread per CPU (tid = cpu + 1), so
  ``sched_waking`` / ``power_cpu_frequency`` events from different
  tracepoints share a single per-CPU Perfetto track.

Records that carry a sim-time interval keep their wall-clock interval in
``args`` (and vice versa), so neither clock is lost in export.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.obs.schema import TRACE_SCHEMA_ID, TRACE_SCHEMA_VERSION
from repro.obs.tracer import HOST_TRACK, SpanTracer

_HOST_PID = 1
_HOST_TID = 1
_SIM_TID = 0


def _track_pids(tracer: SpanTracer) -> dict[str, int]:
    pids = {HOST_TRACK: _HOST_PID}
    for record in tracer.records():
        track = record["track"]
        if track not in pids:
            pids[track] = _HOST_PID + len(pids)
    return pids


def _span_event(
    record: dict[str, Any], pid: int, labels: dict[tuple[int, int], str]
) -> dict[str, Any]:
    args = dict(record["args"])
    args["span_id"] = record["id"]
    if record["parent"]:
        args["parent_id"] = record["parent"]
    sim_axis = (
        record["track"] != HOST_TRACK
        and "t0_sim_ns" in record
        and "t1_sim_ns" in record
    )
    # ``dur`` is end minus start in microseconds, not the rescaled
    # nanosecond difference: ``ts + dur`` must land on the span's end, or
    # it can round one ulp past a touching span and read as an overlap.
    if sim_axis:
        ts = record["t0_sim_ns"] / 1000.0
        dur = record["t1_sim_ns"] / 1000.0 - ts
        args["wall_dur_ns"] = record["t1_wall_ns"] - record["t0_wall_ns"]
        tid = _SIM_TID
        labels.setdefault((pid, tid), "sim")
    else:
        ts = record["t0_wall_ns"] / 1000.0
        dur = record["t1_wall_ns"] / 1000.0 - ts
        if "t0_sim_ns" in record:
            args["sim_t0_ns"] = record["t0_sim_ns"]
        if "t1_sim_ns" in record:
            args["sim_t1_ns"] = record["t1_sim_ns"]
        tid = record.get("lane", _HOST_TID)
        if pid == _HOST_PID:
            labels.setdefault((pid, tid), "orchestration")
        else:
            labels.setdefault((pid, tid), f"lane{tid}")
    return {
        "name": record["name"],
        "cat": record["cat"],
        "ph": "X",
        "ts": ts,
        "dur": dur,
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def _instant_event(
    record: dict[str, Any], pid: int, labels: dict[tuple[int, int], str]
) -> dict[str, Any]:
    args = dict(record["args"])
    if record["parent"]:
        args["parent_id"] = record["parent"]
    if "severity" in record:
        args["severity"] = record["severity"]
    sim_axis = record["track"] != HOST_TRACK and "t_sim_ns" in record
    if sim_axis:
        ts = record["t_sim_ns"] / 1000.0
        if "cpu" in record:
            tid = record["cpu"] + 1
            # cpu labels win over lane labels if a tid is shared.
            labels[(pid, tid)] = f"cpu{record['cpu']}"
        else:
            tid = _SIM_TID
            labels.setdefault((pid, tid), "sim")
    else:
        ts = record["t_wall_ns"] / 1000.0
        if "t_sim_ns" in record:
            args["sim_t_ns"] = record["t_sim_ns"]
        tid = _HOST_TID
        labels.setdefault((pid, tid), "orchestration" if pid == _HOST_PID else f"lane{tid}")
    return {
        "name": record["name"],
        "cat": record["cat"],
        "ph": "i",
        "s": "t",
        "ts": ts,
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def _metadata_events(
    pids: dict[str, int], labels: dict[tuple[int, int], str]
) -> list[dict[str, Any]]:
    events: list[dict[str, Any]] = []
    for track, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": track},
            }
        )
    for (pid, tid), label in sorted(labels.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            }
        )
    return events


def _trace_envelope(
    events: list[dict[str, Any]], other: dict[str, Any]
) -> dict[str, Any]:
    """The single ``repro.obs/trace`` envelope writer: both export
    paths funnel through here."""
    return {
        "schema": TRACE_SCHEMA_ID,
        "schema_version": TRACE_SCHEMA_VERSION,
        "displayTimeUnit": "ms",
        "traceEvents": events,
        "otherData": other,
    }


def trace_document(tracer: SpanTracer, **other_data: Any) -> dict[str, Any]:
    """Build the ``repro.obs/trace`` v1 document for a tracer's records."""
    pids = _track_pids(tracer)
    labels: dict[tuple[int, int], str] = {}
    body: list[dict[str, Any]] = []
    for record in tracer.records():
        pid = pids[record["track"]]
        if record["kind"] == "span":
            body.append(_span_event(record, pid, labels))
        else:
            body.append(_instant_event(record, pid, labels))
    events = _metadata_events(pids, labels) + body
    other = {"records": len(body), "dropped": tracer.dropped}
    if tracer.trace_id is not None:
        other["trace_id"] = tracer.trace_id
    other.update(other_data)
    return _trace_envelope(events, other)


def merge_trace_documents(
    docs: list[dict[str, Any]], labels: list[str | None] | None = None
) -> dict[str, Any]:
    """Merge trace documents into one, remapping pids to avoid collisions.

    Events keep their per-document timestamps (each document's host epoch
    is its own zero); process names gain a ``run<N>:`` prefix when more
    than one document is merged so the origin stays visible.  ``labels``
    (one per document, None entries fall back to ``run<N>``) replace the
    default prefixes — the suite labels worker documents by entry name,
    the service by job id.  When every input carries the same
    ``otherData.trace_id`` the merged document keeps it, so one request's
    cross-process timeline stays correlated end to end.
    """
    if labels is not None and len(labels) != len(docs):
        raise ConfigurationError(
            f"labels must match docs: {len(labels)} label(s) for "
            f"{len(docs)} document(s)"
        )
    events: list[dict[str, Any]] = []
    other: dict[str, Any] = {"merged": len(docs)}
    trace_ids: set[str] = set()
    next_pid = 1
    for i, doc in enumerate(docs):
        prefix = None
        if labels is not None and labels[i] is not None:
            prefix = labels[i]
        elif len(docs) > 1:
            prefix = f"run{i}"
        remap: dict[int, int] = {}
        for ev in doc.get("traceEvents", []):
            pid = ev.get("pid")
            if pid not in remap:
                remap[pid] = next_pid
                next_pid += 1
            out = dict(ev)
            out["pid"] = remap[pid]
            if (
                prefix is not None
                and len(docs) > 1
                and out.get("ph") == "M"
                and out.get("name") == "process_name"
            ):
                out["args"] = {
                    "name": f"{prefix}:{(ev.get('args') or {}).get('name', '?')}"
                }
            events.append(out)
        doc_other = doc.get("otherData") or {}
        other["dropped"] = other.get("dropped", 0) + doc_other.get("dropped", 0)
        if isinstance(doc_other.get("trace_id"), str):
            trace_ids.add(doc_other["trace_id"])
    other["records"] = sum(
        1 for ev in events if ev.get("ph") != "M"
    )
    if len(trace_ids) == 1:
        other["trace_id"] = trace_ids.pop()
    return _trace_envelope(events, other)


def summarize_trace(doc: dict[str, Any]) -> str:
    """Human-readable per-track / per-name digest of a trace document."""
    tracks: dict[int, str] = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            tracks[ev["pid"]] = (ev.get("args") or {}).get("name", "?")
    spans: dict[tuple[str, str], list[float]] = {}
    instants: dict[tuple[str, str], int] = {}
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        track = tracks.get(ev.get("pid"), str(ev.get("pid")))
        key = (track, ev.get("name", "?"))
        if ph == "X":
            spans.setdefault(key, []).append(float(ev.get("dur", 0.0)))
        elif ph == "i":
            instants[key] = instants.get(key, 0) + 1
    lines = []
    other = doc.get("otherData") or {}
    lines.append(
        f"trace: {other.get('records', '?')} records, "
        f"{other.get('dropped', 0)} dropped, {len(tracks)} tracks"
    )
    for (track, name), durs in sorted(spans.items()):
        total = sum(durs)
        lines.append(
            f"  span    {track:>12s}  {name:<28s} "
            f"n={len(durs):<6d} total={total / 1e6:.3f}s "
            f"max={max(durs) / 1e6:.3f}s"
        )
    for (track, name), n in sorted(instants.items()):
        lines.append(f"  instant {track:>12s}  {name:<28s} n={n}")
    return "\n".join(lines)


def summarize_metrics(doc: dict[str, Any]) -> str:
    """Human-readable digest of a metrics snapshot document."""
    lines = [f"metrics: {len(doc.get('metrics', []))} families"]
    for fam in doc.get("metrics", []):
        name = fam.get("name", "?")
        kind = fam.get("type", "?")
        for s in fam.get("series", []):
            labels = ",".join(
                f"{k}={v}" for k, v in sorted((s.get("labels") or {}).items())
            )
            suffix = f"{{{labels}}}" if labels else ""
            if kind == "histogram":
                value = f"count={s.get('count')} sum={s.get('sum'):.6g}"
            else:
                value = f"{s.get('value'):.6g}"
            lines.append(f"  {kind:<9s} {name}{suffix} = {value}")
    return "\n".join(lines)
