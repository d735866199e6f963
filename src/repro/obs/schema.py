"""Schema ids and validators for the ``repro.obs`` export documents.

* ``repro.obs/metrics`` v1 — the JSON snapshot of a
  :class:`~repro.obs.metrics.MetricsRegistry`;
* ``repro.obs/trace`` v1 — the Chrome-trace-event (Perfetto-loadable)
  timeline produced by :mod:`repro.obs.export`;
* ``repro.obs/log`` v1 — a batch of structured JSON-line log records
  from :class:`~repro.obs.log.StructuredLogger`;
* ``repro.obs/flightrec`` v1 — a crash-diagnostic bundle dumped by
  :mod:`repro.obs.flightrec` (last-N ring events, metrics snapshot,
  config and cache-key digests).

Each validator takes a parsed JSON object and returns a list of
human-readable problems (empty = conforming), re-deriving internal
consistency — e.g. that histogram buckets are cumulative and
complete-span events never partially overlap within a track — rather
than only checking shapes.
The CI traced-smoke job and ``repro-zen2 obs validate`` both run them.
"""

from __future__ import annotations

from typing import Any

METRICS_SCHEMA_ID = "repro.obs/metrics"
METRICS_SCHEMA_VERSION = 1

TRACE_SCHEMA_ID = "repro.obs/trace"
TRACE_SCHEMA_VERSION = 1

LOG_SCHEMA_ID = "repro.obs/log"
LOG_SCHEMA_VERSION = 1

FLIGHTREC_SCHEMA_ID = "repro.obs/flightrec"
FLIGHTREC_SCHEMA_VERSION = 1

_METRIC_TYPES = ("counter", "gauge", "histogram")
_EVENT_PHASES = ("X", "i", "M")

#: Severity levels a structured log record may carry, least to most.
LOG_LEVELS = ("debug", "info", "warning", "error")

#: Record kinds the flight-recorder ring accepts: tracer spans and
#: instants, structured log records, and bare breadcrumb notes.
FLIGHTREC_EVENT_KINDS = ("span", "instant", "log", "note")


def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_labels(labels: Any, where: str, errors: list[str]) -> None:
    if not isinstance(labels, dict):
        errors.append(f"{where}.labels must be an object")
        return
    for key, value in labels.items():
        if not isinstance(key, str) or not isinstance(value, str):
            errors.append(f"{where}.labels must map strings to strings")
            return


# ---------------------------------------------------------------------------
# metrics document
# ---------------------------------------------------------------------------


def validate_metrics_document(doc: object) -> list[str]:
    """Validate a ``repro.obs/metrics`` v1 document."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be a JSON object, got {type(doc).__name__}"]
    if doc.get("schema") != METRICS_SCHEMA_ID:
        errors.append(
            f"schema must be {METRICS_SCHEMA_ID!r}, got {doc.get('schema')!r}"
        )
    if doc.get("schema_version") != METRICS_SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {METRICS_SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
        )
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        errors.append("metrics must be a list")
        return errors
    seen: set[str] = set()
    for i, fam in enumerate(metrics):
        where = f"metrics[{i}]"
        if not isinstance(fam, dict):
            errors.append(f"{where} must be an object")
            continue
        name = fam.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}.name must be a non-empty string")
        else:
            if name in seen:
                errors.append(f"{where}: duplicate metric name {name!r}")
            seen.add(name)
            where = f"metrics[{name}]"
        kind = fam.get("type")
        if kind not in _METRIC_TYPES:
            errors.append(f"{where}.type must be one of {_METRIC_TYPES}")
            continue
        for key in ("help", "unit"):
            if not isinstance(fam.get(key), str):
                errors.append(f"{where}.{key} must be a string")
        series = fam.get("series")
        if not isinstance(series, list):
            errors.append(f"{where}.series must be a list")
            continue
        if kind == "histogram":
            _validate_histogram_family(fam, series, where, errors)
        else:
            for j, s in enumerate(series):
                swhere = f"{where}.series[{j}]"
                if not isinstance(s, dict):
                    errors.append(f"{swhere} must be an object")
                    continue
                _check_labels(s.get("labels"), swhere, errors)
                value = s.get("value")
                if not _is_num(value):
                    errors.append(f"{swhere}.value must be a number")
                elif kind == "counter" and value < 0:
                    errors.append(f"{swhere}.value must be >= 0 for a counter")
        _check_unique_labels(series, where, errors)
    return errors


def _validate_histogram_family(
    fam: dict, series: list, where: str, errors: list[str]
) -> None:
    buckets = fam.get("buckets")
    if (
        not isinstance(buckets, list)
        or not buckets
        or not all(_is_num(b) for b in buckets)
    ):
        errors.append(f"{where}.buckets must be a non-empty list of numbers")
        return
    if buckets != sorted(buckets) or len(set(buckets)) != len(buckets):
        errors.append(f"{where}.buckets must be strictly increasing")
    for j, s in enumerate(series):
        swhere = f"{where}.series[{j}]"
        if not isinstance(s, dict):
            errors.append(f"{swhere} must be an object")
            continue
        _check_labels(s.get("labels"), swhere, errors)
        counts = s.get("bucket_counts")
        if not isinstance(counts, list) or not all(
            _is_int(c) and c >= 0 for c in counts
        ):
            errors.append(
                f"{swhere}.bucket_counts must be a list of non-negative ints"
            )
            continue
        if len(counts) != len(buckets) + 1:
            errors.append(
                f"{swhere}.bucket_counts must have len(buckets)+1 entries "
                "(the +Inf bucket is last)"
            )
            continue
        if any(a > b for a, b in zip(counts, counts[1:])):
            errors.append(
                f"{swhere}.bucket_counts must be cumulative (non-decreasing)"
            )
        count = s.get("count")
        if not _is_int(count) or count < 0:
            errors.append(f"{swhere}.count must be a non-negative int")
        elif counts[-1] != count:
            errors.append(f"{swhere}: +Inf bucket ({counts[-1]}) != count ({count})")
        if not _is_num(s.get("sum")):
            errors.append(f"{swhere}.sum must be a number")


def _check_unique_labels(series: list, where: str, errors: list[str]) -> None:
    seen: set[tuple] = set()
    for s in series:
        if not isinstance(s, dict) or not isinstance(s.get("labels"), dict):
            continue
        key = tuple(sorted((str(k), str(v)) for k, v in s["labels"].items()))
        if key in seen:
            errors.append(f"{where}: duplicate label set {dict(key)!r}")
        seen.add(key)


# ---------------------------------------------------------------------------
# trace document
# ---------------------------------------------------------------------------


def validate_trace_document(doc: object) -> list[str]:
    """Validate a ``repro.obs/trace`` v1 (Chrome trace event) document."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be a JSON object, got {type(doc).__name__}"]
    if doc.get("schema") != TRACE_SCHEMA_ID:
        errors.append(
            f"schema must be {TRACE_SCHEMA_ID!r}, got {doc.get('schema')!r}"
        )
    if doc.get("schema_version") != TRACE_SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {TRACE_SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
        )
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        errors.append("traceEvents must be a list")
        return errors
    span_ids: set[tuple[Any, int]] = set()
    complete: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where} must be an object")
            continue
        ph = ev.get("ph")
        if ph not in _EVENT_PHASES:
            errors.append(f"{where}.ph must be one of {_EVENT_PHASES}")
            continue
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            errors.append(f"{where}.name must be a non-empty string")
        for key in ("pid", "tid"):
            if not _is_int(ev.get(key)):
                errors.append(f"{where}.{key} must be an integer")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}.args must be an object")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not _is_num(ts) or ts < 0:
            errors.append(f"{where}.ts must be a non-negative number")
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not _is_num(dur) or dur < 0:
                errors.append(f"{where}.dur must be a non-negative number")
                continue
            span_id = (ev.get("args") or {}).get("span_id")
            if span_id is not None:
                # Ids are unique per tracer; merged documents remap pids,
                # so uniqueness is scoped to (pid, span_id).
                key = (ev.get("pid"), span_id)
                if key in span_ids:
                    errors.append(f"{where}: duplicate span_id {span_id}")
                span_ids.add(key)
            if _is_int(ev.get("pid")) and _is_int(ev.get("tid")):
                complete.setdefault((ev["pid"], ev["tid"]), []).append(
                    (float(ts), float(ts) + float(dur))
                )
        elif ph == "i" and ev.get("s") not in ("t", "p", "g"):
            errors.append(f"{where}.s must be 't', 'p' or 'g' for an instant")
    for (pid, tid), intervals in sorted(complete.items()):
        errors.extend(_check_nesting(pid, tid, intervals))
    return errors


def _check_nesting(
    pid: int, tid: int, intervals: list[tuple[float, float]]
) -> list[str]:
    """Complete events on one track must nest (contain) — never partially
    overlap — or the viewer renders a corrupted flame graph."""
    stack: list[tuple[float, float]] = []
    for t0, t1 in sorted(intervals):
        while stack and stack[-1][1] <= t0:
            stack.pop()
        if stack and t1 > stack[-1][1]:
            return [
                f"track pid={pid} tid={tid}: span [{t0}, {t1}] partially "
                f"overlaps enclosing span [{stack[-1][0]}, {stack[-1][1]}]"
            ]
        stack.append((t0, t1))
    return []


# ---------------------------------------------------------------------------
# structured-log document
# ---------------------------------------------------------------------------


def _check_log_record(rec: Any, where: str, errors: list[str]) -> None:
    if not isinstance(rec, dict):
        errors.append(f"{where} must be an object")
        return
    if rec.get("level") not in LOG_LEVELS:
        errors.append(f"{where}.level must be one of {LOG_LEVELS}")
    event = rec.get("event")
    if not isinstance(event, str) or not event:
        errors.append(f"{where}.event must be a non-empty string")
    t_wall = rec.get("t_wall_ns")
    if not _is_int(t_wall) or t_wall < 0:
        errors.append(f"{where}.t_wall_ns must be a non-negative integer")
    if not _is_int(rec.get("pid")):
        errors.append(f"{where}.pid must be an integer")
    trace_id = rec.get("trace_id")
    if trace_id is not None and (
        not isinstance(trace_id, str) or not trace_id
    ):
        errors.append(f"{where}.trace_id must be null or a non-empty string")
    span_id = rec.get("span_id")
    if span_id is not None and (not _is_int(span_id) or span_id < 1):
        errors.append(f"{where}.span_id must be null or a positive integer")


def validate_log_document(doc: object) -> list[str]:
    """Validate a ``repro.obs/log`` v1 document."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be a JSON object, got {type(doc).__name__}"]
    if doc.get("schema") != LOG_SCHEMA_ID:
        errors.append(
            f"schema must be {LOG_SCHEMA_ID!r}, got {doc.get('schema')!r}"
        )
    if doc.get("schema_version") != LOG_SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {LOG_SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
        )
    if not _is_int(doc.get("pid")):
        errors.append("pid must be an integer")
    records = doc.get("records")
    if not isinstance(records, list):
        errors.append("records must be a list")
        return errors
    for i, rec in enumerate(records):
        _check_log_record(rec, f"records[{i}]", errors)
    return errors


# ---------------------------------------------------------------------------
# flight-recorder bundle
# ---------------------------------------------------------------------------


def validate_flightrec_document(doc: object) -> list[str]:
    """Validate a ``repro.obs/flightrec`` v1 diagnostic bundle."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be a JSON object, got {type(doc).__name__}"]
    if doc.get("schema") != FLIGHTREC_SCHEMA_ID:
        errors.append(
            f"schema must be {FLIGHTREC_SCHEMA_ID!r}, got {doc.get('schema')!r}"
        )
    if doc.get("schema_version") != FLIGHTREC_SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {FLIGHTREC_SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
        )
    reason = doc.get("reason")
    if not isinstance(reason, str) or not reason:
        errors.append("reason must be a non-empty string")
    if not _is_int(doc.get("pid")):
        errors.append("pid must be an integer")
    dropped = doc.get("dropped")
    if not _is_int(dropped) or dropped < 0:
        errors.append("dropped must be a non-negative integer")
    trace_id = doc.get("trace_id")
    if trace_id is not None and (
        not isinstance(trace_id, str) or not trace_id
    ):
        errors.append("trace_id must be null or a non-empty string")
    if not isinstance(doc.get("context"), dict):
        errors.append("context must be an object")
    events = doc.get("events")
    if not isinstance(events, list):
        errors.append("events must be a list")
    else:
        for i, ev in enumerate(events):
            where = f"events[{i}]"
            if not isinstance(ev, dict):
                errors.append(f"{where} must be an object")
                continue
            if ev.get("kind") not in FLIGHTREC_EVENT_KINDS:
                errors.append(
                    f"{where}.kind must be one of {FLIGHTREC_EVENT_KINDS}"
                )
            if not isinstance(ev.get("name"), str) and not isinstance(
                ev.get("event"), str
            ):
                errors.append(f"{where} must carry a name or event string")
    metrics = doc.get("metrics")
    if metrics is not None:
        nested = validate_metrics_document(metrics)
        errors.extend(f"metrics: {problem}" for problem in nested)
    config = doc.get("config")
    if config is not None and not isinstance(config, dict):
        errors.append("config must be null or an object (the fingerprint)")
    cache_keys = doc.get("cache_keys")
    if not isinstance(cache_keys, list) or not all(
        isinstance(k, str) and k for k in cache_keys
    ):
        errors.append("cache_keys must be a list of non-empty strings")
    return errors


def sniff_schema(doc: object) -> str | None:
    """The ``schema`` id of a parsed document, if it carries one."""
    if isinstance(doc, dict) and isinstance(doc.get("schema"), str):
        return doc["schema"]
    return None


def validate_document(doc: object) -> list[str]:
    """Dispatch on the document's ``schema`` id."""
    schema = sniff_schema(doc)
    if schema == METRICS_SCHEMA_ID:
        return validate_metrics_document(doc)
    if schema == TRACE_SCHEMA_ID:
        return validate_trace_document(doc)
    if schema == LOG_SCHEMA_ID:
        return validate_log_document(doc)
    if schema == FLIGHTREC_SCHEMA_ID:
        return validate_flightrec_document(doc)
    return [
        f"unknown or missing schema id {schema!r}; expected one of "
        f"{METRICS_SCHEMA_ID!r}, {TRACE_SCHEMA_ID!r}, {LOG_SCHEMA_ID!r}, "
        f"{FLIGHTREC_SCHEMA_ID!r}"
    ]
