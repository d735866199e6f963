# Determinism note: like the tracer, the flight recorder is host-side
# diagnostics — it stamps ring events with the wall clock taken as a
# clock *reference* (perf_counter_ns, so DET001 sees no call site), and
# nothing it records ever flows back into simulated state.
"""Always-on crash flight recorder: a bounded ring of recent events.

Every process keeps one :class:`FlightRecorder` (the module singleton
returned by :func:`recorder`): a fixed-capacity deque of the most recent
observability events — tracer spans and instants (fed by
:class:`~repro.obs.tracer.SpanTracer` whenever tracing is active),
structured log records (fed by :class:`~repro.obs.log.StructuredLogger`),
and unconditional coarse breadcrumbs at cold orchestration boundaries
(suite entry start/end, pool task shells).  The ring costs one deque
append per recorded event and nothing at all on the uninstrumented
simulator dispatch path: an untraced suite entry pushes exactly its two
``suite.entry`` notes, however many events it dispatches.

When something dies — a pool task raises, an invariant trips, a service
job fails — :func:`dump_bundle` freezes the ring into a schema-tagged
``repro.obs/flightrec`` v1 bundle (last-N events, optional metrics
snapshot, config fingerprint and cache-key digests) and writes it to the
directory named by ``$REPRO_FLIGHTREC_DIR`` (no directory configured =
no file, the ring alone).  ``repro-zen2 obs report`` digests bundles;
``repro-zen2 obs validate`` checks them.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.obs.schema import FLIGHTREC_SCHEMA_ID, FLIGHTREC_SCHEMA_VERSION

#: Default ring capacity — enough tail to see what led up to a crash
#: while bounding the bundle to a few hundred KB.
DEFAULT_CAPACITY = 4096

#: Environment variable naming the bundle output directory.
ENV_DIR = "REPRO_FLIGHTREC_DIR"


class FlightRecorder:
    """Bounded ring of recent observability events for one process."""

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        clock: Callable[[], int] | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._clock = clock if clock is not None else time.perf_counter_ns
        self._epoch_ns = self._clock()
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
        #: Events evicted because the ring was full.
        self.dropped = 0
        #: Free-form process context merged into every bundle (e.g. the
        #: suite entry a worker is running, a service job id).
        self.context: dict[str, Any] = {}

    def push(self, record: dict[str, Any]) -> None:
        """Append one pre-built event dict (tracer span/instant, log record).

        Fed from the tracer commit path, so it stays one bounded-deque
        append.
        """
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append(record)

    def note(self, name: str, **fields: Any) -> dict[str, Any]:
        """Record a breadcrumb: cheap, unconditional, cold-path only."""
        record: dict[str, Any] = {
            "kind": "note",
            "name": name,
            "t_wall_ns": self._clock() - self._epoch_ns,
        }
        if fields:
            record["args"] = fields
        self.push(record)
        return record

    def events(self) -> list[dict[str, Any]]:
        """The retained events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        """Reset the ring (tests and long-lived daemons between jobs)."""
        self._events.clear()
        self.dropped = 0
        self.context.clear()

    def __len__(self) -> int:
        return len(self._events)


#: The per-process always-on recorder.  Workers forked by the pool
#: inherit a copy at fork time and keep recording independently.
_RECORDER = FlightRecorder()

#: Monotonic bundle counter, so one process can dump repeatedly without
#: clobbering earlier bundles (sequence-derived, never wall clock).
_DUMP_SEQ = 0


def recorder() -> FlightRecorder:
    """This process's flight recorder."""
    return _RECORDER


def flightrec_document(
    rec: FlightRecorder,
    reason: str,
    *,
    metrics: dict[str, Any] | None = None,
    config: dict[str, Any] | None = None,
    cache_keys: list[str] | None = None,
    trace_id: str | None = None,
) -> dict[str, Any]:
    """Freeze a recorder into the ``repro.obs/flightrec`` v1 bundle
    (this schema's one writer site)."""
    return {
        "schema": FLIGHTREC_SCHEMA_ID,
        "schema_version": FLIGHTREC_SCHEMA_VERSION,
        "reason": str(reason),
        "pid": os.getpid(),
        "events": rec.events(),
        "dropped": int(rec.dropped),
        "context": dict(rec.context),
        "trace_id": trace_id,
        "metrics": metrics,
        "config": config,
        "cache_keys": sorted(cache_keys or []),
    }


def dump_dir() -> str | None:
    """The configured bundle directory, or None (dumping disabled)."""
    return os.environ.get(ENV_DIR) or None


def dump_bundle(
    doc: dict[str, Any], *, directory: str | None = None
) -> str | None:
    """Write a bundle document to the configured directory.

    Returns the file path, or None when no directory is configured —
    the ring still holds the events, there is just nowhere to put them.
    The write is atomic (rename) so a half-written bundle never passes
    validation.
    """
    global _DUMP_SEQ
    directory = directory if directory is not None else dump_dir()
    if directory is None:
        return None
    os.makedirs(directory, exist_ok=True)
    _DUMP_SEQ += 1
    name = f"flightrec-{os.getpid()}-{_DUMP_SEQ:04d}.json"
    path = os.path.join(directory, name)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def record_crash(
    reason: str,
    *,
    metrics: dict[str, Any] | None = None,
    config: dict[str, Any] | None = None,
    cache_keys: list[str] | None = None,
    trace_id: str | None = None,
    directory: str | None = None,
) -> str | None:
    """Breadcrumb + bundle in one call — the crash-path convenience.

    Used by the pool task shell, the invariant monitor, and the service
    job-failure path; safe to call with no directory configured.
    """
    rec = recorder()
    rec.note("flightrec.dump", reason=str(reason))
    doc = flightrec_document(
        rec,
        reason,
        metrics=metrics,
        config=config,
        cache_keys=cache_keys,
        trace_id=trace_id,
    )
    return dump_bundle(doc, directory=directory)


def summarize_flightrec(doc: dict[str, Any]) -> str:
    """Human-readable digest of one bundle (``repro-zen2 obs report``)."""
    events = doc.get("events") or []
    kinds: dict[str, int] = {}
    for ev in events:
        if isinstance(ev, dict):
            kind = str(ev.get("kind", "?"))
            kinds[kind] = kinds.get(kind, 0) + 1
    lines = [
        f"flight recorder bundle: pid {doc.get('pid')}, "
        f"{len(events)} event(s), {doc.get('dropped', 0)} dropped",
        f"  reason:   {doc.get('reason')}",
    ]
    if doc.get("trace_id"):
        lines.append(f"  trace_id: {doc['trace_id']}")
    context = doc.get("context") or {}
    if context:
        ctx = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
        lines.append(f"  context:  {ctx}")
    if kinds:
        mix = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        lines.append(f"  events:   {mix}")
    config = doc.get("config") or {}
    if config:
        lines.append(f"  config:   {len(config)} fingerprint field(s)")
    cache_keys = doc.get("cache_keys") or []
    if cache_keys:
        lines.append(f"  cache:    {len(cache_keys)} entry key digest(s)")
    metrics = doc.get("metrics")
    if isinstance(metrics, dict):
        lines.append(
            f"  metrics:  {len(metrics.get('metrics', []))} families at dump"
        )
    tail = [ev for ev in events if isinstance(ev, dict)][-8:]
    if tail:
        lines.append("  tail:")
        for ev in tail:
            label = ev.get("name") or ev.get("event") or "?"
            lines.append(f"    {ev.get('kind', '?'):<8s} {label}")
    return "\n".join(lines)
