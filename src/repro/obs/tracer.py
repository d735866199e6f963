# Determinism note: the tracer is host-side observability — it
# timestamps spans with the wall clock (perf_counter_ns, taken as a
# clock *reference*, so DET001 sees no call site here) by design.  Wall
# times flow only into exported trace documents, never into simulated
# state, and span/event ids are sequence-derived so identical runs get
# identical ids (the determinism golden test pins suite output with
# tracing on vs off).
"""Span tracer: nested sim-time+wall-time spans with ring-buffered events.

A :class:`SpanTracer` records two record kinds into one bounded ring
buffer (oldest records are dropped once ``max_events`` is reached, and
the drop count is kept):

* **spans** — named, nested intervals.  Each span carries wall-clock
  start/end (nanoseconds relative to the tracer's epoch) and, where the
  instrumentation site has a simulator at hand, the sim-time interval it
  covered.  Only *completed* spans enter the buffer, so an exported
  trace never contains a dangling begin.
* **instants** — point events: invariant-monitor findings (with a
  ``severity`` label), bridged :class:`~repro.oslayer.tracing.TraceBuffer`
  tracepoints (``sched_waking``, ``power_cpu_frequency``, ...), pool
  retries, and the like.

Ids are derived from a per-tracer sequence counter — never from the wall
clock — so two identical runs assign identical ids (``repro.obs/trace``
documents differ only in the timings themselves).  Export to the
Chrome-trace-event / Perfetto-loadable JSON form lives in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.errors import ConfigurationError

#: Default ring capacity — ~200k records keeps a full suite run while
#: bounding memory to tens of MB.
DEFAULT_MAX_EVENTS = 200_000

#: Track name every host-side (orchestration) record lands on.
HOST_TRACK = "host"


def mint_trace_id(*parts: Any) -> str:
    """A deterministic 16-hex-char trace id from content parts.

    Content-derived (never wall clock), so identical runs mint identical
    ids: the suite hashes its config fingerprint, the service hashes the
    job id + job key.  Workers inherit the id through the trace context
    the parent ships with each :class:`repro.parallel.Task`.
    """
    blob = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class SpanTracer:
    """Bounded recorder of completed spans and instant events."""

    def __init__(
        self,
        *,
        max_events: int = DEFAULT_MAX_EVENTS,
        clock: Callable[[], int] | None = None,
        trace_id: str | None = None,
        epoch_ns: int | None = None,
    ) -> None:
        if max_events < 1:
            raise ConfigurationError(
                f"max_events must be >= 1, got {max_events}"
            )
        self.max_events = max_events
        self._clock = clock if clock is not None else time.perf_counter_ns
        self._epoch_ns = epoch_ns if epoch_ns is not None else self._clock()
        self._records: deque[dict[str, Any]] = deque(maxlen=max_events)
        self._seq = 0
        self._stack: list[dict[str, Any]] = []
        #: Records dropped because the ring was full.
        self.dropped = 0
        self._track_counters: dict[str, int] = {}
        #: Request-scoped correlation id carried into exported documents
        #: and every structured log record (None = uncorrelated tracer).
        self.trace_id = trace_id

    # ------------------------------------------------------------------
    # identity / clocks
    # ------------------------------------------------------------------

    def _next_id(self) -> int:
        self._seq += 1
        return self._seq

    def now_ns(self) -> int:
        """Wall time relative to the tracer's epoch."""
        return self._clock() - self._epoch_ns

    @property
    def epoch_ns(self) -> int:
        """The absolute clock value this tracer's timestamps are relative
        to.  Passing it to another tracer's ``epoch_ns=`` puts both on
        one time base (the service does this per traced job, so HTTP
        accept / queue wait / suite spans land on a shared axis)."""
        return self._epoch_ns

    @property
    def current_span_id(self) -> int | None:
        """Id of the innermost open span (log correlation), or None."""
        return self._stack[-1]["id"] if self._stack else None

    def new_track(self, prefix: str) -> str:
        """A fresh deterministic track label (``prefix0``, ``prefix1``, ...).

        Used by :meth:`repro.machine.Machine.attach_obs` so every machine
        built during a traced run gets its own stable per-run identity.
        """
        index = self._track_counters.get(prefix, 0)
        self._track_counters[prefix] = index + 1
        return f"{prefix}{index}"

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        if len(self._records) == self.max_events:
            self.dropped += 1
        self._records.append(record)

    def begin(
        self,
        name: str,
        *,
        cat: str = "host",
        track: str = HOST_TRACK,
        sim_ns: int | None = None,
        **args: Any,
    ) -> dict[str, Any]:
        """Open a span; pair with :meth:`end`.  Prefer :meth:`span`."""
        parent = self._stack[-1]["id"] if self._stack else 0
        record = {
            "kind": "span",
            "id": self._next_id(),
            "parent": parent,
            "name": name,
            "cat": cat,
            "track": track,
            "t0_wall_ns": self.now_ns(),
            "t1_wall_ns": None,
            "args": dict(args),
        }
        if sim_ns is not None:
            record["t0_sim_ns"] = int(sim_ns)
        self._stack.append(record)
        return record

    def end(self, *, sim_ns: int | None = None, **args: Any) -> dict[str, Any]:
        """Close the innermost open span and commit it to the ring."""
        if not self._stack:
            raise ConfigurationError("SpanTracer.end() without an open span")
        record = self._stack.pop()
        record["t1_wall_ns"] = self.now_ns()
        if sim_ns is not None:
            record["t1_sim_ns"] = int(sim_ns)
        if args:
            record["args"].update(args)
        self._append(record)
        return record

    @contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str = "host",
        track: str = HOST_TRACK,
        sim_ns: int | None = None,
        **args: Any,
    ) -> Iterator[dict[str, Any]]:
        """Context manager around :meth:`begin`/:meth:`end`."""
        record = self.begin(name, cat=cat, track=track, sim_ns=sim_ns, **args)
        try:
            yield record
        finally:
            # The record is still on top unless the body misused
            # begin/end; unwind to it so nesting stays consistent.
            while self._stack and self._stack[-1] is not record:
                self.end()
            if self._stack:
                self.end()

    def complete(
        self,
        name: str,
        *,
        cat: str = "host",
        track: str = HOST_TRACK,
        t0_wall_ns: int,
        t1_wall_ns: int | None = None,
        sim_t0_ns: int | None = None,
        sim_t1_ns: int | None = None,
        lane: int | None = None,
        **args: Any,
    ) -> dict[str, Any]:
        """Commit an already-finished span without touching the stack.

        Hot instrumentation sites (``Simulator.run_until``) use this so
        a batch that dispatched nothing costs no record at all, and no
        stack push/pop happens per batch.  ``lane`` routes concurrent
        spans (e.g. one per pool task) onto separate export threads so
        they cannot partially overlap within one thread.
        """
        record = {
            "kind": "span",
            "id": self._next_id(),
            "parent": self._stack[-1]["id"] if self._stack else 0,
            "name": name,
            "cat": cat,
            "track": track,
            "t0_wall_ns": t0_wall_ns,
            "t1_wall_ns": self.now_ns() if t1_wall_ns is None else t1_wall_ns,
            "args": dict(args),
        }
        if sim_t0_ns is not None:
            record["t0_sim_ns"] = int(sim_t0_ns)
        if sim_t1_ns is not None:
            record["t1_sim_ns"] = int(sim_t1_ns)
        if lane is not None:
            record["lane"] = int(lane)
        self._append(record)
        return record

    def instant(
        self,
        name: str,
        *,
        cat: str = "host",
        track: str = HOST_TRACK,
        sim_ns: int | None = None,
        cpu: int | None = None,
        severity: str | None = None,
        **args: Any,
    ) -> dict[str, Any]:
        """Record a point event."""
        parent = self._stack[-1]["id"] if self._stack else 0
        record = {
            "kind": "instant",
            "id": self._next_id(),
            "parent": parent,
            "name": name,
            "cat": cat,
            "track": track,
            "t_wall_ns": self.now_ns(),
            "args": dict(args),
        }
        if sim_ns is not None:
            record["t_sim_ns"] = int(sim_ns)
        if cpu is not None:
            record["cpu"] = int(cpu)
        if severity is not None:
            record["severity"] = str(severity)
        self._append(record)
        return record

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """All committed records, in commit order."""
        return list(self._records)

    def spans(self, name: str | None = None) -> list[dict[str, Any]]:
        return [
            r
            for r in self._records
            if r["kind"] == "span" and (name is None or r["name"] == name)
        ]

    def instants(self, name: str | None = None) -> list[dict[str, Any]]:
        return [
            r
            for r in self._records
            if r["kind"] == "instant" and (name is None or r["name"] == name)
        ]

    @property
    def open_depth(self) -> int:
        """Number of currently open (not yet committed) spans."""
        return len(self._stack)

    def __len__(self) -> int:
        return len(self._records)
