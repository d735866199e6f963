# Determinism note: log records are host-side diagnostics — they carry
# wall timestamps (perf_counter_ns taken as a clock *reference*, so
# DET001 sees no call site) relative to the logger's epoch, and nothing
# logged ever feeds back into simulated state.
"""Structured JSON-line logging with trace correlation.

A :class:`StructuredLogger` emits one dict per event: a fixed envelope
(``t_wall_ns``, ``level``, ``event``, ``pid``) plus trace correlation
(``trace_id`` from the bound tracer, ``span_id`` of the innermost open
span at the call site) plus the caller's free-form fields.  A record
goes to the sink, if one is set — any ``.write()`` stream or a file
path — as one JSON line (``jq``-able, ``sort_keys`` so identical events
serialize identically); the logger keeps nothing in memory.

``repro.service`` and ``repro.parallel`` log through the Obs bundle's
``obs.log``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, TextIO

from repro.errors import ConfigurationError
from repro.obs.tracer import SpanTracer

#: Severity levels a structured log record may carry, least to most.
LOG_LEVELS = ("debug", "info", "warning", "error")

#: Envelope keys a caller's **fields may not override.
_RESERVED = ("t_wall_ns", "level", "event", "pid", "trace_id", "span_id")


class StructuredLogger:
    """JSON-line logger bound to (at most) one tracer for correlation."""

    def __init__(
        self,
        *,
        tracer: SpanTracer | None = None,
        stream: TextIO | None = None,
        path: str | None = None,
        clock: Callable[[], int] | None = None,
    ) -> None:
        if stream is not None and path is not None:
            raise ConfigurationError("pass either stream= or path=, not both")
        self._tracer = tracer
        self._clock = clock if clock is not None else time.perf_counter_ns
        self._epoch_ns = (
            tracer.epoch_ns if tracer is not None else self._clock()
        )
        self._stream = stream
        self._path = path
        self._file: TextIO | None = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _sink(self) -> TextIO | None:
        if self._stream is not None:
            return self._stream
        if self._path is not None and self._file is None:
            self._file = open(self._path, "a")
        return self._file

    def log(self, level: str, event: str, **fields: Any) -> dict[str, Any]:
        """Record one structured event; returns the record dict."""
        if level not in LOG_LEVELS:
            raise ConfigurationError(
                f"level must be one of {LOG_LEVELS}, got {level!r}"
            )
        if not event:
            raise ConfigurationError("event must be a non-empty string")
        bad = [key for key in fields if key in _RESERVED]
        if bad:
            raise ConfigurationError(
                f"field name(s) {bad} collide with the record envelope"
            )
        tracer = self._tracer
        record: dict[str, Any] = {
            "t_wall_ns": self._clock() - self._epoch_ns,
            "level": level,
            "event": event,
            "pid": os.getpid(),
            "trace_id": tracer.trace_id if tracer is not None else None,
            "span_id": (
                tracer.current_span_id if tracer is not None else None
            ),
        }
        record.update(fields)
        sink = self._sink()
        if sink is not None:
            sink.write(json.dumps(record, sort_keys=True) + "\n")
            sink.flush()
        return record

    def debug(self, event: str, **fields: Any) -> dict[str, Any]:
        return self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> dict[str, Any]:
        return self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> dict[str, Any]:
        return self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> dict[str, Any]:
        return self.log("error", event, **fields)

    def close(self) -> None:
        """Close a path-opened sink (idempotent; streams stay open)."""
        if self._file is not None:
            self._file.close()
            self._file = None
