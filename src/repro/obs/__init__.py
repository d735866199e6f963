"""repro.obs — unified tracing, metrics, and timeline export.

One :class:`Obs` object bundles the two halves of the observability
layer and is threaded through every subsystem that accepts it
(``Machine(obs=...)``, ``run_suite(obs=...)``, ``run_tasks(obs=...)``,
``ResultCache.attach_obs``):

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges,
  histograms with fixed bucket layouts; Prometheus text exposition and
  the ``repro.obs/metrics`` v1 JSON snapshot;
* :class:`~repro.obs.tracer.SpanTracer` — nested sim-time+wall-time
  spans and instants in a bounded ring, exported as a Chrome
  trace-event / Perfetto-loadable ``repro.obs/trace`` v1 document.

Instrumented hot paths hold a single reference that is ``None`` unless
an Obs is attached, so the uninstrumented path costs one identity check
per call (lint rule OBS001 keeps every use behind it; see
``docs/observability.md``).  Observability never feeds back into
simulated state: suite documents are byte-identical with obs on or off.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.export import (
    merge_trace_documents,
    summarize_metrics,
    summarize_trace,
    trace_document,
)
from repro.obs.log import StructuredLogger
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.schema import (
    METRICS_SCHEMA_ID,
    METRICS_SCHEMA_VERSION,
    TRACE_SCHEMA_ID,
    TRACE_SCHEMA_VERSION,
    validate_document,
    validate_metrics_document,
    validate_trace_document,
)
from repro.obs.tracer import (
    DEFAULT_MAX_EVENTS,
    HOST_TRACK,
    SpanTracer,
    mint_trace_id,
)

__all__ = [
    "Obs",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanTracer",
    "StructuredLogger",
    "mint_trace_id",
    "trace_document",
    "merge_trace_documents",
    "summarize_trace",
    "summarize_metrics",
    "validate_document",
    "validate_metrics_document",
    "validate_trace_document",
    "METRICS_SCHEMA_ID",
    "METRICS_SCHEMA_VERSION",
    "TRACE_SCHEMA_ID",
    "TRACE_SCHEMA_VERSION",
    "LATENCY_BUCKETS_S",
    "COUNT_BUCKETS",
    "DEFAULT_MAX_EVENTS",
    "HOST_TRACK",
]


class Obs:
    """The observability bundle handed to instrumented subsystems.

    ``obs=None`` is the one way to say "off": subsystems then keep their
    instrument reference at ``None`` and pay a single ``is None`` check.
    """

    def __init__(
        self,
        *,
        max_events: int = DEFAULT_MAX_EVENTS,
        clock: Callable[[], int] | None = None,
        trace_id: str | None = None,
        epoch_ns: int | None = None,
        metrics: MetricsRegistry | None = None,
        log_stream: Any | None = None,
        log_path: str | None = None,
    ) -> None:
        # metrics= lets the service share one registry across per-job Obs
        # bundles; epoch_ns= puts per-job tracers on the service tracer's
        # time base so cross-object complete() spans align.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = SpanTracer(
            max_events=max_events,
            clock=clock,
            trace_id=trace_id,
            epoch_ns=epoch_ns,
        )
        self.log = StructuredLogger(
            tracer=self.tracer, stream=log_stream, path=log_path, clock=clock
        )

    @property
    def trace_id(self) -> str | None:
        """The request-scoped correlation id (None = uncorrelated)."""
        return self.tracer.trace_id

    # Convenience pass-throughs so call sites read obs.span(...) /
    # obs.counter(...) without reaching into the halves.

    def span(self, name: str, **kwargs: Any):
        return self.tracer.span(name, **kwargs)

    def instant(self, name: str, **kwargs: Any):
        return self.tracer.instant(name, **kwargs)

    def counter(self, name: str, help_text: str = "", unit: str = "", **labels):
        return self.metrics.counter(name, help_text, unit, **labels)

    def gauge(self, name: str, help_text: str = "", unit: str = "", **labels):
        return self.metrics.gauge(name, help_text, unit, **labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        unit: str = "",
        buckets: tuple[float, ...] = LATENCY_BUCKETS_S,
        **labels,
    ):
        return self.metrics.histogram(
            name, help_text, unit, buckets=buckets, **labels
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def trace_document(self, **other_data: Any) -> dict[str, Any]:
        """The ``repro.obs/trace`` v1 document for everything recorded."""
        return trace_document(self.tracer, **other_data)

    def metrics_snapshot(self) -> dict[str, Any]:
        """The ``repro.obs/metrics`` v1 JSON document."""
        return self.metrics.snapshot()

    def to_prometheus(self) -> str:
        """The Prometheus text exposition of all metric families."""
        return self.metrics.to_prometheus()
