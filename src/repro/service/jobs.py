"""Job model: request validation, content-addressed job keys, lifecycle.

A job is one suite request — a set of ``SUITE`` registry entries plus an
:class:`~repro.core.experiment.ExperimentConfig`.  Its identity,
:func:`job_key`, is derived from the *existing* per-entry cache keys
(:func:`repro.cache.cache_key`), so two requests collide exactly when
the result cache would serve them the same documents: same entries, same
config fields, same package version, same source tree.  The queue's
single-flight map is keyed on it, which is what makes "identical
in-flight requests from many clients cost one run" true by construction.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

from repro.cache import cache_key
from repro.core.experiment import ExperimentConfig
from repro.core.suite import SUITE
from repro.errors import ServiceError
from repro.service.schema import JOB_STATES

#: Config fields a request may set (every ExperimentConfig field).
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


@dataclass(frozen=True)
class JobSpec:
    """Validated description of one suite request.

    ``trace`` requests end-to-end tracing for the job: the queue mints a
    per-job tracer and the merged timeline becomes available at
    ``GET /v1/jobs/<id>/trace``.  It never enters :func:`job_key` (a
    traced and an untraced request produce byte-identical results, so
    they dedup together); on a single-flight join the *leader's* flag
    wins — joiners of an untraced leader get no trace.
    """

    tenant: str
    entries: tuple[str, ...]
    config: ExperimentConfig
    trace: bool = False

    @classmethod
    def from_request(cls, doc: Any) -> "JobSpec":
        """Build a spec from a client's JSON request body.

        Raises :class:`~repro.errors.ServiceError` on any invalid field;
        the server maps it to HTTP 400.
        """
        if not isinstance(doc, dict):
            raise ServiceError(
                f"job request must be a JSON object, got {type(doc).__name__}"
            )
        unknown = set(doc) - {"tenant", "entries", "config", "trace"}
        if unknown:
            raise ServiceError(f"unknown job request keys: {sorted(unknown)}")
        tenant = doc.get("tenant", "anonymous")
        # Tenants become metric labels: a lone surrogate or a control
        # character would break every later GET /metrics.
        if not isinstance(tenant, str) or not tenant or not tenant.isprintable():
            raise ServiceError("tenant must be a non-empty printable string")
        trace = doc.get("trace", False)
        if not isinstance(trace, bool):
            raise ServiceError(f"trace must be a boolean, got {trace!r}")
        entries = doc.get("entries")
        if entries is None:
            entries = list(SUITE)
        if not isinstance(entries, list) or not all(
            isinstance(e, str) for e in entries
        ):
            raise ServiceError("entries must be a list of experiment names")
        bad = sorted(set(entries) - set(SUITE))
        if bad:
            raise ServiceError(
                f"unknown suite entries: {bad}; known: {sorted(SUITE)}"
            )
        if len(set(entries)) != len(entries):
            dupes = sorted({e for e in entries if entries.count(e) > 1})
            raise ServiceError(f"duplicate suite entries: {dupes}")
        if not entries:
            raise ServiceError("entries must name at least one experiment")
        cfg_doc = doc.get("config", {})
        if not isinstance(cfg_doc, dict):
            raise ServiceError("config must be an object")
        unknown = set(cfg_doc) - set(_CONFIG_FIELDS)
        if unknown:
            raise ServiceError(
                f"unknown config fields: {sorted(unknown)}; "
                f"known: {sorted(_CONFIG_FIELDS)}"
            )
        try:
            config = ExperimentConfig(**cfg_doc)
        except TypeError as err:
            raise ServiceError(f"invalid config: {err}") from err
        _check_config_types(config)
        return cls(
            tenant=tenant, entries=tuple(entries), config=config, trace=trace
        )


def _check_config_types(config: ExperimentConfig) -> None:
    """Reject configs that would fingerprint but not execute sanely."""
    if not isinstance(config.seed, int) or isinstance(config.seed, bool):
        raise ServiceError(f"config.seed must be an integer, got {config.seed!r}")
    for name in ("scale", "interval_s"):
        value = getattr(config, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ServiceError(f"config.{name} must be a number, got {value!r}")
        # json.loads accepts NaN and Infinity; neither is a usable scale
        # or interval, and NaN would make the job document invalid JSON.
        if not 0 < value < math.inf:
            raise ServiceError(
                f"config.{name} must be positive and finite, got {value!r}"
            )
    if not isinstance(config.sku, str) or not config.sku:
        raise ServiceError("config.sku must be a non-empty string")
    if not isinstance(config.n_packages, int) or config.n_packages < 1:
        raise ServiceError(
            f"config.n_packages must be a positive integer, got "
            f"{config.n_packages!r}"
        )


def entry_keys(spec: JobSpec) -> dict[str, str]:
    """The per-entry result-cache keys this job will read and write."""
    return {name: cache_key(name, spec.config) for name in spec.entries}


def job_key(spec: JobSpec) -> str:
    """Content address of one job: a hash over its entry cache keys.

    Tenant is deliberately excluded — dedup works *across* tenants; the
    cache keys already cover config, code, and version.
    """
    blob = json.dumps(
        {"entries": entry_keys(spec)}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Job:
    """One admitted job and its lifecycle state.

    Mutated only from the event loop thread (the executor thread hands
    results back through :meth:`repro.service.queue.JobQueue`'s worker
    coroutine), so no locking is needed.
    """

    id: str
    spec: JobSpec
    key: str
    state: str = "queued"
    dedup: str = "none"
    clients: int = 1
    error: str | None = None
    result: dict[str, Any] | None = None
    #: Event-loop timestamp of admission, for the latency histogram.
    t_submit: float = 0.0
    #: Request-scoped correlation id (traced jobs only).
    trace_id: str | None = None
    #: Per-job :class:`repro.obs.Obs` minted at admission for traced
    #: jobs — shares the service registry and epoch, never serialized.
    obs: Any = None
    #: Tracer timestamp of admission (service epoch), closing the
    #: ``http.accept`` span and opening ``queue.wait``.
    t_accept_ns: int = 0
    #: The merged ``repro.obs/trace`` document, set by the runner thread
    #: before the job turns terminal (``GET /v1/jobs/<id>/trace``).
    trace: dict[str, Any] | None = None
    #: ``repro.obs/flightrec`` bundle captured when the job failed
    #: (``GET /v1/jobs/<id>/diagnostics``).
    diagnostics: dict[str, Any] | None = None
    #: Set once the job reaches a terminal state (long-poll wakeup).
    finished: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def finish(
        self,
        state: str,
        *,
        result: dict[str, Any] | None = None,
        error: str | None = None,
    ) -> None:
        if state not in JOB_STATES:
            raise ServiceError(f"unknown job state {state!r}")
        self.state = state
        self.result = result
        self.error = error
        self.finished.set()
