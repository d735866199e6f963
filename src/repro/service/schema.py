"""Schema id, writer, and validator for ``repro.service/job`` v3.

Version 2 added the observability fields: ``trace_id`` (the request's
correlation id, null for untraced jobs) and ``diagnostics_ready``
(whether a crash flight-recorder bundle is attached, i.e. whether
``GET /v1/jobs/<id>/diagnostics`` will answer 200).  Version 3's
``config`` fingerprint has one field fewer: the simulator has a single
event engine, so a config no longer selects one.

Every job resource the service returns (submit response, status poll)
is tagged ``"schema": "repro.service/job"`` so clients and tooling can
reject foreign or stale documents, mirroring the other interchange
formats in the tree (``repro.obs/metrics``, ``repro.obs/trace``,
...).  The schema registry (the ``schemas`` section of ``lint.json``)
pins the field set: adding or removing a field without bumping
:data:`JOB_SCHEMA_VERSION` fails ``lint --deep``.

:func:`job_document` is the single writer site;
:func:`validate_job_document` the single validator.  The suite *result*
attached to a finished job is not re-tagged here — it is exactly the
:func:`repro.core.suite.suite_to_dict` document, byte-identical to a
direct ``run_suite`` of the same configuration.
"""

from __future__ import annotations

from typing import Any

from repro.cache import config_fingerprint

JOB_SCHEMA_ID = "repro.service/job"
JOB_SCHEMA_VERSION = 3

#: Lifecycle: ``queued`` -> ``running`` -> ``done`` | ``failed``.
JOB_STATES = ("queued", "running", "done", "failed")

#: How a job was coalesced: ``none`` (fresh work), ``inflight`` (at
#: least one later identical submission joined it mid-flight), ``cache``
#: (every entry was already in the shared result cache at admission).
DEDUP_SOURCES = ("none", "inflight", "cache")


def job_document(job: Any) -> dict[str, Any]:
    """The public JSON resource for one job (this schema's one writer).

    ``job`` is a :class:`repro.service.jobs.Job`; taken duck-typed so
    this module stays import-light for clients that only validate.
    """
    return {
        "schema": JOB_SCHEMA_ID,
        "schema_version": JOB_SCHEMA_VERSION,
        "id": str(job.id),
        "tenant": str(job.spec.tenant),
        "state": str(job.state),
        "entries": [str(name) for name in job.spec.entries],
        "config": config_fingerprint(job.spec.config),
        "key": str(job.key),
        "dedup": str(job.dedup),
        "clients": int(job.clients),
        "error": None if job.error is None else str(job.error),
        "result_ready": job.result is not None,
        "trace_id": None if job.trace_id is None else str(job.trace_id),
        "diagnostics_ready": job.diagnostics is not None,
    }


def validate_job_document(doc: object) -> list[str]:
    """Validate a ``repro.service/job`` v3 document.

    Returns human-readable problems (empty = conforming), like the other
    validators in the tree.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be a JSON object, got {type(doc).__name__}"]
    if doc.get("schema") != JOB_SCHEMA_ID:
        errors.append(
            f"schema must be {JOB_SCHEMA_ID!r}, got {doc.get('schema')!r}"
        )
    if doc.get("schema_version") != JOB_SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {JOB_SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
        )
    for key in ("id", "tenant", "key", "dedup", "state"):
        value = doc.get(key)
        if not isinstance(value, str) or not value:
            errors.append(f"{key} must be a non-empty string")
    state = doc.get("state")
    if isinstance(state, str) and state not in JOB_STATES:
        errors.append(f"state must be one of {JOB_STATES}, got {state!r}")
    dedup = doc.get("dedup")
    if isinstance(dedup, str) and dedup not in DEDUP_SOURCES:
        errors.append(f"dedup must be one of {DEDUP_SOURCES}, got {dedup!r}")
    entries = doc.get("entries")
    if (
        not isinstance(entries, list)
        or not entries
        or not all(isinstance(e, str) and e for e in entries)
    ):
        errors.append("entries must be a non-empty list of experiment names")
    elif len(set(entries)) != len(entries):
        errors.append("entries must not repeat an experiment name")
    if not isinstance(doc.get("config"), dict):
        errors.append("config must be an object (the configuration fingerprint)")
    clients = doc.get("clients")
    if not isinstance(clients, int) or isinstance(clients, bool) or clients < 1:
        errors.append("clients must be an integer >= 1")
    error = doc.get("error")
    if error is not None and not isinstance(error, str):
        errors.append("error must be null or a string")
    if state == "failed" and error is None:
        errors.append("a failed job must carry an error message")
    result_ready = doc.get("result_ready")
    if not isinstance(result_ready, bool):
        errors.append("result_ready must be a boolean")
    elif result_ready and state != "done":
        errors.append(f"result_ready requires state 'done', got {state!r}")
    trace_id = doc.get("trace_id")
    if trace_id is not None and (
        not isinstance(trace_id, str) or not trace_id
    ):
        errors.append("trace_id must be null or a non-empty string")
    if not isinstance(doc.get("diagnostics_ready"), bool):
        errors.append("diagnostics_ready must be a boolean")
    return errors
