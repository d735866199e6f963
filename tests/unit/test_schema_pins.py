"""The three schema-versioned documents, pinned in one table.

Each family's document is built by its real writer, sent through JSON,
and held to its validator, its ``schema_version`` and its top-level
field set.  A field added or removed without a version bump fails
here, and so does a new ``*_SCHEMA_ID`` without a row.
"""

from __future__ import annotations

import json

import pytest

import repro.obs.schema as obs_schema
import repro.service.schema as service_schema
from repro.obs import Obs
from repro.service.jobs import Job, JobSpec, job_key


def _obs() -> Obs:
    obs = Obs()
    obs.counter("pins.documents", "documents written").inc()
    with obs.span("pins.write"):
        obs.instant("pins.written")
    return obs


def _job_document() -> dict:
    spec = JobSpec.from_request(
        {
            "tenant": "t0",
            "entries": ["sec5a_idle_sibling"],
            "config": {"seed": 0, "scale": 0.01},
        }
    )
    job = Job(id="job-000001", spec=spec, key=job_key(spec))
    return service_schema.job_document(job)


#: schema id -> (schema_version, top-level fields, writer, validator).
PINS = {
    "repro.obs/metrics": (
        1,
        ["metrics", "schema", "schema_version"],
        lambda: _obs().metrics_snapshot(),
        obs_schema.validate_metrics_document,
    ),
    "repro.obs/trace": (
        1,
        ["displayTimeUnit", "otherData", "schema", "schema_version", "traceEvents"],
        lambda: _obs().trace_document(),
        obs_schema.validate_trace_document,
    ),
    "repro.service/job": (
        4,
        [
            "clients",
            "config",
            "dedup",
            "entries",
            "error",
            "id",
            "key",
            "result_ready",
            "schema",
            "schema_version",
            "state",
            "tenant",
            "trace_id",
        ],
        _job_document,
        service_schema.validate_job_document,
    ),
}


def _written(schema: str) -> dict:
    """The family's document as a reader sees it: written, then JSON."""
    return json.loads(json.dumps(PINS[schema][2]()))


@pytest.mark.parametrize("schema", sorted(PINS))
def test_writer_matches_its_pin(schema):
    version, fields, _, validate = PINS[schema]
    doc = _written(schema)
    assert validate(doc) == []
    assert (doc["schema"], doc["schema_version"], sorted(doc)) == (
        schema,
        version,
        fields,
    )


@pytest.mark.parametrize("schema", sorted(PINS))
def test_validator_rejects_the_next_version(schema):
    doc = _written(schema)
    doc["schema_version"] += 1
    assert PINS[schema][3](doc) != []


def test_every_schema_family_has_a_pin():
    ids = {
        value
        for module in (obs_schema, service_schema)
        for name, value in vars(module).items()
        if name.endswith("_SCHEMA_ID")
    }
    assert ids == set(PINS)
