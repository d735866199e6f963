"""End-to-end exercise of the experiment service over real sockets.

An in-process :class:`~repro.service.server.ExperimentService` is bound
to an ephemeral port and driven through hand-written HTTP/1.1 clients
on :func:`asyncio.open_connection` — the same wire surface external
clients use.  Covers the acceptance contract: concurrent clients
coalesce onto one run per unique configuration, result documents are
byte-identical to a direct ``run_suite`` + ``dump_json``, quota
exhaustion surfaces as 429 + ``Retry-After``, and drain finishes
admitted work while rejecting new submissions with 503.

The subprocess + SIGTERM variant of this flow lives in
``repro.service.smoke`` (run by ``make service-smoke`` and CI).
"""

from __future__ import annotations

import asyncio
import json
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.cache import ResultCache
from repro.core.experiment import ExperimentConfig
from repro.core.serialize import dump_json
from repro.core.suite import SUITE, run_suite, suite_to_dict
from repro.obs import validate_metrics_document
from repro.service import ServiceLimits, validate_job_document
import repro.service.server as server_module
from repro.service.server import MAX_BODY_BYTES, MAX_HEADERS, ExperimentService

ENTRIES = ["sec5a_idle_sibling"]
SCALE = 0.01

#: urlsplit raises ValueError on an unterminated IPv6 host.
IPV6_TARGET = b"GET http://[::1 HTTP/1.1\r\n\r\n"
#: Under MAX_BODY_BYTES, but json.loads raises RecursionError on it.
_NESTED = b"[" * 100_000 + b"]" * 100_000
DEEP_JSON = (
    b"POST /v1/jobs HTTP/1.1\r\nContent-Length: "
    + str(len(_NESTED)).encode()
    + b"\r\n\r\n"
    + _NESTED
)


async def _http(
    port: int, method: str, path: str, body: dict | None = None
) -> tuple[int, dict[str, str], bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    request = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()
    writer.write(request + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, content = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, content


async def _submit_and_fetch(port: int, seed: int) -> bytes:
    """One client: submit, long-poll to completion, return result bytes."""
    status, _, content = await _http(
        port,
        "POST",
        "/v1/jobs",
        {"entries": ENTRIES, "config": {"seed": seed, "scale": SCALE}},
    )
    assert status in (200, 202), (status, content)
    doc = json.loads(content)
    assert validate_job_document(doc) == []
    job_id = doc["id"]
    while True:
        status, _, content = await _http(
            port, "GET", f"/v1/jobs/{job_id}?wait_s=30"
        )
        assert status == 200
        doc = json.loads(content)
        assert validate_job_document(doc) == []
        if doc["state"] in ("done", "failed"):
            break
    assert doc["state"] == "done", doc
    status, headers, content = await _http(
        port, "GET", f"/v1/jobs/{job_id}/result"
    )
    assert status == 200
    assert headers["content-type"] == "application/json"
    return content


def test_concurrent_clients_one_run_per_config_byte_identical(tmp_path):
    seeds = [0, 1]
    clients_per_seed = 3

    async def scenario():
        service = ExperimentService(
            cache=ResultCache(str(tmp_path / "service-cache")), pool_jobs=1
        )
        port = await service.start(port=0)
        results = await asyncio.gather(
            *(
                _submit_and_fetch(port, seed)
                for seed in seeds
                for _ in range(clients_per_seed)
            )
        )
        status, _, metrics_raw = await _http(port, "GET", "/metrics.json")
        assert status == 200
        service.request_drain()
        await service.wait_drained()
        return results, json.loads(metrics_raw)

    results, metrics_doc = asyncio.run(scenario())

    # Six clients, two unique configs, exactly two pool executions.
    assert validate_metrics_document(metrics_doc) == []
    by_name = {m["name"]: m for m in metrics_doc["metrics"]}
    executions = sum(s["value"] for s in by_name["service.executions"]["series"])
    assert executions == len(seeds)
    deduped = sum(s["value"] for s in by_name["service.dedup"]["series"])
    assert deduped == len(seeds) * (clients_per_seed - 1)

    # All clients of one seed got the same bytes, and those bytes equal
    # a direct run_suite + dump_json of the same configuration.
    for i, seed in enumerate(seeds):
        chunk = results[
            i * clients_per_seed : (i + 1) * clients_per_seed
        ]
        assert len(set(chunk)) == 1
        direct = suite_to_dict(
            run_suite(ExperimentConfig(seed=seed, scale=SCALE), only=ENTRIES)
        )
        golden = tmp_path / f"direct-{seed}.json"
        dump_json(direct, str(golden))
        assert chunk[0] == golden.read_bytes()


def test_quota_rejection_and_draining_status_codes():
    gate = threading.Event()

    def gated_runner(job):
        assert gate.wait(timeout=30.0)
        spec = job.spec
        return suite_to_dict(run_suite(spec.config, only=list(spec.entries)))

    async def scenario():
        service = ExperimentService(
            limits=ServiceLimits(tenant_quota=1, retry_after_s=3.0),
            pool_jobs=1,
        )
        service.queue._runner = gated_runner  # hold jobs in-flight
        port = await service.start(port=0)

        body = {"entries": ENTRIES, "config": {"seed": 0, "scale": SCALE}}
        status, _, content = await _http(port, "POST", "/v1/jobs", body)
        assert status == 202
        leader = json.loads(content)["id"]

        # Same tenant, different config, quota of 1 -> 429 + Retry-After.
        over = {"entries": ENTRIES, "config": {"seed": 1, "scale": SCALE}}
        status, headers, content = await _http(port, "POST", "/v1/jobs", over)
        assert status == 429, content
        assert headers["retry-after"] == "3"
        assert "quota" in json.loads(content)["error"]

        # Identical config joins the in-flight job instead: no quota cost.
        status, _, content = await _http(port, "POST", "/v1/jobs", body)
        assert status == 200
        joined = json.loads(content)
        assert joined["id"] == leader
        assert joined["dedup"] == "inflight"
        assert joined["clients"] == 2

        # Drain: health flips, new submissions get 503, polls still work.
        service.request_drain()
        drained = asyncio.create_task(service.wait_drained())
        await asyncio.sleep(0.05)
        status, _, content = await _http(port, "GET", "/healthz")
        assert status == 200
        assert json.loads(content)["status"] == "draining"
        status, _, content = await _http(port, "POST", "/v1/jobs", over)
        assert status == 503, content
        status, _, content = await _http(port, "GET", f"/v1/jobs/{leader}")
        assert status == 200

        gate.set()
        await asyncio.wait_for(drained, 60)
        job = service.queue.get(leader)
        assert job is not None and job.state == "done"

    asyncio.run(scenario())


def test_error_routes_and_request_validation():
    async def scenario():
        service = ExperimentService(pool_jobs=1)
        port = await service.start(port=0)

        status, _, content = await _http(port, "GET", "/no/such/route")
        assert status == 404

        status, _, content = await _http(port, "DELETE", "/v1/jobs")
        assert status == 405

        status, _, content = await _http(port, "GET", "/v1/jobs/job-999999")
        assert status == 404
        assert "no such job" in json.loads(content)["error"]

        status, _, content = await _http(
            port, "POST", "/v1/jobs", {"entries": ["nope"]}
        )
        assert status == 400
        assert "unknown suite entries" in json.loads(content)["error"]

        status, _, content = await _http(
            port, "POST", "/v1/jobs", {"config": {"seed": "zero"}}
        )
        assert status == 400

        status, _, content = await _http(port, "GET", "/healthz")
        assert status == 200
        health = json.loads(content)
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0

        status, headers, content = await _http(port, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "repro_service_http_requests" in content.decode()

        status, _, content = await _http(port, "GET", "/v1/jobs")
        assert status == 200
        assert json.loads(content) == {"jobs": []}

        service.request_drain()
        await service.wait_drained()

    asyncio.run(scenario())


@pytest.mark.parametrize(
    ("raw", "status"),
    [
        (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
        (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
        (b"NOT-HTTP\r\n\r\n", 400),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: "
            + str(MAX_BODY_BYTES + 1).encode()
            + b"\r\n\r\n",
            413,
        ),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        (
            b"GET /healthz HTTP/1.1\r\n"
            + b"X-Extra: 1\r\n" * (MAX_HEADERS + 1)
            + b"\r\n",
            431,
        ),
        (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nab", 408),
        (IPV6_TARGET, 400),
        (DEEP_JSON, 400),
    ],
    ids=[
        "negative-content-length",
        "non-numeric-content-length",
        "malformed-request-line",
        "body-too-large",
        "header-line-too-long",
        "too-many-headers",
        "short-body-read-deadline",
        "unterminated-ipv6-target",
        "json-nested-too-deep",
    ],
)
def test_unparseable_request_gets_status_line_and_is_counted(
    raw, status, monkeypatch
):
    # Hand-written bytes: the requests a well-behaved client never sends.
    if status == 408:
        monkeypatch.setattr(server_module, "READ_DEADLINE_S", 0.2)

    async def scenario():
        service = ExperimentService(pool_jobs=1)
        port = await service.start(port=0)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw)
        await writer.drain()
        response = await reader.read()
        writer.close()
        await writer.wait_closed()
        snapshot = service.obs.metrics_snapshot()
        service.request_drain()
        await service.wait_drained()
        return response, snapshot

    response, snapshot = asyncio.run(scenario())
    assert response.startswith(f"HTTP/1.1 {status} ".encode()), response
    by_name = {m["name"]: m for m in snapshot["metrics"]}
    counted = {
        (s["labels"]["route"], s["labels"]["status"]): s["value"]
        for s in by_name["service.http_requests"]["series"]
    }
    assert counted == {("unparsed", str(status)): 1}


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
)
_JOB_REQUESTS = st.fixed_dictionaries(
    {},
    optional={
        "tenant": _JSON_VALUES,
        "entries": st.lists(st.sampled_from(sorted(SUITE)) | st.text(max_size=8)),
        "config": st.dictionaries(
            st.sampled_from(["seed", "scale", "interval_s", "sku", "n_packages"]),
            _JSON_VALUES,
        ),
        "trace": _JSON_VALUES,
    },
)
_BODIES = st.one_of(
    st.binary(max_size=200),
    _JOB_REQUESTS.map(lambda doc: json.dumps(doc).encode()),
    st.integers(1, 120_000).map(lambda n: b"[" * n + b"]" * n),
)
_LATIN1 = st.characters(min_codepoint=0x20, max_codepoint=0xFF)


@st.composite
def _requests(draw) -> bytes:
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE", "", "G\x00T"]))
    target = draw(
        st.sampled_from(
            [
                "/v1/jobs",
                "/v1/jobs/job-000001",
                "/v1/jobs/job-000001/result?wait_s=nan",
                "/healthz",
                "/metrics",
                "http://[::1",
            ]
        )
        | st.text(_LATIN1, max_size=40)
    )
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/9", ""]))
    body = draw(_BODIES)
    headers = st.tuples(st.text(_LATIN1, max_size=12), st.text(_LATIN1))
    lines = [f"{method} {target} {version}"]
    lines += [f"{k}: {v}" for k, v in draw(st.lists(headers, max_size=3))]
    length = draw(st.none() | st.just(len(body)) | st.integers(-3, len(body) + 3))
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


@settings(max_examples=50, deadline=None)
@example(raw=IPV6_TARGET)
@example(raw=DEEP_JSON)
@given(raw=_requests() | st.binary(max_size=300))
def test_any_request_gets_a_status_line_or_a_clean_close(raw):
    errors = []

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _loop, context: errors.append(context))
        service = ExperimentService(pool_jobs=1)
        service.queue._runner = lambda job: {"entries": list(job.spec.entries)}
        port = await service.start(port=0)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        response = b""
        try:
            writer.write(raw)
            writer.write_eof()
            await writer.drain()
            while chunk := await reader.read(65536):
                response += chunk
        except ConnectionError:
            pass  # the server may reset a connection it stopped reading
        writer.close()
        service.request_drain()
        await service.wait_drained()
        return response

    response = asyncio.run(scenario())
    assert response == b"" or response.startswith(b"HTTP/1.1 "), response[:200]
    assert errors == []


def test_result_before_done_is_conflict():
    gate = threading.Event()

    def gated_runner(job):
        assert gate.wait(timeout=30.0)
        spec = job.spec
        return suite_to_dict(run_suite(spec.config, only=list(spec.entries)))

    async def scenario():
        service = ExperimentService(pool_jobs=1)
        service.queue._runner = gated_runner
        port = await service.start(port=0)
        body = {"entries": ENTRIES, "config": {"seed": 0, "scale": SCALE}}
        status, _, content = await _http(port, "POST", "/v1/jobs", body)
        assert status == 202
        job_id = json.loads(content)["id"]
        status, _, content = await _http(
            port, "GET", f"/v1/jobs/{job_id}/result"
        )
        assert status == 409
        assert "poll until done" in json.loads(content)["error"]
        gate.set()
        service.request_drain()
        await service.wait_drained()

    asyncio.run(scenario())
