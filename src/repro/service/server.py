"""The asyncio experiment service: HTTP/1.1 front end over the job queue.

The protocol surface is deliberately tiny and dependency-free — a
line-oriented HTTP/1.1 parser over :func:`asyncio.start_server`, every
response ``Connection: close``:

==========================================  =================================
``POST /v1/jobs``                           submit a job, ``202`` +
                                            ``repro.service/job`` document
                                            (``429`` + ``Retry-After`` on
                                            quota/queue budget, ``503``
                                            while draining, ``400`` on a
                                            malformed spec)
``GET /v1/jobs``                            list known job ids
``GET /v1/jobs/<id>[?wait_s=N]``            job status; ``wait_s`` long-polls
                                            until the job is terminal
``GET /v1/jobs/<id>/result``                the finished suite document,
                                            byte-identical to a direct
                                            ``run_suite`` + ``dump_json``
                                            of the same configuration
``GET /v1/jobs/<id>/trace``                 merged ``repro.obs/trace``
                                            timeline of a ``"trace": true``
                                            job: HTTP accept, queue wait,
                                            pool phases, worker-side
                                            experiment spans, one trace id
``GET /v1/jobs/<id>/diagnostics``           ``repro.obs/flightrec`` crash
                                            bundle of a failed job
``GET /healthz``                            liveness + drain state + depth
``GET /metrics``                            Prometheus text exposition
``GET /metrics.json``                       ``repro.obs/metrics`` v1 snapshot
==========================================  =================================

Every request lands in the ``service.http_requests`` counter and the
``service.http_latency_s`` histogram, labelled by route template and
status code.

``SIGTERM``/``SIGINT`` trigger a graceful drain: new submissions get
503, admitted jobs run to completion, status/result/metrics stay
served until the queue is empty, then the listener closes and
:func:`serve` returns (exit code 0).
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.cache import ResultCache
from repro.core.suite import run_suite, suite_to_dict, suite_trace_document
from repro.errors import ReproError, ServiceError
from repro.obs import Obs
from repro.service.jobs import Job, JobSpec
from repro.service.queue import (
    JobQueue,
    QueueFull,
    QuotaExceeded,
    ServiceDraining,
    ServiceLimits,
)
from repro.service.schema import job_document

#: Cap on one long-poll; clients re-poll, the connection never idles longer.
MAX_WAIT_S = 60.0
#: Request bodies above this are rejected outright (413).
MAX_BODY_BYTES = 1 << 20
#: More request headers than this are rejected (431), as is any header
#: line longer than the stream reader's 64 KiB line limit.
MAX_HEADERS = 100
#: A request not fully read within this many seconds gets 408.
READ_DEADLINE_S = 10.0


class ExperimentService:
    """One service instance: queue, HTTP listener, metrics, drain logic."""

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        limits: ServiceLimits | None = None,
        pool_jobs: int = 2,
        timeout_s: float | None = None,
        retries: int = 1,
        obs: Obs | None = None,
    ) -> None:
        self.obs = obs or Obs()
        self.cache = cache
        self.pool_jobs = pool_jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.queue = JobQueue(
            self._execute,
            metrics=self.obs.metrics,
            limits=limits,
            cache=cache,
            obs=self.obs,
        )
        self._server: asyncio.Server | None = None
        self._drain_requested = asyncio.Event()
        self._m_http_help = "HTTP requests by route template and status"
        self._m_http_latency_help = (
            "HTTP request wall latency by route template and status"
        )

    # --- execution ---------------------------------------------------------

    def _execute(self, job: Job) -> dict[str, Any]:
        """Run one job (worker thread).  The returned document is exactly
        what a direct ``run_suite`` + ``suite_to_dict`` of the same
        configuration produces — execution mode never leaks into it.

        A traced job runs under its own per-request obs bundle; the
        merged end-to-end timeline (HTTP accept through worker-side
        dispatch) attaches to ``job.trace`` here, in the runner thread,
        before the queue flips the job terminal — so a client that sees
        ``done`` can always fetch the trace."""
        spec = job.spec
        result = run_suite(
            spec.config,
            only=list(spec.entries),
            parallel=self.pool_jobs,
            cache=self.cache,
            timeout_s=self.timeout_s,
            retries=self.retries,
            obs=job.obs if job.obs is not None else self.obs,
        )
        if job.obs is not None:
            job.trace = suite_trace_document(result, job_id=job.id)
        return suite_to_dict(result)

    # --- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Start workers and the listener; returns the bound port."""
        await self.queue.start()
        self._server = await asyncio.start_server(self._handle, host, port)
        return self._server.sockets[0].getsockname()[1]

    def request_drain(self) -> None:
        """Begin a graceful shutdown (idempotent, signal-handler safe)."""
        self._drain_requested.set()

    async def wait_drained(self) -> None:
        """Block until drain is requested, then run it to completion."""
        await self._drain_requested.wait()
        await self.queue.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def serve(self, host: str = "127.0.0.1", port: int = 8787) -> None:
        """Run until SIGTERM/SIGINT, then drain and return."""
        bound = await self.start(host, port)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except NotImplementedError:  # pragma: no cover - non-Unix loops
                pass
        print(f"repro service listening on http://{host}:{bound}", flush=True)
        await self.wait_drained()
        print("repro service drained, exiting", flush=True)

    # --- HTTP plumbing -----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        route = "unparsed"
        t0_ns = self.obs.tracer.now_ns()
        try:
            try:
                method, target, body = await asyncio.wait_for(
                    self._read_request(reader), READ_DEADLINE_S
                )
            except asyncio.TimeoutError as err:
                raise _HttpError(408, "request not read in time") from err
            route, status, payload, headers = await self._dispatch(
                method, target, body, t0_ns
            )
        except _HttpError as err:
            status, payload, headers = err.status, err.payload(), err.headers
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        elapsed_s = (self.obs.tracer.now_ns() - t0_ns) / 1e9
        self.obs.metrics.counter(
            "service.http_requests",
            self._m_http_help,
            "requests",
            route=route,
            status=str(status),
        ).inc()
        self.obs.metrics.histogram(
            "service.http_latency_s",
            self._m_http_latency_help,
            "s",
            route=route,
            code=str(status),
        ).observe(elapsed_s)
        self.obs.log.log(
            "warning" if status >= 400 else "info",
            "http.request",
            route=route,
            status=status,
        )
        await self._respond(writer, status, payload, headers)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        request_line = await _read_line(reader)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0], parts[1]
        content_length = 0
        for count in range(MAX_HEADERS + 1):
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            if count == MAX_HEADERS:
                raise _HttpError(431, "too many request headers")
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError as err:
                    raise _HttpError(400, "bad Content-Length") from err
                if content_length < 0:
                    raise _HttpError(400, "bad Content-Length")
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(content_length) if content_length else b""
        return method, target, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        headers: dict[str, str],
    ) -> None:
        reason = {
            200: "OK",
            202: "Accepted",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            409: "Conflict",
            408: "Request Timeout",
            413: "Payload Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            503: "Service Unavailable",
        }.get(status, "OK")
        head = [f"HTTP/1.1 {status} {reason}"]
        out_headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(payload)),
            "Connection": "close",
        }
        out_headers.update(headers)
        head.extend(f"{k}: {v}" for k, v in out_headers.items())
        try:
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
            writer.write(payload)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except ConnectionError:  # pragma: no cover - client went away
            pass

    # --- routing -----------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes, t0_ns: int = 0
    ) -> tuple[str, int, bytes, dict[str, str]]:
        """Returns ``(route_template, status, payload, extra_headers)``.

        ``t0_ns`` is the request arrival time on the service tracer's
        epoch — the start of a traced job's ``http.accept`` span."""
        try:
            url = urlsplit(target)
        except ValueError as err:  # e.g. an unterminated "[" IPv6 host
            raise _HttpError(400, f"malformed request target: {err}") from err
        path = url.path.rstrip("/") or "/"
        if path == "/v1/jobs":
            if method == "POST":
                return await self._post_job(body, t0_ns)
            if method == "GET":
                doc = {"jobs": self.queue.job_ids()}
                return "/v1/jobs", 200, _json_bytes(doc), {}
            raise _HttpError(405, f"{method} not supported on {path}")
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/") :]
            if method != "GET":
                raise _HttpError(405, f"{method} not supported on {path}")
            if rest.endswith("/result"):
                return self._get_result(rest[: -len("/result")])
            if rest.endswith("/trace"):
                return self._get_trace(rest[: -len("/trace")])
            if rest.endswith("/diagnostics"):
                return self._get_diagnostics(rest[: -len("/diagnostics")])
            return await self._get_job(rest, url.query)
        if method != "GET":
            raise _HttpError(405, f"{method} not supported on {path}")
        if path == "/healthz":
            doc = {
                "status": "draining" if self.queue.draining else "ok",
                "queue_depth": self.queue.depth,
                "jobs": self.queue.state_counts(),
            }
            return "/healthz", 200, _json_bytes(doc), {}
        if path == "/metrics":
            payload = self.obs.to_prometheus().encode()
            headers = {"Content-Type": "text/plain; version=0.0.4"}
            return "/metrics", 200, payload, headers
        if path == "/metrics.json":
            return "/metrics.json", 200, _json_bytes(self.obs.metrics_snapshot()), {}
        raise _HttpError(404, f"no route for {path}")

    async def _post_job(
        self, body: bytes, t0_ns: int = 0
    ) -> tuple[str, int, bytes, dict[str, str]]:
        try:
            doc = json.loads(body or b"{}")
        except (ValueError, RecursionError) as err:  # nesting too deep
            raise _HttpError(400, f"request body is not JSON: {err}") from err
        try:
            spec = JobSpec.from_request(doc)
            job, joined = await self.queue.submit(spec)
        except (QuotaExceeded, QueueFull) as err:
            raise _HttpError(
                429, str(err), {"Retry-After": f"{err.retry_after_s:g}"}
            ) from err
        except ServiceDraining as err:
            raise _HttpError(503, str(err)) from err
        except ReproError as err:
            raise _HttpError(400, str(err)) from err
        if not joined and job.obs is not None:
            # HTTP accept: request arrival -> admission.  Closed at
            # exactly t_accept so it touches queue.wait without overlap
            # (sequential siblings on the host lane).
            job.obs.tracer.complete(
                "http.accept",
                cat="service",
                t0_wall_ns=t0_ns,
                t1_wall_ns=job.t_accept_ns,
                job_id=job.id,
                tenant=spec.tenant,
            )
        status = 200 if joined else 202
        return "/v1/jobs", status, _json_bytes(job_document(job)), {}

    async def _get_job(
        self, job_id: str, query: str
    ) -> tuple[str, int, bytes, dict[str, str]]:
        job = self._lookup(job_id)
        wait_raw = parse_qs(query).get("wait_s", ["0"])[-1]
        try:
            wait_s = float(wait_raw)
        except ValueError as err:
            raise _HttpError(400, f"bad wait_s: {wait_raw!r}") from err
        if wait_s > 0 and not job.terminal:
            try:
                await asyncio.wait_for(
                    job.finished.wait(), min(wait_s, MAX_WAIT_S)
                )
            except asyncio.TimeoutError:
                pass  # report current (non-terminal) state
        return "/v1/jobs/{id}", 200, _json_bytes(job_document(job)), {}

    def _get_result(
        self, job_id: str
    ) -> tuple[str, int, bytes, dict[str, str]]:
        job = self._lookup(job_id)
        if job.state == "failed":
            raise _HttpError(409, f"job {job_id} failed: {job.error}")
        if job.result is None:
            raise _HttpError(409, f"job {job_id} is {job.state}; poll until done")
        # Rendered exactly like repro.core.serialize.dump_json so the
        # response bytes equal a direct run_suite document on disk.
        payload = (
            json.dumps(job.result, indent=2, sort_keys=True) + "\n"
        ).encode()
        return "/v1/jobs/{id}/result", 200, payload, {}

    def _get_trace(
        self, job_id: str
    ) -> tuple[str, int, bytes, dict[str, str]]:
        job = self._lookup(job_id)
        if job.trace_id is None:
            raise _HttpError(
                404, f"job {job_id} was not traced; submit with \"trace\": true"
            )
        if job.trace is None:
            raise _HttpError(
                409, f"job {job_id} is {job.state}; trace not ready"
            )
        return "/v1/jobs/{id}/trace", 200, _json_bytes(job.trace), {}

    def _get_diagnostics(
        self, job_id: str
    ) -> tuple[str, int, bytes, dict[str, str]]:
        job = self._lookup(job_id)
        if job.diagnostics is None:
            raise _HttpError(
                404,
                f"job {job_id} has no diagnostics bundle (only failed "
                "jobs carry one)",
            )
        return (
            "/v1/jobs/{id}/diagnostics",
            200,
            _json_bytes(job.diagnostics),
            {},
        )

    def _lookup(self, job_id: str) -> Job:
        job = self.queue.get(job_id)
        if job is None:
            raise _HttpError(404, f"no such job: {job_id}")
        return job


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request line; a line over the reader's limit is a 431."""
    try:
        return await reader.readline()
    except ValueError as err:  # the StreamReader's line-limit overrun
        raise _HttpError(431, "request header line too long") from err


class _HttpError(ServiceError):
    """Internal: carries an HTTP status (and headers) up to the handler."""

    def __init__(
        self, status: int, message: str, headers: dict[str, str] | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}

    def payload(self) -> bytes:
        return _json_bytes({"error": str(self)})


def _json_bytes(doc: Any) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
