"""Bounded async job queue: admission control, single-flight dedup, workers.

Admission happens synchronously inside :meth:`JobQueue.submit` so a
client always gets an immediate verdict:

* an identical in-flight job (same :func:`~repro.service.jobs.job_key`)
  absorbs the submission — the caller polls the *leader's* job id and
  the run happens once (single-flight);
* a tenant at its in-flight quota is rejected
  (:class:`QuotaExceeded`, HTTP 429 + ``Retry-After``);
* a full queue rejects everyone (:class:`QueueFull`, HTTP 429);
* a draining service rejects all new work (:class:`ServiceDraining`,
  HTTP 503).

``workers`` asyncio worker coroutines pull admitted jobs and execute the
blocking runner (``run_suite`` on :mod:`repro.parallel`'s process pool)
in a thread via :func:`asyncio.to_thread`, so the event loop keeps
serving polls and metrics while experiments run.  All ``service.*``
metrics live in the shared :class:`~repro.obs.MetricsRegistry` and are
exposed by the server's ``/metrics`` endpoint.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ServiceError
from repro.obs import MetricsRegistry, Obs, mint_trace_id
from repro.service.jobs import Job, JobSpec, entry_keys, job_key


class QuotaExceeded(ServiceError):
    """Tenant has too many in-flight jobs; retry after backoff."""

    http_status = 429

    def __init__(self, tenant: str, quota: int, retry_after_s: float) -> None:
        super().__init__(
            f"tenant {tenant!r} is at its quota of {quota} in-flight job(s); "
            f"retry in {retry_after_s:g} s"
        )
        self.retry_after_s = retry_after_s


class QueueFull(ServiceError):
    """The service-wide in-flight budget is exhausted; retry later."""

    http_status = 429

    def __init__(self, limit: int, retry_after_s: float) -> None:
        super().__init__(
            f"job queue is at its budget of {limit} in-flight job(s); "
            f"retry in {retry_after_s:g} s"
        )
        self.retry_after_s = retry_after_s


class ServiceDraining(ServiceError):
    """The service received SIGTERM: running jobs finish, new work is
    rejected; clients should fail over."""

    http_status = 503

    def __init__(self) -> None:
        super().__init__("service is draining; submit to another instance")
        self.retry_after_s = None


@dataclass(frozen=True)
class ServiceLimits:
    """Admission-control knobs (see docs/service.md)."""

    #: Total in-flight (queued + running) jobs across all tenants.
    queue_limit: int = 32
    #: In-flight jobs one tenant may own (joins of an existing job are
    #: free: they add no work).
    tenant_quota: int = 8
    #: Concurrent jobs (each job fans its entries across the pool).
    workers: int = 2
    #: ``Retry-After`` hint on 429 responses.
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.tenant_quota < 1:
            raise ServiceError(
                f"tenant_quota must be >= 1, got {self.tenant_quota}"
            )
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.retry_after_s <= 0:
            raise ServiceError(
                f"retry_after_s must be positive, got {self.retry_after_s}"
            )


class JobQueue:
    """Admission control plus worker pool over a blocking job runner."""

    def __init__(
        self,
        runner: Callable[[Job], dict[str, Any]],
        *,
        metrics: MetricsRegistry,
        limits: ServiceLimits | None = None,
        cache: Any = None,
        obs: Any = None,
    ) -> None:
        """``runner`` receives the whole :class:`Job` (not just its
        spec) so it can execute under the job's per-request obs bundle
        and attach the merged trace before the job turns terminal.

        ``obs`` is the *service* :class:`repro.obs.Obs`: traced jobs
        mint their own tracer on its epoch and log through their own
        correlated logger; queue-level events log through ``obs.log``.
        Omitting it (unit tests) disables tracing and logging but not
        metrics — those flow through ``metrics`` regardless.
        """
        self._runner = runner
        self.limits = limits or ServiceLimits()
        self._cache = cache
        self._obs = obs
        self._queue: asyncio.Queue[Job] = asyncio.Queue()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, str] = {}  # job_key -> leader job id
        self._tenant_load: dict[str, int] = {}
        self._active = 0  # queued + running
        self._seq = 0
        self._draining = False
        self._worker_tasks: list[asyncio.Task] = []

        help_sub = "Job submissions by admission outcome"
        self._m_sub = {
            outcome: metrics.counter(
                "service.submissions", help_sub, "submissions", result=outcome
            )
            for outcome in (
                "admitted",
                "deduped",
                "rejected_quota",
                "rejected_queue",
                "rejected_draining",
            )
        }
        help_dedup = "Submissions that cost no new pool run, by source"
        self._m_dedup = {
            source: metrics.counter(
                "service.dedup", help_dedup, "submissions", source=source
            )
            for source in ("inflight", "cache")
        }
        self._m_executions = metrics.counter(
            "service.executions",
            "Jobs that fanned fresh work to the pool (in-flight joins and "
            "pure cache replays excluded)",
            "jobs",
        )
        help_jobs = "Jobs by terminal state"
        self._m_jobs = {
            state: metrics.counter("service.jobs", help_jobs, "jobs", result=state)
            for state in ("done", "failed")
        }
        self._m_depth = metrics.gauge(
            "service.queue_depth", "Queued plus running jobs", "jobs"
        )
        self._m_latency = metrics.histogram(
            "service.job_latency_s", "Admission-to-finish wall latency", "s"
        )
        self._metrics = metrics
        self._tenant_help = "Per-tenant admission decisions"

    # --- admission ---------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def depth(self) -> int:
        """Queued plus running jobs."""
        return self._active

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def state_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return dict(sorted(counts.items()))

    def job_ids(self) -> list[str]:
        return sorted(self._jobs)

    def _tenant_counter(self, tenant: str, result: str):
        return self._metrics.counter(
            "service.tenant",
            self._tenant_help,
            "submissions",
            tenant=tenant,
            result=result,
        )

    def _log(self, job: Job | None, level: str, event: str, **fields) -> None:
        """Structured log via the job's correlated logger when it has
        one, else the service logger; silent without an obs bundle."""
        log = None
        if job is not None and job.obs is not None:
            log = job.obs.log
        elif self._obs is not None:
            log = self._obs.log
        if log is not None:
            log.log(level, event, **fields)

    async def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Admit one submission; ``(job, joined_existing)``.

        Raises :class:`ServiceDraining`, :class:`QuotaExceeded`, or
        :class:`QueueFull`; the caller maps those to HTTP statuses.
        """
        if self._draining:
            self._m_sub["rejected_draining"].inc()
            self._tenant_counter(spec.tenant, "reject").inc()
            self._log(
                None, "warning", "job.rejected",
                tenant=spec.tenant, reason="draining",
            )
            raise ServiceDraining()
        key = job_key(spec)
        leader_id = self._inflight.get(key)
        if leader_id is not None:
            job = self._jobs[leader_id]
            job.clients += 1
            if job.dedup == "none":
                job.dedup = "inflight"
            self._m_sub["deduped"].inc()
            self._m_dedup["inflight"].inc()
            self._tenant_counter(spec.tenant, "admit").inc()
            self._log(
                job, "info", "job.deduped",
                job_id=job.id, tenant=spec.tenant, clients=job.clients,
            )
            return job, True
        load = self._tenant_load.get(spec.tenant, 0)
        if load >= self.limits.tenant_quota:
            self._m_sub["rejected_quota"].inc()
            self._tenant_counter(spec.tenant, "reject").inc()
            self._log(
                None, "warning", "job.rejected",
                tenant=spec.tenant, reason="quota",
            )
            raise QuotaExceeded(
                spec.tenant, self.limits.tenant_quota, self.limits.retry_after_s
            )
        if self._active >= self.limits.queue_limit:
            self._m_sub["rejected_queue"].inc()
            self._tenant_counter(spec.tenant, "reject").inc()
            self._log(
                None, "warning", "job.rejected",
                tenant=spec.tenant, reason="queue",
            )
            raise QueueFull(self.limits.queue_limit, self.limits.retry_after_s)

        self._seq += 1
        job = Job(id=f"job-{self._seq:06d}", spec=spec, key=key)
        if spec.trace and self._obs is not None:
            # Mint the per-job obs bundle at the accept boundary: its
            # tracer shares the service epoch (so the server-recorded
            # http.accept span and everything after it sit on one time
            # axis) and the shared metrics registry; the trace id is
            # content-derived from the job identity.
            job.trace_id = mint_trace_id(job.id, job.key)
            job.obs = Obs(
                trace_id=job.trace_id,
                metrics=self._metrics,
                epoch_ns=self._obs.tracer.epoch_ns,
            )
            job.t_accept_ns = job.obs.tracer.now_ns()
        if self._cache is not None and all(
            self._cache.contains(k) for k in entry_keys(spec).values()
        ):
            # Every entry is already cached: the run will be a pure
            # cache replay.  Classified at admission so the counter is
            # deterministic (no race with concurrent evictions).
            job.dedup = "cache"
            self._m_dedup["cache"].inc()
        job.t_submit = asyncio.get_running_loop().time()
        self._jobs[job.id] = job
        self._inflight[key] = job.id
        self._tenant_load[spec.tenant] = load + 1
        self._active += 1
        self._m_depth.set(self._active)
        self._m_sub["admitted"].inc()
        self._tenant_counter(spec.tenant, "admit").inc()
        self._log(
            job, "info", "job.admitted",
            job_id=job.id, tenant=spec.tenant, dedup=job.dedup,
            depth=self._active,
        )
        await self._queue.put(job)
        return job, False

    # --- execution ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker coroutines (idempotent)."""
        if self._worker_tasks:
            return
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(), name=f"service-worker-{i}")
            for i in range(self.limits.workers)
        ]

    async def _worker_loop(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                await self._run_job(job)
            finally:
                self._queue.task_done()

    async def _run_job(self, job: Job) -> None:
        job.state = "running"
        if job.obs is not None:
            # Queue wait: admission -> worker pickup.  Recorded with an
            # explicit start so it touches http.accept exactly at
            # t_accept — sequential host-lane siblings, strict nesting.
            job.obs.tracer.complete(
                "queue.wait",
                cat="service",
                t0_wall_ns=job.t_accept_ns,
                job_id=job.id,
            )
        self._log(job, "info", "job.started", job_id=job.id, dedup=job.dedup)
        if job.dedup != "cache":
            # A "cache" job replays every entry from the shared store —
            # run_suite never touches the pool for it.
            self._m_executions.inc()
        try:
            result = await asyncio.to_thread(self._runner, job)
        except Exception as err:  # noqa: BLE001 - runner failures become job state
            message = f"{type(err).__name__}: {err}"
            job.finish("failed", error=message)
            self._m_jobs["failed"].inc()
            self._log(job, "error", "job.failed", job_id=job.id, error=message)
        else:
            job.finish("done", result=result)
            self._m_jobs["done"].inc()
            self._log(job, "info", "job.finished", job_id=job.id, state="done")
        finally:
            self._active -= 1
            self._m_depth.set(self._active)
            tenant = job.spec.tenant
            load = self._tenant_load.get(tenant, 1) - 1
            if load <= 0:
                self._tenant_load.pop(tenant, None)
            else:
                self._tenant_load[tenant] = load
            if self._inflight.get(job.key) == job.id:
                del self._inflight[job.key]
            loop = asyncio.get_running_loop()
            self._m_latency.observe(loop.time() - job.t_submit)

    async def drain(self) -> None:
        """Reject new work, finish everything admitted, stop the workers."""
        self._draining = True
        await self._queue.join()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
