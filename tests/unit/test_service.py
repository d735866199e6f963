"""Unit coverage for the experiment service's queue and job model.

Everything here runs against a stub runner — no HTTP, no process pool —
so admission control, single-flight dedup, quotas, drain, and the
``repro.service/job`` schema are exercised in milliseconds.  The real
daemon (sockets, run_suite, SIGTERM) is covered by
``tests/integration/test_service_daemon.py`` and the CI smoke.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading

import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.suite import SUITE
from repro.errors import ServiceError
from repro.obs import MetricsRegistry
from repro.service import (
    JobQueue,
    JobSpec,
    QueueFull,
    QuotaExceeded,
    ServiceDraining,
    ServiceLimits,
    entry_keys,
    job_document,
    job_key,
    validate_job_document,
)


def _spec(seed: int = 0, tenant: str = "t0", entries=("sec5a_idle_sibling",)):
    return JobSpec.from_request(
        {
            "tenant": tenant,
            "entries": list(entries),
            "config": {"seed": seed, "scale": 0.01},
        }
    )


class TestJobSpec:
    def test_defaults_cover_whole_suite(self):
        spec = JobSpec.from_request({})
        assert spec.tenant == "anonymous"
        assert list(spec.entries) == list(SUITE)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"bogus": 1},
            {"tenant": ""},
            {"tenant": 7},
            {"entries": "sec5a_idle_sibling"},
            {"entries": ["no_such_entry"]},
            {"entries": ["sec5a_idle_sibling", "sec5a_idle_sibling"]},
            {"entries": []},
            {"config": 3},
            {"config": {"bogus_field": 1}},
            {"config": {"seed": "zero"}},
            {"config": {"seed": True}},
            {"config": {"scale": 0}},
            {"config": {"scale": "big"}},
            {"config": {"interval_s": -1.0}},
            {"config": {"sku": ""}},
            {"config": {"n_packages": 0}},
            # A removed config field from an older client fails closed.
            {"config": {"backend": "reference"}},
            # json.loads accepts the NaN and Infinity tokens.
            {"config": {"scale": float("nan")}},
            {"config": {"scale": float("inf")}},
            {"config": {"interval_s": float("nan")}},
            # A metric label that /metrics could not encode.
            {"tenant": "\ud800"},
            # An unknown SKU or socket count fails at admission, not in a worker.
            {"config": {"n_packages": 3}},
            {"config": {"n_packages": True}},
            {"config": {"sku": "EPYC 9999"}},
        ],
    )
    def test_bad_requests_rejected(self, doc):
        with pytest.raises(ServiceError):
            JobSpec.from_request(doc)

    def test_job_key_ignores_tenant_but_not_config(self):
        assert job_key(_spec(tenant="a")) == job_key(_spec(tenant="b"))
        assert job_key(_spec(seed=0)) != job_key(_spec(seed=1))
        assert job_key(_spec()) != job_key(
            _spec(entries=("sec5a_idle_sibling", "sec7_rapl_update_rate"))
        )

    def test_entry_keys_match_cache_keys(self):
        from repro.cache import cache_key

        spec = _spec(entries=("sec5a_idle_sibling", "sec7_rapl_update_rate"))
        keys = entry_keys(spec)
        assert set(keys) == set(spec.entries)
        assert keys["sec5a_idle_sibling"] == cache_key(
            "sec5a_idle_sibling", spec.config
        )


class _Gate:
    """A runner whose jobs block until released, from the loop thread."""

    def __init__(self, fail: bool = False):
        self.event = threading.Event()
        self.calls: list[JobSpec] = []
        self.fail = fail
        self._lock = threading.Lock()

    def __call__(self, job) -> dict:
        spec = job.spec
        with self._lock:
            self.calls.append(spec)
        assert self.event.wait(timeout=30.0)
        if self.fail:
            raise ServiceError("injected job failure")
        return {"seed": spec.config.seed, "entries": list(spec.entries)}


def _run(coro):
    return asyncio.run(coro)


class TestJobQueue:
    def test_single_flight_dedup_runs_once(self):
        gate = _Gate()

        async def scenario():
            queue = JobQueue(gate, metrics=MetricsRegistry())
            await queue.start()
            leader, joined = await queue.submit(_spec(tenant="a"))
            assert not joined
            follower, joined = await queue.submit(_spec(tenant="b"))
            assert joined
            assert follower is leader
            assert leader.clients == 2
            assert leader.dedup == "inflight"
            gate.event.set()
            await asyncio.wait_for(leader.finished.wait(), 30)
            await queue.drain()
            return leader

        leader = _run(scenario())
        assert len(gate.calls) == 1  # one run served both clients
        assert leader.state == "done"
        assert leader.result == {"seed": 0, "entries": ["sec5a_idle_sibling"]}

    def test_distinct_configs_all_execute(self):
        gate = _Gate()

        async def scenario():
            queue = JobQueue(
                gate,
                metrics=MetricsRegistry(),
                limits=ServiceLimits(workers=4),
            )
            await queue.start()
            jobs = [(await queue.submit(_spec(seed=s)))[0] for s in range(3)]
            gate.event.set()
            for job in jobs:
                await asyncio.wait_for(job.finished.wait(), 30)
            await queue.drain()
            return jobs

        jobs = _run(scenario())
        assert len(gate.calls) == 3
        assert sorted(j.result["seed"] for j in jobs) == [0, 1, 2]

    def test_tenant_quota_rejects_with_retry_hint(self):
        gate = _Gate()

        async def scenario():
            queue = JobQueue(
                gate,
                metrics=MetricsRegistry(),
                limits=ServiceLimits(tenant_quota=2, retry_after_s=2.5),
            )
            await queue.start()
            for seed in range(2):
                await queue.submit(_spec(seed=seed, tenant="greedy"))
            with pytest.raises(QuotaExceeded) as excinfo:
                await queue.submit(_spec(seed=9, tenant="greedy"))
            assert excinfo.value.retry_after_s == 2.5
            assert excinfo.value.http_status == 429
            # Another tenant still gets in; joining an in-flight job is
            # free even for the throttled tenant.
            await queue.submit(_spec(seed=3, tenant="modest"))
            _, joined = await queue.submit(_spec(seed=0, tenant="greedy"))
            assert joined
            gate.event.set()
            await queue.drain()

        _run(scenario())

    def test_queue_budget_rejects_everyone(self):
        gate = _Gate()

        async def scenario():
            queue = JobQueue(
                gate,
                metrics=MetricsRegistry(),
                limits=ServiceLimits(queue_limit=2, tenant_quota=8),
            )
            await queue.start()
            for seed in range(2):
                await queue.submit(_spec(seed=seed))
            with pytest.raises(QueueFull):
                await queue.submit(_spec(seed=7))
            gate.event.set()
            await queue.drain()

        _run(scenario())

    def test_quota_frees_up_after_completion(self):
        gate = _Gate()

        async def scenario():
            queue = JobQueue(
                gate,
                metrics=MetricsRegistry(),
                limits=ServiceLimits(tenant_quota=1),
            )
            await queue.start()
            first, _ = await queue.submit(_spec(seed=0))
            gate.event.set()
            await asyncio.wait_for(first.finished.wait(), 30)
            second, joined = await queue.submit(_spec(seed=1))
            assert not joined
            await asyncio.wait_for(second.finished.wait(), 30)
            await queue.drain()
            return first, second

        first, second = _run(scenario())
        assert first.state == "done" and second.state == "done"

    def test_failed_runner_yields_failed_job_not_crash(self):
        gate = _Gate(fail=True)

        async def scenario():
            queue = JobQueue(gate, metrics=MetricsRegistry())
            await queue.start()
            job, _ = await queue.submit(_spec())
            gate.event.set()
            await asyncio.wait_for(job.finished.wait(), 30)
            # The worker survives to run the next job.
            gate.fail = False
            ok_job, _ = await queue.submit(_spec(seed=5))
            await asyncio.wait_for(ok_job.finished.wait(), 30)
            await queue.drain()
            return job, ok_job

        job, ok_job = _run(scenario())
        assert job.state == "failed"
        assert "injected job failure" in job.error
        assert ok_job.state == "done"

    def test_drain_finishes_admitted_work_then_rejects(self):
        gate = _Gate()

        async def scenario():
            queue = JobQueue(gate, metrics=MetricsRegistry())
            await queue.start()
            job, _ = await queue.submit(_spec())
            drainer = asyncio.create_task(queue.drain())
            await asyncio.sleep(0)  # let drain set the flag
            with pytest.raises(ServiceDraining) as excinfo:
                await queue.submit(_spec(seed=8))
            assert excinfo.value.http_status == 503
            gate.event.set()
            await asyncio.wait_for(drainer, 30)
            return job

        job = _run(scenario())
        assert job.state == "done"  # admitted before drain => completed

    def test_cache_hit_jobs_do_not_count_as_executions(self):
        gate = _Gate()

        class _AllCached:
            def contains(self, key: str) -> bool:
                return True

        async def scenario():
            metrics = MetricsRegistry()
            queue = JobQueue(gate, metrics=metrics, cache=_AllCached())
            await queue.start()
            job, _ = await queue.submit(_spec())
            gate.event.set()
            await asyncio.wait_for(job.finished.wait(), 30)
            await queue.drain()
            return job, metrics

        job, metrics = _run(scenario())
        assert job.dedup == "cache"
        assert job.state == "done"
        text = metrics.to_prometheus()
        series = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if not line.startswith("#") and line
        )
        assert series["repro_service_executions"] == "0"
        assert series['repro_service_dedup{source="cache"}'] == "1"

    def test_bad_limits_rejected(self):
        for kwargs in (
            {"queue_limit": 0},
            {"tenant_quota": 0},
            {"workers": 0},
            {"retry_after_s": 0.0},
        ):
            with pytest.raises(ServiceError):
                ServiceLimits(**kwargs)


class TestJobSchema:
    def _done_job(self):
        gate = _Gate()

        async def scenario():
            queue = JobQueue(gate, metrics=MetricsRegistry())
            await queue.start()
            job, _ = await queue.submit(_spec())
            gate.event.set()
            await asyncio.wait_for(job.finished.wait(), 30)
            await queue.drain()
            return job

        return _run(scenario())

    def test_job_document_round_trips_validation(self):
        job = self._done_job()
        doc = json.loads(json.dumps(job_document(job)))
        assert validate_job_document(doc) == []
        assert doc["schema"] == "repro.service/job"
        assert doc["state"] == "done"
        assert doc["result_ready"] is True
        assert doc["config"]["seed"] == 0

    def test_validator_rejects_mutations(self):
        job = self._done_job()
        base = job_document(job)
        assert validate_job_document("nope") != []
        for mutation in (
            {"schema": "other/schema"},
            {"schema_version": 99},
            {"state": "exploded"},
            {"state": "failed", "error": None},
            {"dedup": "telepathy"},
            {"entries": []},
            {"entries": ["a", "a"]},
            {"clients": 0},
            {"clients": True},
            {"config": None},
            {"result_ready": "yes"},
            {"result_ready": True, "state": "running"},
            {"trace_id": ""},
            {"trace_id": 7},
        ):
            doc = {**base, **mutation}
            assert validate_job_document(doc) != [], mutation

    def test_queued_job_document_validates(self):
        spec = _spec()
        from repro.service.jobs import Job

        job = Job(id="job-000001", spec=spec, key=job_key(spec))
        assert validate_job_document(job_document(job)) == []


class TestServiceHelpers:
    def test_execute_matches_direct_run_suite(self):
        # The service's runner must produce the exact suite_to_dict
        # document a direct call produces (mode-independence).
        from repro.core.suite import run_suite, suite_to_dict
        from repro.service.server import ExperimentService

        from repro.service.jobs import Job

        service = ExperimentService(pool_jobs=1)
        spec = _spec()
        via_service = service._execute(
            Job(id="job-000001", spec=spec, key=job_key(spec))
        )
        direct = suite_to_dict(
            run_suite(
                dataclasses.replace(spec.config),
                only=list(spec.entries),
            )
        )
        assert json.dumps(via_service, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_untraced_jobs_record_nothing_into_the_service_obs(self):
        # An untraced job runs with obs=None: it adds no span to the
        # daemon's tracer and no series to the shared registry, so
        # /metrics holds only the service's own families however many
        # jobs run.
        from repro.service.jobs import Job
        from repro.service.server import ExperimentService

        service = ExperimentService(pool_jobs=1)
        for seed in (7, 8, 9):
            spec = _spec(seed=seed, entries=("fig7_idle_power",))
            service._execute(Job(id=f"job-{seed:06d}", spec=spec, key=job_key(spec)))
        assert service.obs.tracer.records() == []
        families = {m["name"] for m in service.obs.metrics_snapshot()["metrics"]}
        assert families and all(name.startswith("service.") for name in families)
