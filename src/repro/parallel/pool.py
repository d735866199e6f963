"""Process-pool task runner with timeouts, bounded retries, determinism.

``run_tasks`` fans a list of :class:`Task` thunks out across a
:class:`concurrent.futures.ProcessPoolExecutor` and returns one
:class:`TaskOutcome` per task **in input order**, regardless of
completion order.  Worker misbehaviour is contained, never fatal:

* a task that raises is retried up to the bound, then reported as a
  structured :class:`TaskFailure` (kind ``"error"``);
* a task that exceeds ``timeout_s`` has its worker terminated and is
  retried in isolation (kind ``"timeout"``);
* a worker that dies mid-task (segfault, ``os._exit``) breaks the gang
  pool; survivors are harvested and every unresolved task is re-run in
  an isolated single-worker pool so the crash is attributed to exactly
  the task that causes it (kind ``"crash"``).

Two execution phases keep the common case fast and the failure case
attributable:

1. **Gang phase** — all tasks in one pool, ``jobs`` workers.  Futures
   are awaited in submission order; because waits overlap execution,
   every task gets at least ``timeout_s`` of wall clock from the moment
   the runner starts waiting on it.
2. **Isolation phase** — only tasks left unresolved by the gang phase
   (raised, timed out, or victims of a pool breakage).  Each runs in a
   fresh single-worker pool with an exact per-attempt timeout, retried
   while its attempt budget (``retries + 1`` attempts total) lasts.

Task functions must be picklable (defined at module top level) and
deterministic: the suite integration relies on a parallel run being
byte-identical to a serial one.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import (
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import ParallelError

#: Upper bound on gang-pool size however many tasks arrive.
MAX_JOBS = 64

#: How long :func:`_terminate` waits for a SIGTERMed worker to exit
#: before escalating to SIGKILL.  Workers are pure compute, so a well-
#: behaved one dies in milliseconds; the budget only bounds the worst
#: case (e.g. a worker stuck in uninterruptible I/O).
REAP_GRACE_S = 5.0


@dataclass(frozen=True)
class Task:
    """One unit of work: a picklable callable plus its arguments."""

    name: str
    fn: Callable[..., Any]
    args: tuple = ()


@dataclass(frozen=True)
class TaskFailure:
    """Structured description of a task that exhausted its retries."""

    name: str
    kind: str  # "error" | "timeout" | "crash"
    message: str
    attempts: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": str(self.name),
            "kind": str(self.kind),
            "message": str(self.message),
            "attempts": int(self.attempts),
        }


@dataclass
class TaskOutcome:
    """Result slot for one task; exactly one of value/failure is set."""

    name: str
    value: Any = None
    failure: TaskFailure | None = None
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class _Slot:
    task: Task
    attempts: int = 0
    value: Any = None
    done: bool = False
    last_kind: str = "error"
    last_message: str = ""

    def record_failure(self, kind: str, message: str) -> None:
        self.attempts += 1
        self.last_kind = kind
        self.last_message = message

    def record_success(self, value: Any) -> None:
        self.attempts += 1
        self.value = value
        self.done = True


class _PoolObs:
    """Parent-side instrumentation for one ``run_tasks`` call.

    Workers never see the obs bundle (it is not picklable and must not
    perturb task results); everything here is measured from the parent:
    submit-to-resolution windows per task (one export lane each, so
    concurrent windows stay renderable), phase spans, and outcome /
    retry counters.
    """

    def __init__(self, obs, n_tasks: int) -> None:
        self.tracer = obs.tracer
        self.log = obs.log
        self.track = self.tracer.new_track("pool")
        metrics = obs.metrics
        help_tasks = "Pool tasks by final outcome"
        self.results = {
            kind: metrics.counter("pool.tasks", help_tasks, "tasks", result=kind)
            for kind in ("ok", "error", "timeout", "crash")
        }
        self.retries = metrics.counter(
            "pool.retries", "Task attempts beyond the first", "attempts"
        )
        self.task_wall = metrics.histogram(
            "pool.task_wall_s",
            "Wall time from task submission to resolution",
            "s",
        )
        self._t_submit: dict[int, int] = {}

    def phase(self, name: str, **args):
        return self.tracer.span(name, cat="pool", **args)

    def submitted(self, index: int) -> None:
        self._t_submit[index] = self.tracer.now_ns()

    def resolved(self, index: int, slot: "_Slot", phase: str) -> None:
        t0 = self._t_submit.pop(index, None)
        if t0 is None:
            return
        t1 = self.tracer.now_ns()
        self.task_wall.observe((t1 - t0) / 1e9)
        self.tracer.complete(
            f"pool.task:{slot.task.name}",
            cat="pool",
            track=self.track,
            t0_wall_ns=t0,
            t1_wall_ns=t1,
            lane=index + 1,
            phase=phase,
            outcome="ok" if slot.done else slot.last_kind,
            attempts=slot.attempts,
        )
        if not slot.done:
            self.log.warning(
                "pool.task.failed",
                task=slot.task.name,
                failure_kind=slot.last_kind,
                attempts=slot.attempts,
                phase=phase,
            )

    def flush_harvested(self, slots: list["_Slot"]) -> None:
        for index, slot in enumerate(slots):
            if slot.done and index in self._t_submit:
                self.resolved(index, slot, "gang")

    def finish(self, slots: list["_Slot"]) -> None:
        for slot in slots:
            self.results["ok" if slot.done else slot.last_kind].inc()
            if slot.attempts > 1:
                self.retries.inc(slot.attempts - 1)


def _mp_context():
    """Fork where available: inherits sys.path and test monkeypatches."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return multiprocessing.get_context()


def _terminate(executor: ProcessPoolExecutor) -> None:
    """Abandon a pool whose workers may be stuck: terminate, then reap.

    Terminating alone is not enough — a SIGTERMed child stays a zombie
    until its parent waits on it, so a long run with many timeout-retry
    cycles would accumulate defunct processes (and leak their pids).
    Each worker is therefore joined with a shared :data:`REAP_GRACE_S`
    budget, escalating to SIGKILL for any that ignored SIGTERM.
    """
    processes = list(getattr(executor, "_processes", {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
    deadline = time.monotonic() + REAP_GRACE_S  # lint: disable=DET001 (host-side process reaping)
    for proc in processes:
        try:
            proc.join(max(0.0, deadline - time.monotonic()))  # lint: disable=DET001 (host-side process reaping)
            if proc.is_alive():  # pragma: no cover - ignored SIGTERM
                proc.kill()
                proc.join()
        except (OSError, ValueError, AssertionError):  # pragma: no cover
            pass


def run_tasks(
    tasks: Sequence[Task],
    *,
    jobs: int | None = None,
    timeout_s: float | None = None,
    retries: int = 1,
    obs=None,
) -> list[TaskOutcome]:
    """Execute ``tasks`` across worker processes; results in input order.

    ``obs`` (a :class:`repro.obs.Obs`) instruments the run from the
    parent side — per-task spans, gang/isolation phase spans, outcome
    and retry counters.  Workers are never instrumented, so results are
    identical with or without it.
    """
    tasks = list(tasks)
    if jobs is not None and jobs < 1:
        raise ParallelError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ParallelError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ParallelError(f"timeout_s must be positive, got {timeout_s}")
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ParallelError(f"duplicate task names: {dupes}")
    if not tasks:
        return []

    slots = [_Slot(task=t) for t in tasks]
    max_attempts = retries + 1
    worker_count = min(len(tasks), jobs or MAX_JOBS, MAX_JOBS)

    pobs = _PoolObs(obs, len(slots)) if obs is not None else None

    if pobs is None:
        _gang_phase(slots, worker_count, timeout_s)
        _isolation_phase(slots, timeout_s, max_attempts)
    else:
        with pobs.phase("pool.gang", jobs=worker_count, tasks=len(slots)):
            _gang_phase(slots, worker_count, timeout_s, pobs)
        unresolved = sum(1 for slot in slots if not slot.done)
        if unresolved:
            with pobs.phase("pool.isolation", tasks=unresolved):
                _isolation_phase(slots, timeout_s, max_attempts, pobs)
        pobs.finish(slots)

    outcomes: list[TaskOutcome] = []
    for slot in slots:
        if slot.done:
            outcomes.append(
                TaskOutcome(
                    name=slot.task.name, value=slot.value, attempts=slot.attempts
                )
            )
        else:
            outcomes.append(
                TaskOutcome(
                    name=slot.task.name,
                    failure=TaskFailure(
                        name=slot.task.name,
                        kind=slot.last_kind,
                        message=slot.last_message,
                        attempts=slot.attempts,
                    ),
                    attempts=slot.attempts,
                )
            )
    return outcomes


def _gang_phase(
    slots: list[_Slot],
    worker_count: int,
    timeout_s: float | None,
    pobs: _PoolObs | None = None,
) -> None:
    """One shared pool, all tasks; unresolved slots fall through."""
    executor = ProcessPoolExecutor(
        max_workers=worker_count, mp_context=_mp_context()
    )
    clean_shutdown = True
    try:
        futures = []
        for index, slot in enumerate(slots):
            futures.append(executor.submit(slot.task.fn, *slot.task.args))
            if pobs is not None:
                pobs.submitted(index)
        for index, (slot, future) in enumerate(zip(slots, futures)):
            try:
                slot.record_success(future.result(timeout=timeout_s))
                if pobs is not None:
                    pobs.resolved(index, slot, "gang")
            except FutureTimeoutError:
                # This task had its full budget; workers may be stuck on
                # it or behind it, so abandon the pool and harvest the
                # rest opportunistically without further waiting.
                slot.record_failure(
                    "timeout", f"no result within {timeout_s} s"
                )
                if pobs is not None:
                    pobs.resolved(index, slot, "gang")
                _harvest_done(slots, futures)
                if pobs is not None:
                    pobs.flush_harvested(slots)
                _terminate(executor)
                clean_shutdown = False
                return
            except BrokenProcessPool:
                # A worker died; attribution is impossible here (every
                # pending future breaks at once), so charge nobody and
                # let the isolation phase identify the culprit.
                _harvest_done(slots, futures)
                if pobs is not None:
                    pobs.flush_harvested(slots)
                _terminate(executor)
                clean_shutdown = False
                return
            except Exception as err:  # noqa: BLE001 - task's own exception
                slot.record_failure("error", f"{type(err).__name__}: {err}")
                if pobs is not None:
                    pobs.resolved(index, slot, "gang")
    finally:
        if clean_shutdown:
            executor.shutdown(wait=True)


def _harvest_done(slots: list[_Slot], futures: list) -> None:
    """Collect results of futures that already finished successfully."""
    for slot, future in zip(slots, futures):
        if slot.done or not future.done():
            continue
        try:
            exc = future.exception(timeout=0)
            if exc is None:
                slot.record_success(future.result(timeout=0))
            elif not isinstance(exc, BrokenProcessPool):
                slot.record_failure("error", f"{type(exc).__name__}: {exc}")
        except (FutureTimeoutError, BrokenProcessPool):
            pass


def _isolation_phase(
    slots: list[_Slot],
    timeout_s: float | None,
    max_attempts: int,
    pobs: _PoolObs | None = None,
) -> None:
    """Retry unresolved tasks one-per-pool for exact attribution."""
    for index, slot in enumerate(slots):
        while not slot.done and slot.attempts < max_attempts:
            executor = ProcessPoolExecutor(
                max_workers=1, mp_context=_mp_context()
            )
            clean_shutdown = True
            try:
                future = executor.submit(slot.task.fn, *slot.task.args)
                if pobs is not None:
                    pobs.submitted(index)
                try:
                    slot.record_success(future.result(timeout=timeout_s))
                except FutureTimeoutError:
                    slot.record_failure(
                        "timeout", f"no result within {timeout_s} s"
                    )
                    _terminate(executor)
                    clean_shutdown = False
                except BrokenProcessPool:
                    slot.record_failure("crash", "worker process died mid-task")
                    clean_shutdown = False
                except Exception as err:  # noqa: BLE001 - task's own exception
                    slot.record_failure(
                        "error", f"{type(err).__name__}: {err}"
                    )
            finally:
                if pobs is not None:
                    pobs.resolved(index, slot, "isolation")
                if clean_shutdown:
                    executor.shutdown(wait=True)
