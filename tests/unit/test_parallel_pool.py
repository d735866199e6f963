"""Fault injection for the process-pool runner.

Workers that misbehave in every way the OS allows — raise, hang past
the timeout, or die without a Python traceback (``os._exit``) — must be
retried up to the bound and then reported as structured failures, while
innocent tasks in the same gang still complete.  Result order must
always equal submission order.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time

import pytest

from repro.errors import ParallelError
from repro.obs import Obs
from repro.parallel import Task, TaskFailure, run_tasks


# --- worker functions (module-level: must be picklable) --------------------


def _double(x: int) -> int:
    return x * 2


def _slow_double(x: int) -> int:
    time.sleep(0.05 * (x % 3))
    return x * 2


def _boom() -> None:
    raise ValueError("boom")  # EXC001: injected fault, deliberately outside ReproError


def _die() -> None:
    os._exit(17)


def _hang() -> None:
    time.sleep(30.0)


def _flaky_crash(marker: str) -> str:
    """Dies on the first call, succeeds once the marker exists."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(9)
    return "recovered"


def _flaky_raise(marker: str) -> str:
    """Raises on the first call, succeeds once the marker exists."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("transient")  # EXC001: injected fault, deliberately outside ReproError
    return "recovered"


class TestOrderingAndSuccess:
    def test_results_in_submission_order(self):
        outcomes = run_tasks(
            [Task(f"t{i}", _slow_double, (i,)) for i in range(9)], jobs=4
        )
        assert [o.name for o in outcomes] == [f"t{i}" for i in range(9)]
        assert [o.value for o in outcomes] == [2 * i for i in range(9)]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_empty_task_list(self):
        assert run_tasks([], jobs=4) == []

    def test_single_worker_pool(self):
        outcomes = run_tasks(
            [Task(f"t{i}", _double, (i,)) for i in range(3)], jobs=1
        )
        assert [o.value for o in outcomes] == [0, 2, 4]


class TestValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ParallelError, match="duplicate task names"):
            run_tasks([Task("a", _double, (1,)), Task("a", _double, (2,))])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ParallelError, match="jobs"):
            run_tasks([Task("a", _double, (1,))], jobs=0)

    def test_bad_retries_rejected(self):
        with pytest.raises(ParallelError, match="retries"):
            run_tasks([Task("a", _double, (1,))], retries=-1)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ParallelError, match="timeout_s"):
            run_tasks([Task("a", _double, (1,))], timeout_s=0.0)


class TestFaultInjection:
    def test_raising_task_is_structured_failure(self):
        outcomes = run_tasks(
            [
                Task("a", _double, (1,)),
                Task("b", _boom),
                Task("c", _double, (3,)),
            ],
            jobs=2,
            retries=1,
        )
        by_name = {o.name: o for o in outcomes}
        assert by_name["a"].ok and by_name["a"].value == 2
        assert by_name["c"].ok and by_name["c"].value == 6
        failure = by_name["b"].failure
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "error"
        assert "boom" in failure.message
        assert failure.attempts == 2  # gang attempt + one isolated retry

    def test_dying_worker_does_not_sink_the_gang(self):
        outcomes = run_tasks(
            [
                Task("a", _double, (1,)),
                Task("d", _die),
                Task("c", _double, (3,)),
            ],
            jobs=2,
            retries=1,
        )
        by_name = {o.name: o for o in outcomes}
        assert by_name["a"].ok and by_name["a"].value == 2
        assert by_name["c"].ok and by_name["c"].value == 6
        failure = by_name["d"].failure
        assert failure is not None
        assert failure.kind == "crash"
        assert failure.attempts == 2

    def test_timeout_is_bounded_and_attributed(self):
        t0 = time.perf_counter()  # lint: disable=DET001 (test bounds host wall-clock)
        outcomes = run_tasks(
            [Task("h", _hang), Task("a", _double, (5,))],
            jobs=2,
            timeout_s=0.3,
            retries=0,
        )
        elapsed = time.perf_counter() - t0  # lint: disable=DET001 (test bounds host wall-clock)
        by_name = {o.name: o for o in outcomes}
        assert by_name["a"].ok and by_name["a"].value == 10
        failure = by_name["h"].failure
        assert failure is not None
        assert failure.kind == "timeout"
        # One gang timeout, no retries; the hung worker was terminated,
        # not awaited (a join would take the task's full 30 s sleep).
        assert elapsed < 10.0

    def test_crash_retry_recovers_flaky_task(self, tmp_path):
        marker = str(tmp_path / "crash-marker")
        outcomes = run_tasks(
            [Task("f", _flaky_crash, (marker,))], jobs=2, retries=2
        )
        assert outcomes[0].ok
        assert outcomes[0].value == "recovered"

    def test_raise_retry_recovers_flaky_task(self, tmp_path):
        marker = str(tmp_path / "raise-marker")
        outcomes = run_tasks(
            [Task("f", _flaky_raise, (marker,))], jobs=2, retries=1
        )
        assert outcomes[0].ok
        assert outcomes[0].value == "recovered"
        assert outcomes[0].attempts == 2

    def test_retry_bound_exhausts(self, tmp_path):
        outcomes = run_tasks([Task("b", _boom)], jobs=1, retries=3)
        failure = outcomes[0].failure
        assert failure is not None
        assert failure.attempts == 4  # 1 + 3 retries

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="zombie scan needs /proc"
    )
    def test_timeout_retry_cycle_leaves_no_zombie_workers(self, tmp_path):
        """Terminated workers must be reaped, not abandoned as zombies.

        The scan reads /proc directly instead of using multiprocessing
        APIs: ``active_children()`` joins (reaps) as a side effect, which
        would hide exactly the leak this test exists to catch.
        """

        def zombie_children() -> list[int]:
            me = str(os.getpid())
            zombies = []
            for entry in os.listdir("/proc"):
                if not entry.isdigit():
                    continue
                try:
                    with open(f"/proc/{entry}/stat") as fh:
                        fields = fh.read().rpartition(")")[2].split()
                except OSError:
                    continue
                # After the comm field: fields[0]=state, fields[1]=ppid.
                if len(fields) > 1 and fields[1] == me and fields[0] == "Z":
                    zombies.append(int(entry))
            return zombies

        outcomes = run_tasks(
            [Task("h", _hang), Task("a", _double, (5,))],
            jobs=2,
            timeout_s=0.3,
            retries=1,
        )
        by_name = {o.name: o for o in outcomes}
        assert by_name["h"].failure is not None
        assert by_name["h"].failure.kind == "timeout"
        assert by_name["a"].ok
        # _terminate joins each worker before returning, so no child of
        # this process may still be defunct.  A short grace loop absorbs
        # unrelated pytest/plugin children finishing asynchronously.
        deadline = time.perf_counter() + 5.0  # lint: disable=DET001 (test bounds host wall-clock)
        while zombie_children() and time.perf_counter() < deadline:  # lint: disable=DET001
            time.sleep(0.05)
        assert zombie_children() == []

    def test_failure_as_dict_is_json_shaped(self):
        outcomes = run_tasks([Task("b", _boom)], jobs=1, retries=0)
        doc = outcomes[0].failure.as_dict()
        assert doc == {
            "name": "b",
            "kind": "error",
            "message": doc["message"],
            "attempts": 1,
        }
        assert "boom" in doc["message"]

    def test_failed_task_is_logged_with_kind_and_attempts(self):
        sink = io.StringIO()
        obs = Obs(log_stream=sink)
        (outcome,) = run_tasks([Task("b", _boom)], jobs=1, retries=0, obs=obs)
        assert not outcome.ok
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        (failed,) = [r for r in records if r["event"] == "pool.task.failed"]
        assert failed["level"] == "warning"
        assert failed["task"] == "b"
        assert failed["failure_kind"] == outcome.failure.kind == "error"
        assert failed["attempts"] == outcome.failure.attempts == 1


class TestUnpicklableTasks:
    """What cannot cross the process boundary fails its own task.

    A lambda or nested-function ``fn`` and a lock or open-file argument
    cannot be pickled into a worker: the pool reports each as a
    structured ``"error"`` failure naming the pickling cause.
    """

    @pytest.mark.parametrize(
        "case, cause",
        [
            ("lambda-fn", "<lambda>"),
            ("nested-fn", "nested"),
            ("lock-arg", "_thread.lock"),
            ("file-arg", "TextIOWrapper"),
        ],
        ids=["lambda-fn", "nested-fn", "lock-arg", "file-arg"],
    )
    def test_reported_as_error_naming_the_cause(self, case, cause, tmp_path):
        def nested(x):
            return x

        with open(tmp_path / "data.txt", "w") as handle:
            task = {
                "lambda-fn": Task("t", lambda x: x, (1,)),
                "nested-fn": Task("t", nested, (1,)),
                "lock-arg": Task("t", _double, (threading.Lock(),)),
                "file-arg": Task("t", _double, (handle,)),
            }[case]
            (outcome,) = run_tasks([task], jobs=1, retries=0)
        failure = outcome.failure
        assert failure is not None and failure.kind == "error"
        assert "pickle" in failure.message and cause in failure.message
        assert failure.attempts == 1
