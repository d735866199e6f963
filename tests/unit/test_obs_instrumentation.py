"""Instrumentation wiring: obs attached through the hot layers.

The contract under test everywhere: attaching an obs bundle changes
*what is recorded*, never *what is computed*.
"""

from __future__ import annotations

import pytest

from repro.machine import Machine
from repro.errors import MeasurementError, SimulationError
from repro.obs import COUNT_BUCKETS, Obs
from repro.obs.export import trace_document
from repro.obs.schema import validate_trace_document
from repro.parallel import Task, run_tasks
from repro.sim.engine import Simulator
from repro.units import ghz
from repro.workloads import PAUSE_LOOP


def _counter_value(obs: Obs, name: str, **labels) -> float:
    return obs.metrics.counter(name, **labels).value


# ---------------------------------------------------------------------------
# simulator
# ---------------------------------------------------------------------------


def test_simulator_counts_dispatches_and_records_spans():
    obs = Obs()
    sim = Simulator(obs=obs)
    fired = []
    for t in (100, 200, 300):
        sim.schedule_at(t, lambda t=t: fired.append(t))
    sim.run_until(1_000)
    assert fired == [100, 200, 300]
    assert _counter_value(obs, "sim.events_dispatched", machine="sim0") == 3
    # One span per non-empty batch, ending at the last event's sim time
    # rather than at the run_until target.
    [span] = obs.tracer.spans("sim.dispatch")
    assert (span["t0_sim_ns"], span["t1_sim_ns"]) == (0, 300)
    assert span["args"]["events"] == 3
    batches = obs.metrics.histogram(
        "sim.dispatch_batch", buckets=COUNT_BUCKETS, machine="sim0"
    )
    assert (batches.count, batches.sum) == (1, 3)
    assert obs.metrics.gauge("sim.queue_depth", machine="sim0").value == 0
    sim.run_until(2_000)  # an empty batch adds no span
    assert len(obs.tracer.spans("sim.dispatch")) == 1
    assert sim.now_ns == 2_000
    assert validate_trace_document(trace_document(obs.tracer)) == []


@pytest.mark.parametrize("traced", [False, True], ids=["bare", "obs"])
def test_simulator_callback_error_keeps_the_clock_at_the_event(traced):
    obs = Obs() if traced else None
    sim = Simulator(obs=obs)
    fired = []

    def boom():
        raise MeasurementError("callback failed")

    sim.schedule_at(100, lambda: fired.append(100))
    sim.schedule_at(200, boom)
    sim.schedule_at(300, lambda: fired.append(300))
    with pytest.raises(MeasurementError, match="callback failed"):
        sim.run_until(1_000)
    assert sim.now_ns == 200  # where the callback raised, not the target
    assert not sim._running
    if traced:
        [span] = obs.tracer.spans("sim.dispatch")
        assert (span["t0_sim_ns"], span["t1_sim_ns"]) == (0, 200)
        assert span["args"]["events"] == 1
    sim.run_until(1_000)  # the next batch runs normally
    assert fired == [100, 300] and sim.now_ns == 1_000


def test_simulator_rejects_attach_from_a_callback():
    sim = Simulator()
    sim.schedule_at(10, lambda: sim.attach_obs(Obs()))
    with pytest.raises(SimulationError, match="attach_obs"):
        sim.run_until(100)
    assert sim._obs is None


def test_simulator_results_identical_with_and_without_obs():
    def run(obs):
        sim = Simulator(obs=obs)
        order = []
        sim.schedule_at(50, lambda: order.append("b"))
        sim.schedule_at(50, lambda: order.append("c"))
        sim.schedule_at(10, lambda: order.append("a"))
        sim.run_until(100)
        return order, sim.now_ns

    assert run(None) == run(Obs())


# ---------------------------------------------------------------------------
# machine
# ---------------------------------------------------------------------------


@pytest.fixture
def machine():
    m = Machine("EPYC 7302", seed=7)
    yield m
    m.shutdown()


def test_machine_measure_spans_and_counters(machine):
    obs = Obs()
    machine.attach_obs(obs)
    machine.os.set_all_frequencies(ghz(2.2))
    machine.os.run(PAUSE_LOOP, [0, 1])
    machine.measure(0.05)
    machine.measure(0.05)
    assert _counter_value(obs, "machine.measures", machine="machine0") == 2
    spans = obs.tracer.spans("machine.measure")
    assert len(spans) == 2
    assert all("t0_sim_ns" in s and "t1_sim_ns" in s for s in spans)
    assert validate_trace_document(trace_document(obs.tracer)) == []


def test_machine_counts_one_settle_per_set_all_frequencies(machine):
    obs = Obs()
    machine.attach_obs(obs)
    before = _counter_value(obs, "machine.settles", machine="machine0")
    machine.os.set_all_frequencies(ghz(2.2))
    assert _counter_value(obs, "machine.settles", machine="machine0") == before + 1


def test_machine_measure_identical_with_and_without_obs():
    def run(obs):
        m = Machine("EPYC 7302", seed=7, obs=obs)
        try:
            m.os.set_all_frequencies(ghz(2.2))
            m.os.run(PAUSE_LOOP, [0, 1])
            rec = m.measure(0.05)
            return rec.true_power_w, rec.rapl_pkg_total_w, rec.ac.power_w.tolist()
        finally:
            m.shutdown()

    assert run(None) == run(Obs())


def test_tracepoint_bridge_lands_on_per_cpu_threads(machine):
    obs = Obs()
    machine.attach_obs(obs)
    machine.trace.emit(1_000, "sched_waking", 3, target_cpu=3)
    machine.trace.emit(2_000, "power_cpu_frequency", 3, state=2_200_000)
    insts = obs.tracer.instants()
    names = {r["name"] for r in insts}
    assert {"sched_waking", "power_cpu_frequency"} <= names
    assert all(r["cpu"] == 3 for r in insts if r["name"] in names)
    doc = trace_document(obs.tracer)
    assert validate_trace_document(doc) == []
    # Both tracepoints merge onto the one cpu3 thread of the machine track.
    tids = {
        e["tid"]
        for e in doc["traceEvents"]
        if e.get("ph") == "i" and e["name"] in names
    }
    assert tids == {4}


def test_tracepoint_bridge_survives_clear(machine):
    obs = Obs()
    machine.attach_obs(obs)
    machine.trace.emit(1_000, "sched_waking", 0)
    machine.trace.clear()
    # The bridge saw the event at emit time; clearing the buffer later
    # must not lose it from the exported timeline.
    assert len(obs.tracer.instants("sched_waking")) == 1


# ---------------------------------------------------------------------------
# invariant monitor
# ---------------------------------------------------------------------------


def test_monitor_emits_structured_findings(machine):
    from repro.lint.monitor import InvariantMonitor

    obs = Obs()
    machine.attach_obs(obs)
    mon = InvariantMonitor(machine, raise_on_violation=False, obs=obs).attach()
    machine.os.set_all_frequencies(ghz(2.2))
    machine.measure(0.05)
    mon.detach()
    assert _counter_value(obs, "invariant.checks") == mon.checks_run
    assert _counter_value(obs, "invariant.violations") == len(mon.violations)
    if mon.violations:  # pragma: no cover - depends on machine state
        insts = obs.tracer.instants("invariant.violation")
        assert all(r["severity"] == "error" for r in insts)


def test_monitor_without_attach_never_baselines():
    from repro.lint.monitor import InvariantMonitor

    m = Machine("EPYC 7302", seed=7)
    try:
        mon = InvariantMonitor(m)
        assert not mon._baselined  # lazy: no estimator sweep on __init__
        mon.attach()
        assert mon._baselined
        mon.detach()
    finally:
        m.shutdown()


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def test_cache_mirrors_stats_into_metrics(tmp_path):
    from repro.cache import ResultCache

    obs = Obs()
    cache = ResultCache(str(tmp_path))
    cache.attach_obs(obs)
    assert cache.get("0" * 40) is None
    cache.put("0" * 40, {"x": 1})
    assert cache.get("0" * 40) == {"x": 1}
    assert _counter_value(obs, "cache.lookups", result="hit") == 1
    assert _counter_value(obs, "cache.lookups", result="miss") == 1
    assert _counter_value(obs, "cache.stores") == 1
    assert obs.metrics.histogram("cache.get_latency_s").count == 2


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------


def _square(x: int) -> int:
    return x * x


def _fail_once_then_square(x: int) -> int:
    raise ValueError("always fails")  # EXC001: injected fault for the test


def test_pool_records_task_spans_and_outcomes():
    obs = Obs()
    tasks = [Task(name=f"t{i}", fn=_square, args=(i,)) for i in range(3)]
    outcomes = run_tasks(tasks, jobs=2, obs=obs)
    assert [o.value for o in outcomes] == [0, 1, 4]
    assert _counter_value(obs, "pool.tasks", result="ok") == 3
    spans = obs.tracer.spans()
    names = {s["name"] for s in spans}
    assert "pool.gang" in names
    assert {f"pool.task:t{i}" for i in range(3)} <= names
    # Per-task spans ride separate lanes so overlap stays renderable.
    assert validate_trace_document(trace_document(obs.tracer)) == []


def test_pool_counts_retries_and_failures():
    obs = Obs()
    tasks = [Task(name="bad", fn=_fail_once_then_square, args=(2,))]
    outcomes = run_tasks(tasks, jobs=1, retries=1, obs=obs)
    assert not outcomes[0].ok
    assert _counter_value(obs, "pool.tasks", result="error") == 1
    assert _counter_value(obs, "pool.retries") == 1
    assert obs.tracer.spans("pool.isolation")


def test_pool_results_identical_with_and_without_obs():
    tasks = [Task(name=f"t{i}", fn=_square, args=(i,)) for i in range(4)]
    plain = run_tasks(tasks, jobs=2)
    traced = run_tasks(tasks, jobs=2, obs=Obs())
    assert [o.value for o in plain] == [o.value for o in traced]
