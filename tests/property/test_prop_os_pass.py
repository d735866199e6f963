"""One pass per OS call equals the per-thread path it replaced.

``Kernel.run``/``stop`` bind every listed thread and then recount each
touched core once, ``Kernel.set_all_frequencies`` checks every CPU before
it writes any request, ``CStateController.refresh`` decides the state of
the quiet idle CPUs once per call, and ``PerfStat.sample`` draws its
jitter in one call.  The properties run random programs on two identical
machines, one through the OS layer and one through a test-local copy of
the per-thread path: one core recount per thread write, one
``set_frequency`` per CPU, one governor question per idle thread, one
jitter draw per sample.  After every step both machines must agree on
each thread's request and C-states, each core's activity fields and the
settle state; in event mode the transition engines must have received
the same requests in the same order.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import ConfigurationError
from repro.machine import Machine
from repro.workloads import FIRESTARTER, SPIN, STREAM_TRIAD

_SKUS = ("EPYC 7252", "EPYC 7502")
_FREQ = st.integers(0, 2)  # index into the SKU's available frequencies
_RATES = (100.0, 5e3, 2e4, 1e6)  # below and above the C2 break-even rate


def _slot_cpus(machine):
    """The CPUs a program can name: both threads of cores 0 and 1, the
    last core of package 0, and one thread of package 1."""
    half = machine.topology.n_threads // 2
    pkg0_last = machine.topology.n_cores // 2 - 1
    return [0, half, 1, half + 1, pkg0_last, pkg0_last + half, pkg0_last + 1]


_SLOT = st.integers(0, 6)
_WORKLOAD = st.sampled_from([None, SPIN, FIRESTARTER, STREAM_TRIAD])
_STEP = st.one_of(
    st.tuples(st.just("run"), _WORKLOAD.filter(bool), st.lists(_SLOT, max_size=4)),
    st.tuples(st.just("run_all"), _WORKLOAD.filter(bool)),
    st.tuples(st.just("stop"), st.none() | st.lists(_SLOT, max_size=4)),
    st.tuples(st.just("set_all_frequencies"), _FREQ),
    st.tuples(st.just("set_frequency"), _SLOT, _FREQ),
    st.tuples(st.just("set_offline"), _SLOT),
    st.tuples(st.just("set_online"), _SLOT),
    st.tuples(st.just("register"), st.integers(0, 2), _SLOT, st.sampled_from(_RATES)),
    st.tuples(st.just("unregister"), st.integers(0, 2)),
    st.tuples(st.just("disable"), _SLOT, st.sampled_from(["C1", "C2"])),
    st.tuples(st.just("enable"), _SLOT, st.sampled_from(["C1", "C2"])),
    st.tuples(st.just("workload"), _SLOT, _WORKLOAD),
)


# --- the per-thread path, as it was before the one-pass calls ---------------


def _ref_refresh(ctl):
    for thread in ctl.topo.threads():
        if not thread.online:
            state = "C1" if ctl.offline_parks_in_c1 else "C2"
        elif thread.workload is not None:
            state = "C0"
        else:
            state = ctl.deepest_enabled(thread.cpu_id)
            if ctl.governor is not None:
                state = ctl.governor.select(thread.cpu_id, state)
        thread.requested_cstate = state
        thread.effective_cstate = state


def _ref_run(machine, workload, cpu_ids):
    threads = [machine.topology.thread(cpu_id) for cpu_id in cpu_ids]
    for thread in threads:
        if not thread.online:
            raise ConfigurationError(f"cpu{thread.cpu_id} is offline")
    for thread in threads:
        thread.workload = workload
    machine.cstates.refresh()
    machine.changed()


def _ref_stop(machine, cpu_ids):
    topo = machine.topology
    ids = sorted(topo.cpus) if cpu_ids is None else cpu_ids
    threads = [topo.thread(cpu_id) for cpu_id in ids]
    for thread in threads:
        thread.workload = None
    machine.cstates.refresh()
    machine.changed()


def _ref_set_all_frequencies(machine, freq_hz):
    with machine.batch():
        for cpu_id in sorted(machine.topology.cpus):
            machine.os.set_frequency(cpu_id, freq_hz)


# --- driving both machines ----------------------------------------------------


def _build(sku, event_mode, *, reference):
    machine = Machine(sku, n_packages=2, seed=3)
    if reference:
        machine.cstates.refresh = lambda: _ref_refresh(machine.cstates)
    settle = machine.reconfigured
    machine.settles = 0

    def counted_settle():
        machine.settles += 1
        settle()

    machine.reconfigured = counted_settle
    machine.requests = []
    for smu in machine.smus:
        request = smu.transitions.request

        def recorded(core, target_hz, _request=request):
            machine.requests.append((core.global_index, target_hz.hex()))
            return _request(core, target_hz)

        smu.transitions.request = recorded
    if event_mode:
        machine.enable_event_mode()
    return machine


def _apply(machine, step, *, reference):
    cpus = _slot_cpus(machine)
    kind, *args = step
    kernel = machine.os
    if kind in ("run", "run_all"):
        workload = args[0]
        if kind == "run":
            ids = [cpus[s] for s in args[1]]
        else:
            ids = sorted(machine.topology.cpus)
        if reference:
            _ref_run(machine, workload, ids)
        else:
            kernel.run(workload, ids)
    elif kind == "stop":
        ids = None if args[0] is None else [cpus[s] for s in args[0]]
        if reference:
            _ref_stop(machine, ids)
        else:
            kernel.stop(ids)
    elif kind == "set_all_frequencies":
        freq_hz = machine.sku.available_freqs_hz[args[0]]
        if reference:
            _ref_set_all_frequencies(machine, freq_hz)
        else:
            kernel.set_all_frequencies(freq_hz)
    elif kind == "set_frequency":
        kernel.set_frequency(cpus[args[0]], machine.sku.available_freqs_hz[args[1]])
    elif kind == "set_offline":
        kernel.hotplug.set_offline(cpus[args[0]])
    elif kind == "set_online":
        kernel.hotplug.set_online(cpus[args[0]])
    elif kind == "register":
        kernel.register_interrupt(f"irq{args[0]}", cpus[args[1]], args[2])
    elif kind == "unregister":
        kernel.unregister_interrupt(f"irq{args[0]}")
    elif kind in ("disable", "enable"):
        value = "1" if kind == "disable" else "0"
        index = {"C1": 1, "C2": 2}[args[1]]
        path = f"/sys/devices/system/cpu/cpu{cpus[args[0]]}/cpuidle/state{index}/disable"
        kernel.sysfs.write(path, value)
    else:  # "workload": a direct write, which refreshes no C-state
        machine.topology.thread(cpus[args[0]]).workload = args[1]


def _outcome(machine, step, *, reference):
    try:
        _apply(machine, step, reference=reference)
    except ConfigurationError as exc:
        return type(exc).__name__, str(exc)
    return None


def _name(workload):
    return None if workload is None else workload.name


def _settle_state(machine):
    return (
        machine.settles,
        machine._settle_pending,
        [machine.edc_cap_hz(pkg.index) for pkg in machine.topology.packages],
        [(smu.edc_cap_hz, smu.ppt_cap_hz) for smu in machine.smus],
        [
            (
                core.applied_freq_hz.hex(),
                machine.observable_mean_hz(core).hex(),
            )
            for core in machine.topology.cores()
        ],
        [ccx.l3_freq_hz.hex() for ccx in machine.topology.ccxs()],
    )


def _state(machine):
    threads = [
        (
            t.requested_freq_hz.hex(),
            t.requested_cstate,
            t.effective_cstate,
            t.online,
            _name(t.workload),
        )
        for t in machine.topology.threads()
    ]
    cores = [
        (core.active_thread_count, _name(core.active_workload))
        for core in machine.topology.cores()
    ]
    return threads, cores, _settle_state(machine), list(machine.requests)


@pytest.mark.parametrize("event_mode", [False, True], ids=["steady", "event"])
@pytest.mark.parametrize("sku", _SKUS)
@given(program=st.lists(_STEP, max_size=12))
# A disabled C2 on an idle CPU: the quiet answer must not reach it.
@example(program=[("disable", 2, "C2"), ("run", SPIN, [0])])
# A 20 kHz wake-up source holds its CPU in C1 while every other idle CPU
# enters C2.
@example(program=[("register", 0, 3, 2e4), ("stop", None)])
# A sibling above the new clock: in event mode each request is notified
# right after its write, so core 0 first asks for its sibling's nominal
# clock.
@example(program=[("set_frequency", 1, 2), ("set_all_frequencies", 0)])
@settings(max_examples=50, deadline=None)
def test_one_pass_equals_per_thread_path(sku, event_mode, program):
    machine = _build(sku, event_mode, reference=False)
    ref = _build(sku, event_mode, reference=True)
    try:
        assert _state(machine) == _state(ref)
        for step in program:
            assert _outcome(machine, step, reference=False) == _outcome(
                ref, step, reference=True
            )
            assert _state(machine) == _state(ref)
    finally:
        machine.shutdown()
        ref.shutdown()


# --- PerfStat.sample against one draw per sample ------------------------------


def _ref_sample(perf, cpu_ids, interval_s, count, jitter_rel):
    rows = []
    for _ in range(count):
        row = []
        for cpu_id in cpu_ids:
            thread = perf.machine.topology.thread(cpu_id)
            cyc_rate, inst_rate = perf._thread_rates(thread)
            noise = 1.0 + perf._rng.normal(0.0, jitter_rel)
            row.append(
                (
                    cpu_id,
                    interval_s,
                    max(0.0, cyc_rate * interval_s * noise).hex(),
                    max(0.0, inst_rate * interval_s * noise).hex(),
                )
            )
        rows.append(row)
    return rows


@pytest.mark.parametrize("sku", _SKUS)
@given(
    program=st.lists(_STEP, max_size=6),
    slots=st.lists(_SLOT, max_size=6),
    count=st.integers(0, 5),
    interval_s=st.sampled_from([0.25, 1.0]),
    jitter_rel=st.sampled_from([0.0, 5e-4, 0.2]),
)
@settings(max_examples=25, deadline=None)
def test_perf_sample_equals_one_draw_per_sample(sku, program, slots, count, interval_s, jitter_rel):
    machine = _build(sku, False, reference=False)
    ref = _build(sku, False, reference=False)
    try:
        for step in program:
            _outcome(machine, step, reference=False)
            _outcome(ref, step, reference=False)
        cpus = _slot_cpus(machine)
        cpu_ids = [cpus[s] for s in slots]
        got = [
            [(s.cpu_id, s.interval_s, s.cycles.hex(), s.instructions.hex()) for s in row]
            for row in machine.os.perf.sample(cpu_ids, interval_s, count, jitter_rel=jitter_rel)
        ]
        assert got == _ref_sample(ref.os.perf, cpu_ids, interval_s, count, jitter_rel)
        # Both streams drew the same number of values.
        assert machine.os.perf._rng.normal() == ref.os.perf._rng.normal()
    finally:
        machine.shutdown()
        ref.shutdown()
