"""Properties of the EDC loop and machine-level invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.machine import Machine
from repro.smu.edc import EdcManager
from repro.units import ghz
from repro.workloads import (
    FIRESTARTER,
    PAUSE_LOOP,
    SPIN,
    STREAM_TRIAD,
    instruction_block,
)


@given(
    limit=st.floats(min_value=40.0, max_value=400.0),
    n_cores=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=25, deadline=None)
def test_edc_cap_monotone_in_limit_and_load(limit, n_cores):
    m = Machine("EPYC 7502", n_packages=1, seed=0)
    m.os.set_all_frequencies(ghz(2.5))
    m.os.run(FIRESTARTER, m.os.first_thread_cpus(n_cores))
    pkg = m.topology.packages[0]

    tight = EdcManager(limit_a=limit)
    loose = EdcManager(limit_a=limit * 1.5)
    cap_tight = tight.assess(pkg, ghz(2.5)).cap_hz
    cap_loose = loose.assess(pkg, ghz(2.5)).cap_hz
    m.shutdown()
    if cap_tight is None:
        assert cap_loose is None
    elif cap_loose is not None:
        assert cap_loose >= cap_tight


@given(
    f_idx=st.integers(min_value=0, max_value=2),
    weight=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=20, deadline=None)
def test_resolved_demand_never_exceeds_limit(f_idx, weight):
    m = Machine("EPYC 7502", seed=0)
    freq = [ghz(1.5), ghz(2.2), ghz(2.5)][f_idx]
    m.os.set_all_frequencies(freq)
    m.os.run(instruction_block("vxorps", weight), m.os.all_cpus())
    m.os.run(FIRESTARTER, m.os.cpus_of_ccx(0, smt=True))
    for pkg, smu in zip(m.topology.packages, m.smus):
        demand = smu.edc.package_demand_a(
            pkg, max(c.applied_freq_hz for c in pkg.cores())
        )
        assert demand <= smu.edc.limit_a + 1e-6
    m.shutdown()


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=10, deadline=None)
def test_measurement_deterministic_per_seed(seed):
    def run():
        m = Machine("EPYC 7502", seed=seed)
        m.os.run(SPIN, m.os.first_thread_cpus(4))
        rec = m.measure(10.0)
        out = (rec.ac_mean_w, tuple(rec.rapl_pkg_w))
        m.shutdown()
        return out

    assert run() == run()


@given(
    n_active=st.integers(min_value=0, max_value=12),
    temp=st.floats(min_value=20.0, max_value=90.0),
)
@settings(max_examples=25, deadline=None)
def test_breakdown_components_nonnegative(n_active, temp):
    m = Machine("EPYC 7502", seed=1)
    cpus = m.os.first_thread_cpus(n_active)
    if cpus:
        m.os.run(SPIN, cpus)
    bd = m.power_model.breakdown(m, [temp, temp])
    m.shutdown()
    for name in (
        "platform_base_w", "system_wake_w", "c1_cores_w", "workload_dynamic_w",
        "toggle_w", "dram_active_w", "leakage_w",
    ):
        assert getattr(bd, name) >= 0.0
    assert bd.total_w > 0


def _settled_state(workload, busy, requests):
    """Every observable the settle decides, after the requests in order."""
    m = Machine("EPYC 7502", seed=1)
    if busy:
        m.os.run(workload, sorted(busy))
    for cpu, freq in requests:
        m.os.set_frequency(cpu, freq)
    freqs = [core.applied_freq_hz for core in m.topology.cores()]
    caps = [m.edc_cap_hz(pkg.index) for pkg in m.topology.packages]
    rec = m.measure(10.0)
    m.shutdown()
    return freqs, caps, rec.ac_mean_w, rec.rapl_pkg_w, rec.rapl_core_w


@given(
    workload=st.sampled_from([FIRESTARTER, SPIN, PAUSE_LOOP]),
    busy=st.sets(st.integers(min_value=0, max_value=127), max_size=64),
    requests=st.dictionaries(
        st.integers(min_value=0, max_value=127),
        st.sampled_from([ghz(1.5), ghz(2.2), ghz(2.5)]),
        min_size=1,
        max_size=40,
    ),
    data=st.data(),
)
@settings(max_examples=15, deadline=None)
def test_settle_is_independent_of_request_order(workload, busy, requests, data):
    # One request per CPU: the settled machine may depend on which
    # requests were made, never on the order they arrived in.
    in_order = sorted(requests.items())
    shuffled = data.draw(st.permutations(in_order))
    assert _settled_state(workload, busy, in_order) == _settled_state(
        workload, busy, shuffled
    )


# ---------------------------------------------------------------------------
# Batched settles against the per-request reference
# ---------------------------------------------------------------------------

_FREQS = st.sampled_from([ghz(1.5), ghz(2.2), ghz(2.5)])
_CPU_SETS = st.one_of(
    st.sets(st.integers(min_value=0, max_value=127), max_size=16),
    # Contiguous blocks fill whole packages, where EDC and PPT bind.
    st.tuples(
        st.integers(min_value=0, max_value=127),
        st.integers(min_value=1, max_value=128),
    ).map(lambda span: set(range(span[0], min(128, span[0] + span[1])))),
)
_OPS = st.one_of(
    st.tuples(
        st.just("run"),
        st.sampled_from([FIRESTARTER, SPIN, PAUSE_LOOP, STREAM_TRIAD]),
        _CPU_SETS,
    ),
    st.tuples(st.just("stop"), st.one_of(st.none(), _CPU_SETS)),
    st.tuples(st.just("all"), _FREQS),
    st.tuples(st.just("freq"), st.integers(min_value=0, max_value=127), _FREQS),
    st.tuples(
        st.just("online"),
        st.integers(min_value=1, max_value=127),
        st.sampled_from(["0", "1"]),
    ),
)
_STEPS = st.one_of(
    st.tuples(st.just("op"), _OPS),
    st.tuples(st.just("group"), st.lists(_OPS, min_size=1, max_size=6)),
    st.tuples(st.just("measure")),
)


def _apply(m, op, *, reference):
    kind = op[0]
    if kind == "run":
        m.os.run(op[1], sorted(c for c in op[2] if m.topology.thread(c).online))
    elif kind == "stop":
        m.os.stop(None if op[1] is None else sorted(op[1]))
    elif kind == "all":
        if reference:
            for cpu in sorted(m.topology.cpus):
                m.os.set_frequency(cpu, op[1])
        else:
            m.os.set_all_frequencies(op[1])
    elif kind == "freq":
        m.os.set_frequency(op[1], op[2])
    else:
        m.os.sysfs.write(f"/sys/devices/system/cpu/cpu{op[1]}/online", op[2])


def _run_step(m, step, *, reference):
    """Apply one program step; return the measure fields if it measured."""
    if step[0] == "measure":
        rec = m.measure(10.0)
        return rec.ac_mean_w, rec.rapl_pkg_w, rec.rapl_core_w
    if step[0] == "op":
        _apply(m, step[1], reference=reference)
    elif reference:
        for op in step[1]:
            _apply(m, op, reference=True)
    else:
        with m.batch():
            for op in step[1]:
                _apply(m, op, reference=False)
    return None


def _settle_state(m):
    """Every quantity a settle decides."""
    topo = m.topology
    return (
        [(c.applied_freq_hz, m.observable_mean_hz(c)) for c in topo.cores()],
        [ccx.l3_freq_hz for ccx in topo.ccxs()],
        [m.edc_cap_hz(p.index) for p in topo.packages],
        m.cstates.system_in_deep_sleep(),
        [t.effective_cstate for t in topo.threads()],
    )


@given(
    boost=st.booleans(),
    limit_w=st.sampled_from([None, 70.0, 110.0]),
    program=st.lists(_STEPS, min_size=1, max_size=6),
)
@settings(max_examples=25, deadline=None)
def test_batched_settle_matches_per_request_reference(boost, limit_w, program):
    # The reference settles after every request; the batched machine
    # once per group.  The EDC loop reads idle cores' clocks as the
    # previous settle left them, so agreement after every step is a
    # property to check, not a given.
    fast = Machine("EPYC 7502", seed=3, boost_enabled=boost)
    ref = Machine("EPYC 7502", seed=3, boost_enabled=boost)
    try:
        if limit_w is not None:
            fast.set_power_limit_w(limit_w)
            ref.set_power_limit_w(limit_w)
        for step in program:
            got = _run_step(fast, step, reference=False)
            want = _run_step(ref, step, reference=True)
            assert got == want
            assert _settle_state(fast) == _settle_state(ref)
    finally:
        fast.shutdown()
        ref.shutdown()


# ---------------------------------------------------------------------------
# Machine-level bounds of the settle (§V-A, §V-E)
# ---------------------------------------------------------------------------


@given(program=st.lists(_OPS, min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_applied_clock_never_exceeds_the_request_without_boost(program):
    m = Machine("EPYC 7502", seed=3)
    try:
        for op in program:
            _apply(m, op, reference=False)
            for core in m.topology.cores():
                assert core.applied_freq_hz <= m.resolver.core_request_hz(core), op
    finally:
        m.shutdown()


@pytest.mark.parametrize("smt", [True, False])
@pytest.mark.parametrize(
    "freq, cap_smt, cap_first_threads",
    [
        (ghz(2.5), ghz(2.0), ghz(2.1)),
        (ghz(2.2), ghz(2.0), ghz(2.1)),
        (ghz(1.5), None, None),
    ],
)
def test_firestarter_on_every_cpu_binds_the_edc_cap(freq, cap_smt, cap_first_threads, smt):
    # §V-E: 2.0 GHz with both threads of every core busy, 2.1 GHz with one.
    m = Machine("EPYC 7502", seed=1)
    m.os.set_all_frequencies(freq)
    m.os.run(FIRESTARTER, m.os.all_cpus() if smt else m.os.first_thread_cpus())
    want = cap_smt if smt else cap_first_threads
    for pkg, smu in zip(m.topology.packages, m.smus):
        assert smu.edc_cap_hz == want
        assert m.edc_cap_hz(pkg.index) == want
        for core in pkg.cores():
            assert core.applied_freq_hz == (freq if want is None else want)
    m.shutdown()


@given(
    cpus=st.sets(st.integers(min_value=0, max_value=127), min_size=1),
    freq=_FREQS,
    boost=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_pause_loop_never_binds_the_edc_cap(cpus, freq, boost):
    m = Machine("EPYC 7502", seed=1, boost_enabled=boost)
    m.os.set_all_frequencies(freq)
    m.os.run(PAUSE_LOOP, sorted(cpus))
    assert [smu.edc_cap_hz for smu in m.smus] == [None, None]
    assert [m.edc_cap_hz(pkg.index) for pkg in m.topology.packages] == [None, None]
    m.shutdown()
