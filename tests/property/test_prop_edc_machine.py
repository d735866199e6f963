"""Properties of the EDC loop and machine-level invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.machine import Machine
from repro.smu.edc import EdcManager
from repro.units import ghz
from repro.workloads import FIRESTARTER, PAUSE_LOOP, SPIN, instruction_block


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
