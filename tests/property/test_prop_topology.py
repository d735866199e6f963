"""Topology invariants across the SKU space."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.errors import ConfigurationError
from repro.machine import Machine
from repro.topology import SKUS, build_topology
from repro.topology.components import SystemTopology
from repro.topology.enumeration import linux_cpu_numbering
from repro.workloads import FIRESTARTER, SPIN, STREAM_TRIAD

SKU_NAMES = st.sampled_from(sorted(SKUS))
PKGS = st.integers(min_value=1, max_value=2)


@given(sku=SKU_NAMES, n_packages=PKGS)
@settings(max_examples=20, deadline=None)
def test_cpu_numbering_is_bijection(sku, n_packages):
    topo = build_topology(sku, n_packages)
    ids = [t.cpu_id for t in topo.threads()]
    assert sorted(ids) == list(range(topo.n_threads))
    for cpu_id in ids:
        assert topo.thread(cpu_id).cpu_id == cpu_id


@given(sku=SKU_NAMES, n_packages=PKGS)
@settings(max_examples=20, deadline=None)
def test_thread_core_relationship(sku, n_packages):
    topo = build_topology(sku, n_packages)
    for core in topo.cores():
        assert core.threads[0].core is core
        assert core.threads[1].core is core
        assert core.threads[0].sibling is core.threads[1]


@given(
    n_packages=PKGS,
    n_ccds=st.integers(min_value=1, max_value=8),
    cores_per_ccx=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_counts_consistent_for_arbitrary_geometries(n_packages, n_ccds, cores_per_ccx):
    topo = SystemTopology(n_packages, n_ccds, cores_per_ccx)
    linux_cpu_numbering(topo)
    expected_cores = n_packages * n_ccds * 2 * cores_per_ccx
    assert topo.n_cores == expected_cores
    assert topo.n_threads == 2 * expected_cores
    assert len(list(topo.ccxs())) == n_packages * n_ccds * 2


@given(sku=SKU_NAMES)
@settings(max_examples=10, deadline=None)
def test_first_half_cpu_ids_are_primary_threads(sku):
    topo = build_topology(sku, 2)
    half = topo.n_threads // 2
    for cpu_id in range(half):
        assert topo.thread(cpu_id).smt_index == 0
    for cpu_id in range(half, topo.n_threads):
        assert topo.thread(cpu_id).smt_index == 1


# --- the core's activity fields follow every thread write -------------------

_N_CPUS = 16  # EPYC 7252, one package: 8 cores, 16 logical CPUs
# Both threads of cores 0 and 1 (cpuN and cpuN+8 are siblings) and one
# more CPU, so that writes often land on the same core.
_CPU = st.sampled_from([0, 1, 8, 9, 5])
_WORKLOAD = st.sampled_from([None, SPIN, FIRESTARTER, STREAM_TRIAD])
_STEP = st.one_of(
    st.tuples(st.just("run"), _WORKLOAD.filter(bool), st.lists(_CPU, max_size=4)),
    st.tuples(st.just("stop"), st.none() | st.lists(_CPU, max_size=4)),
    st.tuples(st.just("set_offline"), _CPU),
    st.tuples(st.just("set_online"), _CPU),
    st.tuples(st.just("workload"), _CPU, _WORKLOAD),
    st.tuples(st.just("online"), _CPU, st.booleans()),
)


def _apply(machine, step):
    kind, *args = step
    os_ = machine.os
    try:
        if kind == "run":
            os_.run(args[0], args[1])
        elif kind == "stop":
            os_.stop(args[0])
        elif kind == "set_offline":
            os_.hotplug.set_offline(args[0])
        elif kind == "set_online":
            os_.hotplug.set_online(args[0])
        elif kind == "workload":
            machine.topology.thread(args[0]).workload = args[1]
        else:
            machine.topology.thread(args[0]).online = args[1]
    except ConfigurationError:
        pass  # an offline CPU in a run, or cpu0 offlined: nothing changes


@given(program=st.lists(_STEP, max_size=25))
@settings(max_examples=100, deadline=None)
def test_core_activity_matches_its_threads(program):
    machine = Machine("EPYC 7252", n_packages=1, seed=0)
    assert machine.topology.n_threads == _N_CPUS
    try:
        for step in program:
            _apply(machine, step)
            for core in machine.topology.cores():
                active = [t for t in core.threads if t.online and t.workload is not None]
                assert core.active_thread_count == len(active), step
                assert core.active_workload is (active[0].workload if active else None), step
                assert core.has_active_thread is bool(active), step
    finally:
        machine.shutdown()
