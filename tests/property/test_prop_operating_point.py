"""The grouped walks equal a per-core reference.

The settle, the power model, the RAPL estimator, the EDC and PPT models
and the perf counters evaluate each per-core term once per distinct
operating point and reuse it for every core at that point.  This
property runs random OS and direct-write programs on a two-package
EPYC 7252 and, after every step, compares each grouped figure under
``float.hex`` with a test-local per-core copy of the walks it replaced.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.errors import ConfigurationError
from repro.machine import Machine
from repro.power.model import PowerBreakdown
from repro.units import PSTATE_FREQ_STEP_HZ
from repro.workloads import FIRESTARTER, SPIN, STREAM_TRIAD
from tests.property.test_prop_topology import _STEP, _apply

_SKU = "EPYC 7252"  # two packages: 16 cores, 32 logical CPUs
_FREQS = (1.5e9, 2.2e9, 3.1e9)
# Both threads of cores 0, 1 and 8 (cpuN and cpuN+16 are siblings) and
# one more CPU, so that cores run two threads and mixed workloads.
_SMT_CPU = st.sampled_from([0, 16, 1, 17, 8, 24, 5])
_WORKLOAD = st.sampled_from([None, SPIN, FIRESTARTER, STREAM_TRIAD])
_OP_STEP = st.one_of(
    _STEP,
    st.tuples(st.just("run"), _WORKLOAD.filter(bool), st.lists(_SMT_CPU, max_size=4)),
    st.tuples(st.just("workload"), _SMT_CPU, _WORKLOAD),
    st.tuples(st.just("set_frequency"), st.integers(0, 31), st.sampled_from(_FREQS)),
    st.tuples(st.just("set_all_frequencies"), st.sampled_from(_FREQS)),
)
_TEMP_C = st.floats(min_value=20.0, max_value=90.0)
# A grid clock between the 400 MHz floor and the SKU's nominal clock.
_GRID_HZ = st.integers(16, 124).map(lambda k: k * PSTATE_FREQ_STEP_HZ)


def _step(machine, step):
    kind = step[0]
    try:
        if kind == "set_frequency":
            machine.os.set_frequency(step[1], step[2])
        elif kind == "set_all_frequencies":
            machine.os.set_all_frequencies(step[1])
        else:
            _apply(machine, step)
    except ConfigurationError:
        pass


# --- the per-core reference: the walks as they were before grouping ---------


def _ref_pm_package_power_w(machine, pkg, pkg_temps_c):
    pm = machine.power_model
    cal = pm.cal
    wake, iodie_w = pm._wake_and_iodie_w(machine)
    n_pkg = len(machine.topology.packages)
    shared = (wake * 0.6 + iodie_w) / n_pkg
    core_w = 0.0
    for core in pkg.cores():
        smt = core.active_thread_count
        if core.deepest_common_cstate_is == "C1":
            core_w += cal.c1_per_core_w
        if smt == 0:
            continue
        scale = cal.v2f_scale(core.applied_freq_hz)
        scale *= machine.pkg_power_factors[pkg.index]
        core_w += cal.pause_core_nominal_w * scale
        if smt == 2:
            core_w += cal.pause_thread_nominal_w * scale
        wl = core.active_workload
        if wl is not None:
            core_w += wl.power_coeff(smt) * cal.dyn_w_per_v2ghz * scale
            if wl.toggle_width_bits:
                core_w += (
                    cal.toggle_w_per_v2ghz_256b
                    * wl.toggle_rate
                    * (wl.toggle_width_bits / 256.0)
                    * scale
                )
    leak = 0.0
    if pkg_temps_c is not None and pkg.index < len(pkg_temps_c):
        leak = max(
            0.0, cal.leakage_w_per_k_pkg * (pkg_temps_c[pkg.index] - cal.reference_temp_c)
        )
    return core_w + shared + leak + cal.package_sleep_w


def _ref_breakdown(machine, pkg_temps_c):
    pm = machine.power_model
    cal = pm.cal
    topo = machine.topology
    n_pkg = len(topo.packages)
    platform = cal.platform_base_w + cal.dram_idle_w + n_pkg * cal.package_sleep_w
    wake, iodie_w = pm._wake_and_iodie_w(machine)
    c1_cores = sum(1 for core in topo.cores() if core.deepest_common_cstate_is == "C1")
    c1_w = c1_cores * cal.c1_per_core_w
    factors = machine.pkg_power_factors
    active_w = dyn_w = toggle_w = 0.0
    any_active = False
    for core in topo.cores():
        smt = core.active_thread_count
        if smt == 0:
            continue
        any_active = True
        scale = cal.v2f_scale(core.applied_freq_hz)
        scale *= factors[core.package.index]
        active_w += cal.pause_core_nominal_w * scale
        if smt == 2:
            active_w += cal.pause_thread_nominal_w * scale
        wl = core.active_workload
        if wl is not None:
            dyn_w += wl.power_coeff(smt) * cal.dyn_w_per_v2ghz * scale
            if wl.toggle_width_bits:
                toggle_w += (
                    cal.toggle_w_per_v2ghz_256b
                    * wl.toggle_rate
                    * (wl.toggle_width_bits / 256.0)
                    * scale
                )
    if any_active:
        active_w = max(0.0, active_w + cal.active_first_core_adjust_w)
    dram_w = sum(
        cal.dram_w_per_gbs * _ref_dram_traffic_gbs(machine, pkg) for pkg in topo.packages
    )
    leak_w = 0.0
    for temp in pkg_temps_c:
        leak_w += max(0.0, cal.leakage_w_per_k_pkg * (temp - cal.reference_temp_c))
    return PowerBreakdown(
        platform, wake, c1_w, active_w, dyn_w, toggle_w, dram_w, iodie_w, leak_w
    )


def _ref_dram_traffic_gbs(machine, pkg):
    pm = machine.power_model
    demand = sum(pm.core_dram_demand_gbs(core) for core in pkg.cores())
    ceiling = 8 * 8.0 * 2.0 * (pkg.io_die.memclk_hz / 1e9) * pm.cal.dram_channel_efficiency
    return min(demand, ceiling)


def _ref_rapl_package_power_w(est, pkg, temp_c, dram_traffic_gbs):
    cores = sum(est.core_power_w(core) for core in pkg.cores())
    l3_active = sum(
        est.UNCORE_L3_W
        for core in pkg.cores()
        if core.active_thread_count
        for t in core.threads
        if t.is_active and t.workload.l3_util > 0.3
    )
    uncore = est.UNCORE_BASE_W + est.UNCORE_PER_GBS_W * dram_traffic_gbs + l3_active
    power = cores + uncore
    if temp_c is not None:
        power += max(0.0, est.PKG_LEAK_W_PER_K * (temp_c - est.cal.reference_temp_c))
    return power


def _ref_edc_demand_a(edc, pkg, freq_hz):
    total = 0.0
    for core in pkg.cores():
        smt = core.active_thread_count
        f = freq_hz if smt else core.applied_freq_hz
        total += edc.core_current_a(core.active_workload, smt, f)
    return total


def _ref_ppt_power_w(ppt, pkg, freq_hz, temp_c, dram_traffic_gbs):
    saved = [core.applied_freq_hz for core in pkg.cores()]
    try:
        for core in pkg.cores():
            if core.has_active_thread:
                core.applied_freq_hz = freq_hz
        return _ref_rapl_package_power_w(ppt.estimator, pkg, temp_c, dram_traffic_gbs)
    finally:
        for core, f in zip(pkg.cores(), saved):
            core.applied_freq_hz = f


def _counters(machine):
    return [
        (
            t.aperf_cycles,
            t.mperf_cycles,
            t.instructions,
            dict(t.cstate_time_ns),
            dict(t.cstate_usage),
        )
        for t in machine.topology.threads()
    ]


def _ref_counters_after(machine, duration_s):
    """Each thread's counters after one interval, advanced thread by thread."""
    after = []
    for thread, (aperf, mperf, instr, time_ns, usage) in zip(
        machine.topology.threads(), _counters(machine)
    ):
        time_ns[thread.effective_cstate] += duration_s * 1e9
        if thread.effective_cstate != "C0":
            usage[thread.effective_cstate] += max(1, int(duration_s * 4))
        if thread.online and thread.is_active:
            mean_hz = machine.observable_mean_hz(thread.core)
            smt = thread.core.active_thread_count
            aperf += mean_hz * duration_s
            mperf += machine.cal.nominal_freq_hz * duration_s
            instr += thread.workload.ipc(smt) / smt * mean_hz * duration_s
        elif thread.online and thread.effective_cstate == "C0":
            aperf += thread.core.applied_freq_hz * duration_s
            mperf += machine.cal.nominal_freq_hz * duration_s
        after.append((aperf, mperf, instr, time_ns, usage))
    return after


# --- comparisons under float.hex -------------------------------------------


def _hex(values):
    return [v.hex() for v in values]


def _counter_hex(counters):
    return [
        (a.hex(), m.hex(), i.hex(), {k: v.hex() for k, v in t.items()}, u)
        for a, m, i, t, u in counters
    ]


def _check_figures(machine, temps, grid_hz):
    pm = machine.power_model
    est = machine.rapl_estimator
    packages = machine.topology.packages
    for pkg, smu in zip(packages, machine.smus):
        temp_c = temps[pkg.index]
        traffic = pm.package_dram_traffic_gbs(pkg)
        assert traffic.hex() == _ref_dram_traffic_gbs(machine, pkg).hex()
        assert (
            pm.package_power_w(machine, pkg, temps).hex()
            == _ref_pm_package_power_w(machine, pkg, temps).hex()
        )
        assert (
            est.package_power_w(pkg, temp_c, dram_traffic_gbs=traffic).hex()
            == _ref_rapl_package_power_w(est, pkg, temp_c, traffic).hex()
        )
        assert (
            smu.edc.package_demand_a(pkg, grid_hz).hex()
            == _ref_edc_demand_a(smu.edc, pkg, grid_hz).hex()
        )
        assert (
            smu.ppt.modelled_package_power_w(pkg, grid_hz, temp_c, traffic).hex()
            == _ref_ppt_power_w(smu.ppt, pkg, grid_hz, temp_c, traffic).hex()
        )
    cores = list(machine.topology.cores())
    assert _hex(est.core_domain_w(packages, temps)) == _hex(
        est.core_power_w(core, temps[core.package.index]) for core in cores
    )
    assert _hex(est.core_domain_w(packages)) == _hex(
        est.core_power_w(core) for core in cores
    )
    got = pm.breakdown(machine, temps)
    want = _ref_breakdown(machine, temps)
    assert _hex(vars(got).values()) == _hex(vars(want).values())


def _check_settled_clocks(machine):
    resolver = machine.resolver
    for pkg in machine.topology.packages:
        boost = machine.boost
        ceiling = (
            boost.ceiling_hz(pkg, machine.thermal_state.temps_c[pkg.index]).ceiling_hz
            if boost.enabled
            else None
        )
        for ccx in pkg.ccxs():
            resolved = resolver.resolve_ccx(
                ccx,
                edc_cap_hz=machine.edc_cap_hz(pkg.index),
                boost_ceiling_hz=ceiling,
                nominal_hz=machine.sku.nominal_freq_hz,
            )
            for core, res in zip(ccx.cores, resolved):
                assert core.applied_freq_hz.hex() == res.target_hz.hex()
                assert machine.observable_mean_hz(core).hex() == res.observable_mean_hz.hex()
            assert ccx.l3_freq_hz.hex() == resolver.l3_target_hz(ccx).hex()


@given(
    program=st.lists(_OP_STEP, max_size=20),
    temps=st.tuples(_TEMP_C, _TEMP_C).map(list),
    grid_hz=_GRID_HZ,
    boost=st.booleans(),
)
# An active core on a stale C1 class beside one in C0 at the same point.
@example(
    program=[("run", SPIN, [0]), ("set_offline", 1), ("workload", 17, SPIN)],
    temps=[60.0, 70.0],
    grid_hz=2.0e9,
    boost=False,
)
# FIRESTARTER (L3 traffic) beside SPIN on one core, SPIN on both threads
# of the next: the cores share clock, SMT count and first workload.
@example(
    program=[("run", SPIN, [0, 1, 16, 17]), ("run", FIRESTARTER, [16])],
    temps=[60.0, 70.0],
    grid_hz=2.0e9,
    boost=False,
)
@settings(max_examples=60, deadline=None)
def test_grouped_walks_equal_per_core_reference(program, temps, grid_hz, boost):
    # Silicon variation gives the two packages different power factors.
    machine = Machine(
        _SKU, n_packages=2, seed=0, boost_enabled=boost, variation_sigma=0.05
    )
    assert machine.topology.n_threads == 32
    assert machine.pkg_power_factors[0] != machine.pkg_power_factors[1]
    machine.thermal_state.temps_c[:] = temps
    try:
        _check_figures(machine, temps, grid_hz)
        for step in program:
            _step(machine, step)
            _check_figures(machine, temps, grid_hz)
            # Direct writes do not settle; settle, then check the clocks.
            machine.reconfigured()
            _check_settled_clocks(machine)
            want = _ref_counters_after(machine, 1.0)
            machine.measure(1.0)
            assert _counter_hex(_counters(machine)) == _counter_hex(want)
    finally:
        machine.shutdown()
