"""Properties of the frequency resolver."""

from dataclasses import dataclass

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.pstate.resolver import FrequencyResolver
from repro.topology import SKUS, build_topology, sku_by_name
from repro.units import ghz, snap_to_pstate_grid
from repro.workloads import FIRESTARTER, SPIN, STREAM_TRIAD

FREQS = st.sampled_from([ghz(1.5), ghz(2.2), ghz(2.5)])


def _fresh_ccx(requests, active_mask):
    topo = build_topology("EPYC 7502", n_packages=1)
    ccx = next(topo.ccxs())
    for core, (f0, f1), active in zip(ccx.cores, requests, active_mask):
        core.threads[0].requested_freq_hz = f0
        core.threads[1].requested_freq_hz = f1
        if active:
            core.threads[0].workload = SPIN
            core.threads[0].effective_cstate = "C0"
    return ccx


@given(
    requests=st.lists(st.tuples(FREQS, FREQS), min_size=4, max_size=4),
    active=st.lists(st.booleans(), min_size=4, max_size=4),
)
@settings(max_examples=100)
def test_core_request_is_max_of_thread_votes(requests, active):
    ccx = _fresh_ccx(requests, active)
    resolver = FrequencyResolver()
    for core, (f0, f1) in zip(ccx.cores, requests):
        assert resolver.core_request_hz(core) == max(f0, f1)


@given(
    requests=st.lists(st.tuples(FREQS, FREQS), min_size=4, max_size=4),
    active=st.lists(st.booleans(), min_size=4, max_size=4),
)
@settings(max_examples=100)
def test_observable_mean_never_exceeds_target(requests, active):
    ccx = _fresh_ccx(requests, active)
    for res in FrequencyResolver().resolve_ccx(ccx):
        assert res.observable_mean_hz <= res.target_hz + 1e-6


@given(
    requests=st.lists(st.tuples(FREQS, FREQS), min_size=4, max_size=4),
)
@settings(max_examples=100)
def test_l3_clock_at_least_any_running_core_target(requests):
    ccx = _fresh_ccx(requests, [True] * 4)
    resolver = FrequencyResolver()
    l3 = resolver.l3_target_hz(ccx)
    for core in ccx.cores:
        assert l3 >= resolver.core_request_hz(core) - 1e-6


@given(
    requests=st.lists(st.tuples(FREQS, FREQS), min_size=4, max_size=4),
    active=st.lists(st.booleans(), min_size=4, max_size=4),
    bump_core=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=100)
def test_raising_a_sibling_vote_never_lowers_core_target(requests, active, bump_core):
    resolver = FrequencyResolver()
    ccx = _fresh_ccx(requests, active)
    before = resolver.resolve_ccx(ccx)[bump_core].target_hz
    bumped = list(requests)
    f0, _ = bumped[bump_core]
    bumped[bump_core] = (f0, ghz(2.5))
    ccx2 = _fresh_ccx(bumped, active)
    after = resolver.resolve_ccx(ccx2)[bump_core].target_hz
    assert after >= before


@given(
    requests=st.lists(st.tuples(FREQS, FREQS), min_size=4, max_size=4),
    cap=FREQS,
)
@settings(max_examples=100)
def test_edc_cap_respected_for_active_cores(requests, cap):
    ccx = _fresh_ccx(requests, [True] * 4)
    for res in FrequencyResolver().resolve_ccx(ccx, edc_cap_hz=cap):
        assert res.target_hz <= cap + 1e-6


# --- the one-pass resolver against the neighbour-walk reference ------------
#
# ``_Reference*`` is the resolver as it was before each CCX was resolved in
# one pass: every core re-derives each neighbour's vote and clock gating,
# activity is read off the threads, and results are frozen dataclasses.
# The one-pass resolver must agree with it bit for bit.


@dataclass(frozen=True)
class _ReferenceRecord:
    core_index: int
    target_hz: float
    observable_mean_hz: float
    limited_by_edc: bool = False


def _reference_has_active_thread(core):
    t0, t1 = core.threads
    return (t0.online and t0.workload is not None) or (
        t1.online and t1.workload is not None
    )


def _reference_core_request_hz(resolver, core):
    votes = []
    for thread in core.threads:
        if resolver.offline_threads_vote:
            votes.append(thread.requested_freq_hz)
        else:
            if thread.online and thread.workload is not None:
                votes.append(thread.requested_freq_hz)
    if not votes:
        votes = [min(t.requested_freq_hz for t in core.threads)]
    return max(votes)


def _reference_clock_runs(core):
    return any(
        t.online and t.effective_cstate == "C0" for t in core.threads
    ) or _reference_has_active_thread(core)


def _reference_resolve_ccx(resolver, ccx, *, edc_cap_hz, boost_ceiling_hz, nominal_hz):
    requests = {
        core.global_index: _reference_core_request_hz(resolver, core) for core in ccx.cores
    }
    if boost_ceiling_hz is not None and nominal_hz is not None:
        for core in ccx.cores:
            req = requests[core.global_index]
            if _reference_has_active_thread(core) and req >= nominal_hz - 1e3:
                requests[core.global_index] = max(req, boost_ceiling_hz)
    resolved = []
    for core in ccx.cores:
        req = requests[core.global_index]
        limited = False
        if edc_cap_hz is not None and _reference_has_active_thread(core) and req > edc_cap_hz:
            req = edc_cap_hz
            limited = True
        target = snap_to_pstate_grid(req)
        others = [
            requests[c.global_index]
            for c in ccx.cores
            if c is not core and _reference_clock_runs(c)
        ]
        max_other = max(others, default=0.0)
        if edc_cap_hz is not None:
            max_other = min(max_other, edc_cap_hz)
        mean = target - resolver._coupling_penalty_hz(target, max_other)
        resolved.append(_ReferenceRecord(core.global_index, target, mean, limited))
    return resolved


def _reference_l3_target_hz(resolver, ccx):
    running = [
        _reference_core_request_hz(resolver, core)
        for core in ccx.cores
        if _reference_clock_runs(core)
    ]
    if not running:
        return 400e6
    return snap_to_pstate_grid(max(running))


_WORKLOADS = st.sampled_from([None, SPIN, FIRESTARTER, STREAM_TRIAD])
_CSTATES = st.sampled_from(["C0", "C1", "C2"])
_GRID_HZ = 25e6


@st.composite
def _ccx_states(draw):
    """A CCX of a random SKU with random per-thread votes and state."""
    sku = sku_by_name(draw(st.sampled_from(sorted(SKUS))))
    topo = build_topology(sku, n_packages=1)
    ccxs = list(topo.ccxs())
    ccx = ccxs[draw(st.integers(0, len(ccxs) - 1))]
    for core in ccx.cores:
        for thread in core.threads:
            thread.requested_freq_hz = draw(st.sampled_from(sku.available_freqs_hz))
            thread.workload = draw(_WORKLOADS)
            thread.online = draw(st.booleans())
            thread.effective_cstate = draw(_CSTATES)
    edc_cap_hz = draw(st.none() | st.integers(16, 140).map(lambda k: k * _GRID_HZ))
    boost_ceiling_hz = draw(
        st.none()
        | st.integers(1, 48).map(lambda k: sku.nominal_freq_hz + k * _GRID_HZ)
    )
    return sku, ccx, edc_cap_hz, boost_ceiling_hz


@given(state=_ccx_states(), offline_threads_vote=st.booleans())
@settings(max_examples=300, deadline=None)
def test_one_pass_resolution_equals_neighbour_walk(state, offline_threads_vote):
    sku, ccx, edc_cap_hz, boost_ceiling_hz = state
    resolver = FrequencyResolver(offline_threads_vote=offline_threads_vote)
    kwargs = dict(
        edc_cap_hz=edc_cap_hz,
        boost_ceiling_hz=boost_ceiling_hz,
        nominal_hz=sku.nominal_freq_hz,
    )
    got = resolver.resolve_ccx(ccx, **kwargs)
    want = _reference_resolve_ccx(resolver, ccx, **kwargs)
    assert len(got) == len(want) == len(ccx.cores)
    for g, w in zip(got, want):
        assert g.core_index == w.core_index
        assert g.target_hz.hex() == w.target_hz.hex()
        assert g.observable_mean_hz.hex() == w.observable_mean_hz.hex()
        assert g.limited_by_edc is w.limited_by_edc
    for core in ccx.cores:
        got_req = resolver.core_request_hz(core)
        assert got_req.hex() == _reference_core_request_hz(resolver, core).hex()
    got_l3 = resolver.l3_target_hz(ccx)
    assert got_l3.hex() == _reference_l3_target_hz(resolver, ccx).hex()
