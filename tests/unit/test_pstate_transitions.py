"""The SMU transition state machine (slots, delays, fast returns)."""

import pytest

from repro.power.calibration import CALIBRATION
from repro.pstate.transitions import TransitionEngine
from repro.sim.engine import Simulator
from repro.topology import build_topology
from repro.units import ghz, ms, us


@pytest.fixture
def setup():
    sim = Simulator()
    topo = build_topology("EPYC 7502", n_packages=1)
    core = next(topo.cores())
    core.applied_freq_hz = ghz(2.2)
    engine = TransitionEngine(sim, CALIBRATION)
    return sim, core, engine


class TestSlotGrid:
    def test_transition_waits_for_slot_boundary(self, setup):
        sim, core, engine = setup
        sim.run_until(us(300))  # mid-slot
        engine.request(core, ghz(1.5))
        # at the 1 ms boundary, the transition starts; 390 us later done
        sim.run_until(ms(1) + us(389))
        assert core.applied_freq_hz == ghz(2.2)
        sim.run_until(ms(1) + us(391))
        assert core.applied_freq_hz == ghz(1.5)

    def test_latency_includes_slot_wait(self, setup):
        sim, core, engine = setup
        sim.run_until(us(100))
        engine.request(core, ghz(1.5))
        sim.run_until(ms(5))
        rec = engine.record_of(core)
        assert rec.latency_ns == ms(1) - us(100) + us(390)

    def test_request_exactly_on_boundary_waits_full_slot(self, setup):
        sim, core, engine = setup
        sim.run_until(ms(1))
        engine.request(core, ghz(1.5))
        sim.run_until(ms(3))
        assert engine.record_of(core).latency_ns == ms(1) + us(390)

    def test_up_transition_faster_than_down(self, setup):
        sim, core, engine = setup
        engine.request(core, ghz(2.5))
        sim.run_until(ms(3))
        assert engine.record_of(core).completed_at_ns - engine.record_of(core).started_at_ns == us(360)

    def test_no_op_request_ignored(self, setup):
        sim, core, engine = setup
        engine.request(core, ghz(2.2))
        assert sim.pending_events == 0

    def test_settled_machine_has_no_events(self, setup):
        sim, core, engine = setup
        engine.request(core, ghz(1.5))
        sim.run_until(ms(10))
        assert sim.pending_events == 0


class TestFastReturn:
    def test_up_return_within_window_is_instant(self, setup):
        sim, core, engine = setup
        core.applied_freq_hz = ghz(2.5)
        engine.request(core, ghz(2.2))
        sim.run_until(ms(2))  # down complete, voltage settling
        assert core.applied_freq_hz == ghz(2.2)
        t0 = sim.now_ns
        engine.request(core, ghz(2.5))
        sim.run_until(t0 + us(2))
        assert core.applied_freq_hz == ghz(2.5)
        assert engine.record_of(core).fast_return

    def test_no_fast_return_after_settle_window(self, setup):
        sim, core, engine = setup
        core.applied_freq_hz = ghz(2.5)
        engine.request(core, ghz(2.2))
        sim.run_until(ms(2))
        sim.run_for(ms(6))  # beyond the 5 ms window
        engine.request(core, ghz(2.5))
        sim.run_for(us(5))
        assert core.applied_freq_hz == ghz(2.2)  # still waiting for slot
        sim.run_for(ms(2))
        assert core.applied_freq_hz == ghz(2.5)
        assert not engine.record_of(core).fast_return

    def test_no_fast_return_for_large_voltage_gap(self, setup):
        sim, core, engine = setup
        core.applied_freq_hz = ghz(2.5)
        engine.request(core, ghz(1.5))  # big gap
        sim.run_until(ms(2))
        engine.request(core, ghz(2.5))
        sim.run_for(us(5))
        assert core.applied_freq_hz == ghz(1.5)  # no instant return

    def test_down_after_fast_return_is_partial(self, setup):
        sim, core, engine = setup
        core.applied_freq_hz = ghz(2.5)
        engine.request(core, ghz(2.2))
        sim.run_until(ms(2))
        engine.request(core, ghz(2.5))  # fast return
        sim.run_for(us(10))
        engine.request(core, ghz(2.2))  # down while voltage recovering
        sim.run_until(ms(8))
        rec = engine.record_of(core)
        duration = rec.completed_at_ns - rec.started_at_ns
        assert duration < us(390)
        assert duration >= CALIBRATION.partial_transition_min_ns

    def test_fast_return_only_to_previous_frequency(self, setup):
        sim, core, engine = setup
        core.applied_freq_hz = ghz(2.5)
        engine.request(core, ghz(2.2))
        sim.run_until(ms(2))
        engine.request(core, ghz(2.5) - 25e6 * 2)  # 2.45, not the previous 2.5
        sim.run_for(us(5))
        assert core.applied_freq_hz == ghz(2.2)


class TestBookkeeping:
    def test_record_tracks_from_to(self, setup):
        sim, core, engine = setup
        engine.request(core, ghz(1.5))
        sim.run_until(ms(3))
        rec = engine.record_of(core)
        assert rec.from_hz == ghz(2.2)
        assert rec.to_hz == ghz(1.5)

    def test_latency_negative_before_any_transition(self, setup):
        _, core, engine = setup
        assert engine.record_of(core).latency_ns == -1

    def test_in_flight_flag(self, setup):
        sim, core, engine = setup
        engine.request(core, ghz(1.5))
        sim.run_until(ms(1) + us(10))
        assert engine.in_flight(core)
        sim.run_until(ms(2))
        assert not engine.in_flight(core)

    def test_independent_cores_transition_in_parallel(self, setup):
        sim, core, engine = setup
        topo = core.ccx.ccd.package.system
        other = topo.core_by_global_index(1)
        other.applied_freq_hz = ghz(2.2)
        engine.request(core, ghz(1.5))
        engine.request(other, ghz(2.5))
        sim.run_until(ms(3))
        assert core.applied_freq_hz == ghz(1.5)
        assert other.applied_freq_hz == ghz(2.5)
