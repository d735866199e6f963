"""Fig 5 (§V-D): at a fixed MEMCLK, STREAM bandwidth is non-decreasing
in the I/O-die clock.

Lower fclk P-states "reduce power consumption but also lower memory
bandwidth"; the Rome memory subsystem Velten et al. measure behaves the
same way (PAPERS.md).  No core count, core clock or DRAM grade may
invert that order between two fclk modes.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.memperf import DRAM_GRADES, FCLK_MODES
from repro.iodie.fclk import FclkController
from repro.memory.bandwidth import BandwidthModel
from repro.memory.dram import dram_by_name
from repro.topology import build_topology
from repro.units import PSTATE_FREQ_STEP_HZ, ghz

#: Grid clocks from 1.5 to 3.35 GHz in 25 MHz steps.
N_CLOCKS = round((ghz(3.35) - ghz(1.5)) / PSTATE_FREQ_STEP_HZ) + 1


@given(
    n_cores=st.integers(min_value=1, max_value=32),
    clock=st.integers(min_value=0, max_value=N_CLOCKS - 1),
    dram=st.sampled_from(DRAM_GRADES),
    modes=st.lists(
        st.sampled_from(FCLK_MODES), min_size=2, max_size=2, unique=True
    ),
)
@settings(max_examples=100, deadline=None)
def test_bandwidth_nondecreasing_in_fclk(n_cores, clock, dram, modes):
    memclk_hz = dram_by_name(dram).memclk_hz
    core_hz = ghz(1.5) + clock * PSTATE_FREQ_STEP_HZ
    model = BandwidthModel()
    ctrl = FclkController(build_topology("EPYC 7502", n_packages=1).packages[0].io_die)
    points = []
    for mode in modes:
        ctrl.apply(mode)
        bw = model.node_bandwidth_gbs(n_cores, core_hz, ctrl, memclk_hz=memclk_hz)
        points.append((ctrl.fclk_for(mode, memclk_hz), bw.bandwidth_gbs, mode))
    lo, hi = sorted(points, key=lambda point: point[0])
    if hi[0] > lo[0]:
        assert hi[1] >= lo[1], (lo, hi)
