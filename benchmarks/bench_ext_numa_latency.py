"""Extension study: NPS interleaving modes and the latency curve.

The paper's future work names the memory architecture; these two sweeps
extend the Fig 5 machinery to the BIOS NUMA-per-socket options and to
the classic working-set latency curve.
"""

from repro.core.analysis.tables import format_table
from repro.core.latency_curve import LatencyCurveExperiment
from repro.iodie.fclk import FclkController
from repro.memory.numa_perf import NpsPerformanceModel
from repro.topology import NumaConfig, build_topology

from _common import bench_config, publish


def test_ext_nps_modes():
    def run():
        topo = build_topology("EPYC 7502", n_packages=1)
        fc = FclkController(topo.packages[0].io_die)
        model = NpsPerformanceModel()
        return [
            model.operating_point(nps, 16, fc)
            for nps in (NumaConfig.NPS4, NumaConfig.NPS2, NumaConfig.NPS1)
        ]

    points = run()
    rows = [
        (p.nps.name, p.bandwidth_gbs, p.latency_ns, p.limiter) for p in points
    ]
    publish(
        "ext_nps_modes",
        "== Extension: NUMA-per-socket modes (16 cores on one node) ==\n"
        + format_table(
            ["mode", "node bandwidth GB/s", "local latency ns", "limiter"],
            rows,
            float_fmt="{:.1f}",
        )
        + "\n\nNPS1 trades the paper's NPS4 latency (92 ns) for socket-wide "
        "bandwidth — the interleave choice behind §IV's BIOS setting.",
    )
    bw = [p.bandwidth_gbs for p in points]
    lat = [p.latency_ns for p in points]
    assert bw == sorted(bw)
    assert lat == sorted(lat)


def test_ext_latency_curve():
    exp = LatencyCurveExperiment(bench_config())
    curve = exp.measure()
    rows = [
        (f"{size // 1024} KiB", level, lat)
        for size, level, lat in zip(curve.sizes_bytes, curve.levels, curve.latencies_ns)
    ]
    publish(
        "ext_latency_curve",
        "== Extension: working-set latency curve (pointer chase) ==\n"
        + format_table(["working set", "level", "latency ns"], rows, float_fmt="{:.2f}"),
    )
    assert curve.plateau_ns("L1D") < curve.plateau_ns("L2") < curve.plateau_ns("L3")
    assert curve.plateau_ns("DRAM") > 85.0
