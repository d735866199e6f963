"""Fig 5: DRAM bandwidth and latency vs I/O-die P-state and MEMCLK."""

from repro.core import MemoryPerformanceExperiment
from repro.core.analysis.plots import ascii_series
from repro.core.analysis.tables import format_table
from repro.core.memperf import DRAM_GRADES, FCLK_MODES

from _common import bench_config, check, publish


def test_fig05_bandwidth_and_latency():
    exp = MemoryPerformanceExperiment(bench_config())

    def run():
        return exp.measure_bandwidth(), exp.measure_latency()

    bw, lat = run()
    table = exp.compare_with_paper(bw, lat)

    bw_rows = [
        (f"{mode.name} {dram}", *(round(float(v), 1) for v in bw.series[(mode.name, dram)]))
        for mode in FCLK_MODES
        for dram in DRAM_GRADES
    ]
    bw_grid = format_table(
        ["config", *(str(c) for c in bw.core_counts)], bw_rows, float_fmt="{:.1f}"
    )
    lat_rows = [
        (mode.name, *(lat.at(mode, dram) for dram in DRAM_GRADES))
        for mode in FCLK_MODES
    ]
    lat_grid = format_table(
        ["fclk mode", *DRAM_GRADES], lat_rows, float_fmt="{:.1f}"
    )
    curves = ascii_series(
        {
            f"{mode.name}@3200": (bw.core_counts, bw.series[(mode.name, "DDR4-3200")])
            for mode in FCLK_MODES
        },
        x_label="active cores",
        y_label="GB/s",
        width=56,
        height=14,
    )
    publish(
        "fig05_membw_latency",
        table.render()
        + "\n\nSTREAM-Triad bandwidth (GB/s) vs active cores:\n"
        + bw_grid
        + "\n\n"
        + curves
        + "\n\nmain-memory latency (ns):\n"
        + lat_grid,
    )
    check(table)
