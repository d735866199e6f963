"""Fig 9: RAPL vs AC reference across the workload grid."""

import numpy as np

from repro.core import RaplQualityExperiment
from repro.core.analysis.plots import ascii_scatter
from repro.core.analysis.tables import format_table

from _common import bench_config, check, publish


def test_fig09_rapl_quality():
    exp = RaplQualityExperiment(bench_config())
    result = exp.measure(placements=("all", "half"))
    table = exp.compare_with_paper(result)

    # per-workload summary at 2.5 GHz, all threads (the Fig 9a points)
    rows = []
    for name in sorted({p.workload for p in result.points}):
        pts = [
            p
            for p in result.points
            if p.workload == name and p.freq_ghz == 2.5 and p.smt
        ]
        if not pts:
            pts = [p for p in result.points if p.workload == name]
        rows.append(
            (
                name,
                float(np.mean([p.ac_w for p in pts])),
                float(np.mean([p.rapl_pkg_w for p in pts])),
                float(np.mean([p.rapl_core_w for p in pts])),
                float(np.mean([p.pkg_minus_core_w for p in pts])),
            )
        )
    grid = format_table(
        ["workload", "AC W", "RAPL pkg W", "RAPL core W", "pkg-core W"],
        rows,
        float_fmt="{:.1f}",
    )
    scatter = ascii_scatter(
        [p.rapl_pkg_w for p in result.points],
        [p.ac_w for p in result.points],
        x_label="RAPL package W",
        y_label="AC W",
        width=56,
        height=18,
    )
    publish(
        "fig09_rapl_quality",
        table.render()
        + "\n\n(2.5 GHz, all threads)\n"
        + grid
        + "\n\nFig 9a shape (every config): no single mapping function\n"
        + scatter,
    )
    check(table)
