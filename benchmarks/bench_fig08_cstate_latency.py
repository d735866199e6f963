"""Fig 8: C-state wake-up transition times (caller/callee)."""

import numpy as np

from repro.core import CStateLatencyExperiment
from repro.core.analysis.tables import format_table

from _common import bench_config, check, publish


def test_fig08_cstate_latencies():
    exp = CStateLatencyExperiment(bench_config(scale=1.0))  # paper: 200 samples
    result = exp.measure()
    table = exp.compare_with_paper(result)

    rows = []
    for state in exp.STATES:
        for freq in exp.FREQS_GHZ:
            local = result.get(state, freq)
            remote = result.get(state, freq, remote=True)
            rows.append(
                (
                    state,
                    freq,
                    local.median_us,
                    float(np.percentile(local.latencies_us, 95)),
                    remote.median_us,
                )
            )
    grid = format_table(
        ["state", "GHz", "local median us", "local p95 us", "remote median us"],
        rows,
        float_fmt="{:.2f}",
    )
    entry = exp.measure_entry()
    entry_rows = [
        (state, freq, entry[(state, freq)])
        for state in ("C1", "C2")
        for freq in exp.FREQS_GHZ
    ]
    entry_grid = format_table(
        ["state", "GHz", "entry median us"], entry_rows, float_fmt="{:.2f}"
    )
    publish(
        "fig08_cstate_latency",
        table.render()
        + "\n\n"
        + grid
        + "\n\nentry latencies (companion metric, Ilsche et al. [6]):\n"
        + entry_grid,
    )
    check(table)
    assert entry[("C2", 2.5)] < result.get("C2", 2.5).median_us  # enter < exit
