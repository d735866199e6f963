"""§VII (text): the RAPL MSR update rate, measured by tight polling."""

import numpy as np

from repro.core import RaplUpdateRateExperiment

from _common import bench_config, check, publish


def test_sec7_rapl_update_rate():
    exp = RaplUpdateRateExperiment(bench_config())
    result = exp.measure(n_updates=100)
    table = exp.compare_with_paper(result)
    text = (
        table.render()
        + f"\n\nintervals between counter updates: median {result.median_ms:.3f} ms, "
        + f"min {result.intervals_ms.min():.3f}, max {result.intervals_ms.max():.3f}, "
        + f"n={result.intervals_ms.size}"
    )
    publish("sec7_rapl_update_rate", text)
    check(table)
    assert float(np.std(result.intervals_ms)) < 0.05  # a fixed grid, not jittered
