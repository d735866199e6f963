"""Fig 4: L3-cache latencies in a mixed-frequency CCX."""

from repro.core import MixedFrequencyExperiment
from repro.core.analysis.tables import format_table

from _common import bench_config, publish


def test_fig04_l3_latency():
    exp = MixedFrequencyExperiment(bench_config())
    result = exp.measure_l3_latencies()

    rows = [
        (f"set {s} GHz", *(result.cell(s, o) for o in exp.FREQS_GHZ))
        for s in exp.FREQS_GHZ
    ]
    grid = format_table(
        ["measured core", *(f"others {o}" for o in exp.FREQS_GHZ)],
        rows,
        float_fmt="{:.2f}",
    )
    mono = exp.check_l3_monotonicity(result)
    publish(
        "fig04_l3_latency",
        "== Fig 4: L3 latency (ns), pointer chase, prefetchers off ==\n"
        + grid
        + f"\n\nL3 latency falls as neighbours speed up (1.5 GHz row): {mono}",
    )
    assert mono
    # the 2.5 GHz row is flat: the measured core already owns the L3 clock
    flat = [result.cell(2.5, o) for o in exp.FREQS_GHZ]
    assert max(flat) - min(flat) < 0.5
