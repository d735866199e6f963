"""Table I: applied mean core frequencies in a mixed-frequency CCX."""

from repro.core import MixedFrequencyExperiment
from repro.core.analysis.tables import format_table

from _common import bench_config, check, publish


def test_tab01_mixed_frequencies():
    exp = MixedFrequencyExperiment(bench_config(scale=0.5))
    result = exp.measure_applied_frequencies()
    table = exp.compare_with_paper(result)

    rows = [
        (f"set {s} GHz", *(result.cell(s, o) for o in exp.FREQS_GHZ))
        for s in exp.FREQS_GHZ
    ]
    grid = format_table(
        ["measured core", *(f"others {o}" for o in exp.FREQS_GHZ)],
        rows,
        float_fmt="{:.3f}",
    )
    publish("tab01_mixed_freq", table.render() + "\n\napplied mean GHz:\n" + grid)
    check(table)
