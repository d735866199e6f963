"""Fig 1: Green500 2021/07 efficiency of x86 architectures.

Regenerates the per-architecture efficiency distribution (the figure's
boxes) from the embedded statistical reconstruction and verifies the
headline: AMD Zen architectures lead the x86 field.
"""

from repro.core.analysis.tables import format_table
from repro.datasets.green500 import (
    ARCHITECTURE_BANDS,
    amd_leads_x86,
    architecture_summary,
    synthesize_green500,
)

from _common import BENCH_SEED, publish


def _run():
    entries = synthesize_green500(BENCH_SEED)
    return entries, architecture_summary(entries)


def test_fig01_green500():
    entries, summary = _run()
    rows = [
        (
            band.architecture,
            band.vendor,
            int(summary[band.architecture]["n"]),
            summary[band.architecture]["q1"],
            summary[band.architecture]["median"],
            summary[band.architecture]["q3"],
        )
        for band in ARCHITECTURE_BANDS
    ]
    text = "== Fig 1: Green500 2021/07 x86 efficiency (GFlops/W) ==\n" + format_table(
        ["architecture", "vendor", "n", "q1", "median", "q3"], rows, float_fmt="{:.2f}"
    )
    publish("fig01_green500", text)
    assert amd_leads_x86(entries)
    assert len(entries) == sum(b.n_systems for b in ARCHITECTURE_BANDS)
