"""Fig 10: AC and RAPL power distributions by operand Hamming weight."""

import numpy as np

from repro.core import DataPowerExperiment
from repro.core.analysis.plots import ascii_ecdf
from repro.core.analysis.tables import format_table

from _common import bench_config, check, publish


def _ecdf_sketch(samples: np.ndarray, width: int = 40) -> str:
    """A terminal ECDF: quantiles across the distribution."""
    qs = np.linspace(0.05, 0.95, 10)
    vals = np.quantile(samples, qs)
    lo, hi = samples.min(), samples.max()
    lines = []
    for q, v in zip(qs, vals):
        pos = int((v - lo) / (hi - lo + 1e-12) * width)
        lines.append(f"  p{int(q * 100):02d} {'.' * pos}* {v:.3f}")
    return "\n".join(lines)


def test_fig10_vxorps_and_shr():
    exp = DataPowerExperiment(bench_config(scale=0.2))  # ~600 blocks

    def run():
        return exp.measure("vxorps"), exp.measure("shr")

    vxorps, shr = run()
    table = exp.compare_with_paper(vxorps, shr)

    rows = []
    for w in (0.0, 0.5, 1.0):
        s = vxorps.samples[w]
        rows.append(
            (
                f"weight {w:g}",
                float(s.ac_w.mean()),
                float(s.ac_w.std()),
                float(s.rapl_pkg_w.mean()),
                float(s.rapl_pkg_w.std()),
            )
        )
    grid = format_table(
        ["vxorps operand", "AC mean W", "AC std", "RAPL pkg mean W", "RAPL std"],
        rows,
        float_fmt="{:.3f}",
    )
    ac_plot = ascii_ecdf(
        {f"w={w:g}": vxorps.samples[w].ac_w for w in (0.0, 0.5, 1.0)},
        x_label="system AC W",
        width=56,
        height=14,
    )
    rapl_plot = ascii_ecdf(
        {f"w={w:g}": vxorps.samples[w].rapl_pkg_w for w in (0.0, 0.5, 1.0)},
        x_label="RAPL pkg W",
        width=56,
        height=14,
    )
    text = (
        table.render()
        + "\n\n"
        + grid
        + "\n\nFig 10a: AC ECDFs per operand weight (fully separated):\n"
        + ac_plot
        + "\n\nFig 10b: RAPL ECDFs per operand weight (overlapping):\n"
        + rapl_plot
        + "\n\nAC quantiles, weight 1.0:\n"
        + _ecdf_sketch(vxorps.samples[1.0].ac_w)
    )
    publish("fig10_hamming_ecdf", text)
    check(table)
