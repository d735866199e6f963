"""Extension study: optimal frequency per workload class."""

from repro.core.analysis.tables import format_table
from repro.core.energy_efficiency import EnergyEfficiencyExperiment
from repro.workloads import SPIN, STREAM_TRIAD, instruction_block

from _common import bench_config, publish


def test_ext_energy_efficiency():
    exp = EnergyEfficiencyExperiment(bench_config())
    result = exp.measure(
        workloads=(SPIN, STREAM_TRIAD, instruction_block("add_pd"))
    )
    rows = [
        (p.workload, p.freq_ghz, p.runtime_s, p.energy_j, p.edp)
        for p in result.points
    ]
    grid = format_table(
        ["workload", "req GHz", "runtime s", "energy J", "EDP J*s"],
        rows,
        float_fmt="{:.1f}",
    )
    opt_rows = [
        (name, result.optimal_freq_ghz(name, "energy_j"), result.optimal_freq_ghz(name, "edp"))
        for name in ("spin", "stream_triad", "add_pd")
    ]
    publish(
        "ext_energy_efficiency",
        "== Extension: energy-to-solution vs frequency (64 cores) ==\n"
        + grid
        + "\n\noptimal frequency:\n"
        + format_table(["workload", "min energy", "min EDP"], opt_rows, float_fmt="{:.1f}")
        + "\n\ncompute-bound work races to idle at the top clock; memory-bound"
        "\nwork downclocks for free — the decision a DVFS runtime must make"
        "\nper phase (examples/dvfs_tuner.py).",
    )
    assert result.optimal_freq_ghz("stream_triad") == 1.5
    assert result.optimal_freq_ghz("spin") == 2.5
