"""Fig 6: FIRESTARTER at nominal frequency — EDC throttling."""

import pytest

from repro.core import ThroughputLimitExperiment
from repro.core.analysis.tables import format_table

from _common import bench_config, check, publish


def test_fig06_firestarter():
    exp = ThroughputLimitExperiment(bench_config())

    def run():
        return exp.measure(smt=True), exp.measure(smt=False)

    two, one = run()
    table = exp.compare_with_paper(two, one)

    rows = [
        ("2 threads/core", two.mean_freq_ghz, two.std_freq_mhz, two.ipc_per_core,
         two.ac_power_w, two.rapl_per_pkg_w),
        ("1 thread/core", one.mean_freq_ghz, one.std_freq_mhz, one.ipc_per_core,
         one.ac_power_w, one.rapl_per_pkg_w),
    ]
    grid = format_table(
        ["config", "freq GHz", "freq std MHz", "IPC/core", "AC W", "RAPL W/pkg"],
        rows,
        float_fmt="{:.2f}",
    )
    publish("fig06_firestarter", table.render() + "\n\n" + grid)
    check(table)


def test_fig06_frequency_sweep():
    """Where the EDC limit starts to bind (requested vs applied)."""
    exp = ThroughputLimitExperiment(bench_config())
    rows = exp.frequency_sweep()
    grid = format_table(
        ["requested GHz", "applied GHz", "system AC W"], rows, float_fmt="{:.2f}"
    )
    publish(
        "fig06_frequency_sweep",
        "== Fig 6 companion: FIRESTARTER requested vs applied clock ==\n"
        + grid
        + "\n\nrequests at/below the EDC point are honoured; above it they "
        "clip to 2.0 GHz\n(no documented AVX-frequency table to predict "
        "this from - §V-E's warning).",
    )
    # below the throttle point: exact; above: clipped
    assert rows[0][1] == rows[0][0]
    assert rows[-1][1] == pytest.approx(2.0, abs=0.001)


def test_fig06_future_work_core_scaling():
    """§VIII: throttling vs core count across the SKU catalogue."""
    exp = ThroughputLimitExperiment(bench_config())
    scaling = exp.core_count_scaling()
    rows = [(name, f) for name, f in scaling.items()]
    grid = format_table(["SKU", "throttled GHz (FIRESTARTER, SMT)"], rows, float_fmt="{:.3f}")
    publish("fig06_core_scaling", "== §VIII future work: throttle vs core count ==\n" + grid)
    assert scaling["EPYC 7742"] < scaling["EPYC 7502"]
