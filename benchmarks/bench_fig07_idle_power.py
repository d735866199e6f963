"""Fig 7: full-system AC power across idle-state combinations."""

from repro.core import IdlePowerExperiment
from repro.core.analysis.tables import format_table

from _common import bench_config, check, publish


def test_fig07_idle_staircase():
    exp = IdlePowerExperiment(bench_config())

    def run():
        cpus = list(range(24))  # the staircase slope is visible early
        return exp.sweep_c1(step_cpus=cpus), exp.sweep_c0(step_cpus=cpus)

    c1, c0 = run()
    table = exp.compare_with_paper(c1, c0)

    rows = [
        (c1.steps[i], c1.power_w[i], c0.steps[i], c0.power_w[i])
        for i in range(min(len(c1.steps), len(c0.steps)))
    ]
    grid = format_table(
        ["C1 sweep step", "AC W", "C0 sweep step", "AC W"], rows, float_fmt="{:.2f}"
    )
    publish("fig07_idle_power", table.render() + "\n\n" + grid)
    check(table)


def test_sec6b_offline_anomaly():
    """§VI-B: offline hardware threads pin power at the C1 level."""
    exp = IdlePowerExperiment(bench_config())
    res = exp.offline_anomaly()
    text = (
        "== §VI-B offline-thread anomaly ==\n"
        f"all C2 baseline:        {res['baseline_w']:7.1f} W\n"
        f"SMT siblings offlined:  {res['offline_w']:7.1f} W  (C1-level!)\n"
        f"siblings re-onlined:    {res['restored_w']:7.1f} W"
    )
    publish("sec6b_offline_anomaly", text)
    assert res["offline_w"] > res["baseline_w"] + 80.0
    assert abs(res["restored_w"] - res["baseline_w"]) < 0.5
