"""Extension study: power capping through the modelled PPT loop.

Not a numbered paper artifact — the §II-B capping context combined with
the §VII accuracy findings: the SMU holds the cap against its *model*,
so workloads whose power the model under-states violate the cap at the
wall.
"""

from repro.core.analysis.tables import format_table
from repro.core.power_capping import PowerCappingExperiment

from _common import bench_config, publish


def test_ext_power_capping():
    exp = PowerCappingExperiment(bench_config())
    result = exp.measure(caps_w=(75.0, 100.0, 130.0, 160.0))
    rows = [
        (
            p.workload,
            p.cap_w,
            p.applied_ghz,
            p.modelled_pkg_w,
            p.true_pkg_w,
            p.cap_violation_w,
            f"{100 * p.relative_performance:.0f}%",
        )
        for p in result.points
    ]
    grid = format_table(
        ["workload", "cap W", "GHz", "modelled W", "true W", "violation W", "perf"],
        rows,
        float_fmt="{:.2f}",
    )
    worst = result.worst_violation()
    publish(
        "ext_power_capping",
        "== Extension: power capping vs model accuracy ==\n"
        + grid
        + f"\n\nworst wall-side violation: {worst.cap_violation_w:.1f} W "
        f"({worst.workload} at a {worst.cap_w:.0f} W cap) — the §VII model "
        "gaps turned into an enforcement gap.",
    )
    assert result.worst_violation().cap_violation_w > 3.0
    fs = result.of_workload("firestarter")
    assert all(p.modelled_pkg_w <= p.cap_w + 1.0 for p in fs)
