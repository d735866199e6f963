"""Extension study: wake-up rate vs idle power (menu-governor cliff)."""

from repro.core.analysis.tables import format_table
from repro.core.idle_governor import IdleGovernorExperiment

from _common import bench_config, publish


def test_ext_idle_governor_cliff():
    exp = IdleGovernorExperiment(bench_config())
    result = exp.measure()
    rows = [
        (f"{rate:.0f} Hz", state, power)
        for rate, state, power in zip(
            result.rates_hz, result.selected_state, result.power_w
        )
    ]
    grid = format_table(
        ["wake-up rate", "governor pick", "system AC W"], rows, float_fmt="{:.1f}"
    )
    publish(
        "ext_idle_governor",
        "== Extension: one busy interrupt source vs idle power ==\n"
        + grid
        + f"\n\ncliff at {result.cliff_rate_hz():.0f} Hz: one CPU stuck at C1 "
        "costs the full +81 W deep-sleep penalty (§VI-A) with no sysfs "
        "change at all.",
    )
    assert exp.breakeven_matches_governor_table(result)
    assert max(result.power_w) - min(result.power_w) > 80.0
