"""§V-A (text observation): idle/offline sibling threads raise the core clock."""

from repro.core import IdleSiblingExperiment

from _common import bench_config, check, publish


def test_sec5a_idle_sibling():
    exp = IdleSiblingExperiment(bench_config())
    result = exp.measure()
    table = exp.compare_with_paper(result)
    text = (
        table.render()
        + "\n\nobserved idle-sibling housekeeping: "
        + f"{result.idle_sibling_cycles_per_s:.0f} cycles/s (paper: < 60000)"
    )
    publish("sec5a_idle_sibling", text)
    check(table)
