"""Fig 3: frequency-transition delay histogram (2.2 -> 1.5 GHz).

Regenerates the histogram (25 µs bins) with the §V-B methodology and the
anomaly observations for the 2.2 <-> 2.5 GHz pairs.
"""

from repro.core import FrequencyTransitionExperiment
from repro.units import ghz

from _common import bench_config, check, publish


def test_fig03_transition_histogram():
    exp = FrequencyTransitionExperiment(bench_config())
    result = exp.measure_pair(ghz(2.2), ghz(1.5))
    table = exp.compare_with_paper(result)
    text = (
        table.render()
        + f"\n\nsamples: {len(result.latencies_us)}, invalid discarded: {result.n_invalid}"
        + "\n\nhistogram (25 us bins):\n"
        + result.histogram.render_ascii(40)
    )
    publish("fig03_transition_delay", text)
    check(table)


def test_fig03_fast_return_anomalies():
    exp = FrequencyTransitionExperiment(bench_config())

    def run():
        up = exp.measure_pair(ghz(2.2), ghz(2.5), n_samples=600)
        down = exp.measure_pair(ghz(2.5), ghz(2.2), n_samples=600)
        up_slow = exp.measure_pair(ghz(2.2), ghz(2.5), n_samples=200, min_wait_ms=5.0)
        return up, down, up_slow

    up, down, up_slow = run()
    text = (
        "== §V-B anomalies for the 2.2 <-> 2.5 GHz pair ==\n"
        f"2.2 -> 2.5: min {up.min_us:8.2f} us  "
        f"({100 * (up.latencies_us < 10).mean():.0f} % instantaneous)\n"
        f"2.5 -> 2.2: min {down.min_us:8.2f} us  (partial transitions below 390 us)\n"
        f"2.2 -> 2.5 with >= 5 ms waits: min {up_slow.min_us:8.2f} us (effect gone)"
    )
    publish("fig03_anomalies", text)
    assert up.min_us < 10.0
    assert 100.0 < down.min_us < 385.0
    assert up_slow.min_us > 300.0
