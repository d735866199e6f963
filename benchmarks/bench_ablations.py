"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation switches one modelled mechanism off (or to its Intel-like
variant) and regenerates the affected observable, quantifying how much of
the paper's finding that mechanism carries.
"""

from repro.core.analysis.tables import format_table
from repro.machine import Machine, Quirks
from repro.units import ghz
from repro.workloads import FIRESTARTER, SPIN

from _common import BENCH_SEED, publish


def test_ablation_sibling_vote():
    """§V-A quirk off -> the tuned core keeps its own frequency."""

    def run():
        out = {}
        for vote in (True, False):
            m = Machine(
                "EPYC 7502",
                seed=BENCH_SEED,
                quirks=Quirks(offline_threads_vote_on_frequency=vote),
            )
            m.os.run(SPIN, [0])
            m.os.set_frequency(0, ghz(1.5))
            m.os.set_frequency(64, ghz(2.5))  # idle sibling
            out[vote] = m.topology.thread(0).core.applied_freq_hz / 1e9
            m.shutdown()
        return out

    result = run()
    rows = [("Rome (sibling votes)", result[True]), ("Intel-like", result[False])]
    publish(
        "ablation_sibling_vote",
        "== Ablation: idle-sibling frequency vote ==\n"
        + format_table(["behaviour", "core GHz (set 1.5, sibling 2.5)"], rows),
    )
    assert result[True] == 2.5
    assert result[False] == 1.5


def test_ablation_offline_c1_parking():
    """§VI-B quirk off -> no idle-power anomaly."""

    def run():
        out = {}
        for quirk in (True, False):
            m = Machine(
                "EPYC 7502", seed=BENCH_SEED, quirks=Quirks(offline_parks_in_c1=quirk)
            )
            for cpu in range(64, 128):
                m.os.hotplug.set_offline(cpu)
            out[quirk] = m.measure(10.0).ac_mean_w
            m.shutdown()
        return out

    result = run()
    rows = [("Rome (C1 parking)", result[True]), ("fixed OS/firmware", result[False])]
    publish(
        "ablation_offline_parking",
        "== Ablation: offline threads parked in C1 ==\n"
        + format_table(["behaviour", "idle AC W, siblings offline"], rows),
    )
    assert result[True] - result[False] > 80.0


def test_ablation_edc_limit():
    """EDC limit raised -> no throttle, but package current explodes."""

    def run():
        rows = []
        for limit_scale in (1.0, 1.1, 1.3):
            m = Machine("EPYC 7502", seed=BENCH_SEED)
            for smu in m.smus:
                smu.edc.limit_a *= limit_scale
            m.os.set_all_frequencies(ghz(2.5))
            m.os.run(FIRESTARTER, m.os.all_cpus())
            freq = m.topology.thread(0).core.applied_freq_hz / 1e9
            demand = m.smus[0].edc.package_demand_a(
                m.topology.packages[0], m.topology.thread(0).core.applied_freq_hz
            )
            rows.append((f"{limit_scale:.1f}x EDC limit", freq, demand))
            m.shutdown()
        return rows

    rows = run()
    publish(
        "ablation_edc_limit",
        "== Ablation: EDC limit vs FIRESTARTER operating point ==\n"
        + format_table(["config", "applied GHz", "package current A"], rows),
    )
    freqs = [r[1] for r in rows]
    assert freqs == sorted(freqs)  # higher limit -> higher frequency


def test_ablation_ccx_coupling():
    """Coupling penalty removed -> Table I becomes diagonal-clean."""
    from repro.power.calibration import Calibration
    from repro.core import ExperimentConfig, MixedFrequencyExperiment

    def run():
        coupled = MixedFrequencyExperiment(
            ExperimentConfig(seed=BENCH_SEED, scale=0.1)
        ).measure_applied_frequencies(20)
        # a calibration without penalties
        clean_cal = Calibration(
            ccx_penalty_mhz=(),
            ccx_equal_shortfall_mhz=(),
            set_2g5_slow_others_shortfall_mhz=0.0,
            set_2g5_mid_others_shortfall_mhz=0.0,
        )
        import repro.core.mixed_freq as mf
        from repro.machine import Machine

        grid = {}
        for set_g in (1.5, 2.2):
            m = Machine("EPYC 7502", seed=BENCH_SEED, calibration=clean_cal)
            cpus = m.os.cpus_of_ccx(0)
            m.os.run(SPIN, cpus)
            m.os.set_frequency(cpus[0], ghz(set_g))
            for cpu in cpus[1:]:
                m.os.set_frequency(cpu, ghz(2.5))
            grid[set_g] = m.os.perf.mean_freq_hz(cpus[0], count=10) / 1e9
            m.shutdown()
        return coupled, grid

    coupled, clean = run()
    rows = [
        ("set 1.5, others 2.5", coupled.cell(1.5, 2.5), clean[1.5]),
        ("set 2.2, others 2.5", coupled.cell(2.2, 2.5), clean[2.2]),
    ]
    publish(
        "ablation_ccx_coupling",
        "== Ablation: CCX coupling penalty ==\n"
        + format_table(["cell", "with coupling (Table I)", "without"], rows),
    )
    assert clean[2.2] > coupled.cell(2.2, 2.5) + 0.15
