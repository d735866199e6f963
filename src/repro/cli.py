"""Command-line entry point: ``repro-zen2 <experiment>``.

Runs any of the paper's experiments at a configurable scale and prints
the paper-vs-measured comparison table.  ``repro-zen2 all`` runs the
whole evaluation (the EXPERIMENTS.md content).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import (
    CStateLatencyExperiment,
    DataPowerExperiment,
    ExperimentConfig,
    FrequencyTransitionExperiment,
    IdlePowerExperiment,
    IdleSiblingExperiment,
    MemoryPerformanceExperiment,
    MixedFrequencyExperiment,
    RaplQualityExperiment,
    RaplUpdateRateExperiment,
    ThroughputLimitExperiment,
)
from repro.core.analysis.tables import format_table
from repro.datasets.green500 import architecture_summary, synthesize_green500
from repro.units import ghz


def _run_fig1(cfg: ExperimentConfig) -> str:
    entries = synthesize_green500(cfg.seed)
    summary = architecture_summary(entries)
    rows = [
        (name, int(s["n"]), s["q1"], s["median"], s["q3"])
        for name, s in summary.items()
    ]
    table = format_table(
        ["architecture", "n", "q1", "median", "q3"], rows, float_fmt="{:.2f}"
    )
    return f"== Fig 1: Green500 2021/07 x86 efficiency (GFlops/W) ==\n{table}"


def _run_sec5a(cfg: ExperimentConfig) -> str:
    exp = IdleSiblingExperiment(cfg)
    return exp.compare_with_paper(exp.measure()).render()


def _run_fig3(cfg: ExperimentConfig) -> str:
    exp = FrequencyTransitionExperiment(cfg)
    res = exp.measure_pair(ghz(2.2), ghz(1.5))
    out = exp.compare_with_paper(res).render()
    out += "\n\nhistogram (25 us bins):\n" + res.histogram.render_ascii(40)
    return out


def _run_tab1(cfg: ExperimentConfig) -> str:
    exp = MixedFrequencyExperiment(cfg)
    return exp.compare_with_paper(exp.measure_applied_frequencies()).render()


def _run_fig4(cfg: ExperimentConfig) -> str:
    exp = MixedFrequencyExperiment(cfg)
    res = exp.measure_l3_latencies()
    rows = [
        (f"set {s} GHz", *(res.cell(s, o) for o in exp.FREQS_GHZ))
        for s in exp.FREQS_GHZ
    ]
    table = format_table(
        ["", *(f"others {o} GHz" for o in exp.FREQS_GHZ)], rows, float_fmt="{:.2f}"
    )
    mono = exp.check_l3_monotonicity(res)
    return (
        "== Fig 4: L3 latency, mixed-frequency CCX (ns) ==\n"
        f"{table}\nL3 latency falls with faster neighbours (1.5 GHz row): {mono}"
    )


def _run_fig5(cfg: ExperimentConfig) -> str:
    exp = MemoryPerformanceExperiment(cfg)
    bw = exp.measure_bandwidth()
    lat = exp.measure_latency()
    out = exp.compare_with_paper(bw, lat).render()
    rows = []
    for (mode, dram), series in sorted(bw.series.items()):
        rows.append((f"{mode} {dram}", *(f"{v:.1f}" for v in series)))
    table = format_table(["config", *map(str, bw.core_counts)], rows)
    return out + "\n\nbandwidth (GB/s) vs cores:\n" + table


def _run_fig6(cfg: ExperimentConfig) -> str:
    exp = ThroughputLimitExperiment(cfg)
    two = exp.measure(smt=True)
    one = exp.measure(smt=False)
    out = exp.compare_with_paper(two, one).render()
    scaling = exp.core_count_scaling()
    out += "\n\nfuture work (throttled GHz by SKU): " + ", ".join(
        f"{k}={v:.2f}" for k, v in scaling.items()
    )
    return out


def _run_fig7(cfg: ExperimentConfig) -> str:
    exp = IdlePowerExperiment(cfg)
    c1 = exp.sweep_c1(step_cpus=list(range(16)))
    c0 = exp.sweep_c0(step_cpus=list(range(16)))
    out = exp.compare_with_paper(c1, c0).render()
    anomaly = exp.offline_anomaly()
    out += (
        "\n\n§VI-B offline anomaly: baseline "
        f"{anomaly['baseline_w']:.1f} W -> offline {anomaly['offline_w']:.1f} W "
        f"-> re-onlined {anomaly['restored_w']:.1f} W"
    )
    return out


def _run_fig8(cfg: ExperimentConfig) -> str:
    exp = CStateLatencyExperiment(cfg)
    return exp.compare_with_paper(exp.measure()).render()


def _run_fig9(cfg: ExperimentConfig) -> str:
    exp = RaplQualityExperiment(cfg)
    return exp.compare_with_paper(exp.measure()).render()


def _run_fig10(cfg: ExperimentConfig) -> str:
    exp = DataPowerExperiment(cfg)
    vx = exp.measure("vxorps")
    shr = exp.measure("shr")
    return exp.compare_with_paper(vx, shr).render()


def _run_rapl_rate(cfg: ExperimentConfig) -> str:
    exp = RaplUpdateRateExperiment(cfg)
    return exp.compare_with_paper(exp.measure()).render()


EXPERIMENTS = {
    "fig1": _run_fig1,
    "sec5a": _run_sec5a,
    "fig3": _run_fig3,
    "tab1": _run_tab1,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "rapl-rate": _run_rapl_rate,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # `repro-zen2 lint [...]` forwards to the static-analysis CLI
        # (also reachable as `python -m repro.lint` / `repro-lint`).
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "obs":
        # `repro-zen2 obs [...]` forwards to the observability inspector
        # (also reachable as `python -m repro.obs`).
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "serve":
        # `repro-zen2 serve [...]` runs the HTTP experiment service
        # (also reachable as `python -m repro.service`).
        from repro.service.cli import main as service_main

        return service_main(["serve", *argv[1:]])

    parser = argparse.ArgumentParser(
        prog="repro-zen2",
        description="Reproduce the CLUSTER 2021 Zen 2 energy-efficiency paper "
        "(run 'repro-zen2 lint --help' for the static-analysis pass, "
        "'repro-zen2 obs --help' for the trace/metrics inspector, "
        "'repro-zen2 serve --help' for the HTTP experiment service)",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all", "suite", "selfcheck"],
        help="which figure/table to reproduce ('suite' runs everything "
        "through the structured runner; 'selfcheck' verifies the "
        "calibration anchors in seconds)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=0.02,
        help="fraction of the paper's sample counts (1.0 = full scale)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="with 'suite': also write the structured report to PATH",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="with 'suite': run experiments across N worker processes "
        "(default 1 = serial in-process; results are byte-identical)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="with 'suite': recompute everything, bypassing the "
        "content-addressed result cache (REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="with 'suite': print cache hit/miss/latency counters",
    )
    parser.add_argument(
        "--monitor",
        action="store_true",
        help="with 'suite': attach the runtime invariant monitor to every "
        "machine and fail on violations (slower; bypasses the cache)",
    )
    parser.add_argument(
        "--only",
        metavar="NAME",
        action="append",
        help="with 'suite': run only this registry entry (repeatable)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="with 'suite': export a Perfetto-loadable repro.obs/trace "
        "JSON of the run (suite/experiment/measure/dispatch spans)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="with 'suite': write Prometheus text exposition to PATH and "
        "the repro.obs/metrics JSON snapshot to PATH.json",
    )
    args = parser.parse_args(argv)

    cfg = ExperimentConfig(seed=args.seed, scale=args.scale)

    if args.experiment == "selfcheck":
        from repro.core.selfcheck import selfcheck

        machine = cfg.build_machine()
        table = selfcheck(machine)
        machine.shutdown()
        print(table.render())
        return 0 if table.all_ok else 1

    if args.experiment == "suite":
        from repro.cache import ResultCache
        from repro.core.serialize import dump_json
        from repro.core.suite import (
            run_suite,
            suite_to_dict,
            suite_trace_document,
        )

        cache = None if (args.no_cache or args.monitor) else ResultCache()
        obs = None
        if args.trace or args.metrics:
            from repro.obs import Obs

            obs = Obs()
        result = run_suite(
            cfg,
            only=args.only,
            parallel=args.jobs,
            cache=cache,
            monitor=args.monitor,
            obs=obs,
        )
        print(result.render())
        print(f"\nsuite verdict: {'OK' if result.all_ok else 'FAILURES'}")
        if args.cache_stats and cache is not None:
            import json as _json

            print("cache stats: " + _json.dumps(cache.stats.as_dict(), sort_keys=True))
        if args.json:
            dump_json(suite_to_dict(result), args.json)
            print(f"structured report written to {args.json}")
        if args.trace:
            # Merged timeline: the parent document plus every worker-
            # shipped trace of a parallel run (serial runs merge one).
            dump_json(suite_trace_document(result), args.trace)
            print(f"trace written to {args.trace}")
        if args.metrics:
            with open(args.metrics, "w") as fh:
                fh.write(obs.to_prometheus())
            dump_json(obs.metrics_snapshot(), f"{args.metrics}.json")
            print(
                f"metrics written to {args.metrics} "
                f"(JSON snapshot: {args.metrics}.json)"
            )
        return 0 if result.all_ok else 1

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        t0 = time.time()  # lint: disable=DET001 (wall-clock progress display only)
        print(EXPERIMENTS[name](cfg))
        print(f"[{name}: {time.time() - t0:.1f} s]\n")  # lint: disable=DET001
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
