"""Per-layer metrics: which public functions are wrapped, and what each
metric should move.

A traced run wraps the functions below with a :class:`spans.SpanRecorder`
(``install``), runs the workload, and turns the recorder's aggregates
into the ``per_layer`` metrics of ``BENCHMARK.json`` (``layer_values``).
Span names are ``<layer>.<function>``; a metric name is a span name plus
``.calls``, ``.self_s`` or ``.s`` (total time), or one of the derived or
worker-measured names handled below.

``MOVES`` records, before any measurement, which end-to-end metric on
which workload each layer metric should move (``metric@workload``).
``BENCHMARK.json`` cannot hold it, so it lives here and the tests check
that it names declared metrics and workloads only.
"""

from __future__ import annotations

from typing import Any

SERIAL = "op_s@suite_serial"
EVENT = "op_s@event_timing"
SETUP = ["setup_s@suite_serial", "setup_s@event_timing"]

MOVES: dict[str, list[str]] = {
    "oslayer.set_frequency.calls": [SERIAL],
    "oslayer.set_all_frequencies.calls": [SERIAL],
    "oslayer.run.calls": [SERIAL],
    "oslayer.stop.calls": [SERIAL],
    "machine.reconfigured.calls": [SERIAL],
    "machine.reconfigured.self_s": [SERIAL],
    "machine.settles_per_os_call": [SERIAL],
    "machine.init.calls": [SERIAL, *SETUP],
    "machine.init.self_s": [SERIAL, *SETUP],
    "machine.measure.calls": [SERIAL],
    "machine.measure.self_s": [SERIAL],
    "machine.preheat.calls": [SERIAL],
    "machine.preheat.self_s": [SERIAL],
    "smu.run_edc_loop.calls": [SERIAL],
    "smu.run_edc_loop.self_s": [SERIAL],
    "smu.run_ppt_loop.calls": [SERIAL],
    "smu.run_ppt_loop.self_s": [SERIAL],
    "pstate.resolve_ccx.calls": [SERIAL],
    "pstate.resolve_ccx.self_s": [SERIAL],
    "power.breakdown.calls": [SERIAL],
    "power.breakdown.self_s": [SERIAL],
    "power.package_power_w.calls": [SERIAL],
    "power.package_power_w.self_s": [SERIAL],
    "power.package_dram_traffic_gbs.calls": [SERIAL],
    "power.package_dram_traffic_gbs.self_s": [SERIAL],
    "rapl.core_power_w.calls": [SERIAL],
    "rapl.core_power_w.self_s": [SERIAL],
    "rapl.package_power_w.calls": [SERIAL],
    "rapl.package_power_w.self_s": [SERIAL],
    "cstate.refresh.calls": [SERIAL],
    "cstate.refresh.self_s": [SERIAL],
    "sim.run_until.calls": [EVENT],
    "sim.run_until.self_s": [EVENT],
    "core.sec5a_idle_sibling.s": [SERIAL, EVENT],
    "core.fig3_transition_delay.s": [SERIAL, EVENT],
    "core.tab1_mixed_frequencies.s": [SERIAL],
    "core.fig5_memory_performance.s": [SERIAL],
    "core.fig6_firestarter.s": [SERIAL],
    "core.fig7_idle_power.s": [SERIAL],
    "core.fig8_cstate_latency.s": [SERIAL, EVENT],
    "core.fig9_rapl_quality.s": [SERIAL],
    "core.fig10_data_power.s": [SERIAL],
    "core.sec7_rapl_update_rate.s": [SERIAL, EVENT],
    "core.compare_with_paper.self_s": [SERIAL, EVENT],
    "core.self_s": [SERIAL, EVENT],
    "setup.import_s": SETUP,
}

#: Metrics the worker measures itself instead of reading them from spans.
WORKLOAD_PREFIXES = ("setup.",)


def install(rec) -> None:
    """Wrap every recorded public function of the program with ``rec``."""
    import repro.core.suite as suite
    from repro.cstate import CStateController
    from repro.machine import Machine
    from repro.oslayer import Kernel
    from repro.power import PowerModel
    from repro.pstate import FrequencyResolver
    from repro.rapl import RaplEstimator
    from repro.sim import Simulator
    from repro.smu import MasterSmu

    methods = [
        ("oslayer", Kernel, ["set_frequency", "set_all_frequencies", "run", "stop"]),
        ("machine", Machine, ["__init__", "reconfigured", "measure", "preheat"]),
        ("smu", MasterSmu, ["run_edc_loop", "run_ppt_loop"]),
        ("pstate", FrequencyResolver, ["resolve_ccx"]),
        ("power", PowerModel, ["breakdown", "package_power_w", "package_dram_traffic_gbs"]),
        ("rapl", RaplEstimator, ["core_power_w", "package_power_w"]),
        ("cstate", CStateController, ["refresh"]),
        ("sim", Simulator, ["run_until"]),
    ]
    for layer, cls, attrs in methods:
        for attr in attrs:
            rec.wrap(cls, attr, f"{layer}.{attr.strip('_')}")
    for name in list(suite.SUITE):
        rec.wrap(suite.SUITE, name, f"core.{name}", boundary=True)
    for obj in list(vars(suite).values()):
        if isinstance(obj, type) and "compare_with_paper" in vars(obj):
            rec.wrap(obj, "compare_with_paper", "core.compare_with_paper")


def _settles_per_os_call(rec) -> float:
    os_calls = sum(v[0] for k, v in rec.stats.items() if k.startswith("oslayer."))
    return rec.calls("machine.reconfigured") / os_calls if os_calls else 0.0


DERIVED = {
    "machine.settles_per_os_call": _settles_per_os_call,
    "core.self_s": lambda rec: rec.self_s_prefix("core."),
}


def layer_values(names: list[str], rec, reported: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric in ``names``, from spans and reported values."""
    read: dict[str, Any] = {"calls": rec.calls, "self_s": rec.self_s, "s": rec.total_s}
    out: dict[str, float] = {}
    for name in names:
        if name.startswith(WORKLOAD_PREFIXES):
            out[name] = float(reported.get(name, 0.0))
        elif name in DERIVED:
            out[name] = float(DERIVED[name](rec))
        else:
            span, _, kind = name.rpartition(".")
            out[name] = float(read[kind](span))
    return out


def settle_share(rec, wall_s: float) -> float:
    """``machine`` + ``smu`` + ``pstate`` self time as a share of ``wall_s``."""
    settle = sum(rec.self_s_prefix(p) for p in ("machine.", "smu.", "pstate."))
    return settle / wall_s if wall_s else 0.0
