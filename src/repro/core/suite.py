"""Run the full evaluation as one suite and emit a structured report.

``run_suite`` executes every paper artifact's experiment at a chosen
scale and collects the :class:`~repro.core.report.ComparisonTable` of
each; ``suite_to_dict`` turns the lot into a JSON document for
regression tracking (the structured sibling of EXPERIMENTS.md).

The ten artifacts are independent, so ``run_suite(parallel=N)`` fans
them out across worker processes via :mod:`repro.parallel`; passing a
:class:`repro.cache.ResultCache` re-uses results of identical
(experiment, config, code) combinations across runs.  Both paths are
guaranteed byte-identical to the default serial single-process run:
every table — serial, parallel, or cached — travels through the same
``table_to_dict``/``table_from_dict`` round trip, so ``suite_to_dict``
digests match regardless of execution mode (docs/parallelism.md).
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.core.cstate_latency import CStateLatencyExperiment
from repro.core.data_power import DataPowerExperiment
from repro.core.experiment import ExperimentConfig
from repro.core.freq_transition import FrequencyTransitionExperiment
from repro.core.idle_power import IdlePowerExperiment
from repro.core.idle_sibling import IdleSiblingExperiment
from repro.core.memperf import MemoryPerformanceExperiment
from repro.core.mixed_freq import MixedFrequencyExperiment
from repro.core.rapl_quality import RaplQualityExperiment
from repro.core.rapl_rate import RaplUpdateRateExperiment
from repro.core.report import ComparisonTable
from repro.core.serialize import table_from_dict, table_to_dict
from repro.core.throughput import ThroughputLimitExperiment
from repro.errors import SuiteError
from repro.parallel import Task, TaskFailure, run_tasks
from repro.units import ghz

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import CacheStats, ResultCache


def _run_sec5a(cfg: ExperimentConfig) -> ComparisonTable:
    exp = IdleSiblingExperiment(cfg)
    return exp.compare_with_paper(exp.measure())


def _run_fig3(cfg: ExperimentConfig) -> ComparisonTable:
    exp = FrequencyTransitionExperiment(cfg)
    return exp.compare_with_paper(exp.measure_pair(ghz(2.2), ghz(1.5)))


def _run_tab1(cfg: ExperimentConfig) -> ComparisonTable:
    exp = MixedFrequencyExperiment(cfg)
    return exp.compare_with_paper(exp.measure_applied_frequencies())


def _run_fig5(cfg: ExperimentConfig) -> ComparisonTable:
    exp = MemoryPerformanceExperiment(cfg)
    return exp.compare_with_paper(exp.measure_bandwidth(), exp.measure_latency())


def _run_fig6(cfg: ExperimentConfig) -> ComparisonTable:
    exp = ThroughputLimitExperiment(cfg)
    return exp.compare_with_paper(exp.measure(smt=True), exp.measure(smt=False))


def _run_fig7(cfg: ExperimentConfig) -> ComparisonTable:
    exp = IdlePowerExperiment(cfg)
    return exp.compare_with_paper(
        exp.sweep_c1(step_cpus=list(range(8))),
        exp.sweep_c0(step_cpus=list(range(8))),
    )


def _run_fig8(cfg: ExperimentConfig) -> ComparisonTable:
    exp = CStateLatencyExperiment(cfg)
    return exp.compare_with_paper(exp.measure())


def _run_fig9(cfg: ExperimentConfig) -> ComparisonTable:
    exp = RaplQualityExperiment(cfg)
    return exp.compare_with_paper(exp.measure(placements=("all", "half")))


def _run_fig10(cfg: ExperimentConfig) -> ComparisonTable:
    exp = DataPowerExperiment(cfg)
    return exp.compare_with_paper(exp.measure("vxorps"), exp.measure("shr"))


def _run_rapl_rate(cfg: ExperimentConfig) -> ComparisonTable:
    exp = RaplUpdateRateExperiment(cfg)
    return exp.compare_with_paper(exp.measure())


SUITE: dict[str, Callable[[ExperimentConfig], ComparisonTable]] = {
    "sec5a_idle_sibling": _run_sec5a,
    "fig3_transition_delay": _run_fig3,
    "tab1_mixed_frequencies": _run_tab1,
    "fig5_memory_performance": _run_fig5,
    "fig6_firestarter": _run_fig6,
    "fig7_idle_power": _run_fig7,
    "fig8_cstate_latency": _run_fig8,
    "fig9_rapl_quality": _run_fig9,
    "fig10_data_power": _run_fig10,
    "sec7_rapl_update_rate": _run_rapl_rate,
}


def _execute_entry(
    name: str, cfg: ExperimentConfig, monitor: bool = False, obs=None
) -> dict[str, Any]:
    """Run one registry entry and return its serialized table.

    This is the unit of work shipped to pool workers, so it returns the
    plain-dict form: cheap to pickle, and the same representation the
    cache stores — every execution mode shares one canonical format.

    With ``monitor=True`` an :class:`~repro.lint.monitor.InvariantMonitor`
    is attached (in collecting mode) to every machine the entry builds,
    and the document grows an ``"invariants"`` key.  Monitored documents
    never enter the result cache — their shape differs, and a cache hit
    would skip the sweep the caller asked for.

    ``obs`` instruments every machine the entry builds (serial runs
    only: a :class:`repro.obs.Obs` never crosses a process boundary, so
    parallel workers always receive ``obs=None``).  The returned
    document is independent of ``obs`` — observability data lives in
    the obs bundle, never in the result.

    Entry start/end always leave flight-recorder breadcrumbs (and the
    entry name as ring context), so a crash bundle from any execution
    mode names the experiment that was running.
    """
    from repro.obs.flightrec import recorder

    rec = recorder()
    rec.context["entry"] = name
    rec.note("suite.entry.start", entry=name, seed=cfg.seed)
    try:
        return _execute_entry_inner(name, cfg, monitor, obs)
    finally:
        rec.note("suite.entry.end", entry=name)
        rec.context.pop("entry", None)


def _execute_entry_inner(
    name: str, cfg: ExperimentConfig, monitor: bool = False, obs=None
) -> dict[str, Any]:
    """The entry body behind the flight-recorder breadcrumbs."""
    if not monitor and obs is None:
        return table_to_dict(SUITE[name](cfg))

    from repro.core.experiment import machine_hook

    if monitor:
        from repro.lint.monitor import InvariantMonitor

    monitors: list = []

    def attach(machine) -> None:
        if obs is not None:
            machine.attach_obs(obs)
        if monitor:
            monitors.append(
                InvariantMonitor(
                    machine, raise_on_violation=False, obs=obs
                ).attach()
            )

    with machine_hook(attach):
        table = SUITE[name](cfg)
    for mon in monitors:
        mon.detach()
    if not monitor:
        return table_to_dict(table)
    return {
        "table": table_to_dict(table),
        "invariants": {
            "machines": len(monitors),
            "checks": sum(mon.checks_run for mon in monitors),
            "violations": [v for mon in monitors for v in mon.violations],
        },
    }


def _execute_entry_traced(
    name: str,
    cfg: ExperimentConfig,
    monitor: bool = False,
    trace: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run one entry in a pool worker with its own tracer.

    The parent cannot ship its :class:`repro.obs.Obs` across the process
    boundary, so the worker builds a private one, inherits the parent's
    ``trace_id`` through the ``trace`` context dict, runs the real
    experiment under full instrumentation (machine attach included, via
    ``_execute_entry``), and returns the serialized trace document next
    to the result — the parent merges them with
    :func:`suite_trace_document`.  The ``"doc"`` payload is exactly what
    the untraced path returns, so cached results and suite documents
    stay byte-identical with tracing on or off.
    """
    from repro.obs import Obs

    trace = trace or {}
    obs = Obs(trace_id=trace.get("trace_id"))
    with obs.tracer.span(name, cat="experiment"):
        doc = _execute_entry(name, cfg, monitor, obs)
    return {
        "doc": doc,
        "trace": obs.trace_document(entry=name, os_pid=os.getpid()),
    }


@dataclass
class InvariantSummary:
    """Runtime invariant sweep of one monitored suite entry."""

    machines: int = 0
    checks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "InvariantSummary":
        return cls(
            machines=int(doc.get("machines", 0)),
            checks=int(doc.get("checks", 0)),
            violations=[str(v) for v in doc.get("violations", [])],
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "machines": self.machines,
            "checks": self.checks,
            "violations": list(self.violations),
        }


@dataclass
class SuiteResult:
    """All comparison tables plus the aggregate verdict.

    ``errors`` holds structured pool failures (worker raised, timed out,
    or died and exhausted its retries) keyed by experiment name; a
    failed entry has no table.  ``cache_stats`` is the live counter
    object of the cache used for the run, if any.  ``invariants`` is
    populated only by monitored runs (``run_suite(monitor=True)``); a
    violation fails the suite exactly like a mismatching table.
    """

    config: ExperimentConfig
    tables: dict[str, ComparisonTable] = field(default_factory=dict)
    errors: dict[str, TaskFailure] = field(default_factory=dict)
    cache_stats: "CacheStats | None" = None
    invariants: dict[str, InvariantSummary] = field(default_factory=dict)
    #: The obs bundle the run was instrumented with, if any.  Never
    #: serialized: :func:`suite_to_dict` depends only on experiment
    #: outputs, so traced and untraced runs stay byte-identical.
    obs: Any = None
    #: ``repro.obs/trace`` documents shipped back by pool workers of a
    #: traced parallel run (one per executed entry), in completion
    #: order.  Merged with the parent timeline by
    #: :func:`suite_trace_document`; never serialized into the suite
    #: document.
    worker_traces: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return (
            not self.errors
            and all(t.all_ok for t in self.tables.values())
            and all(inv.ok for inv in self.invariants.values())
        )

    def failures(self) -> dict[str, list]:
        return {
            name: t.failures() for name, t in self.tables.items() if not t.all_ok
        }

    def render(self) -> str:
        parts = [t.render() for t in self.tables.values()]
        for name, failure in self.errors.items():
            parts.append(
                f"== {name} ==\nFAILED ({failure.kind} after "
                f"{failure.attempts} attempt(s)): {failure.message}"
            )
        if self.invariants:
            checks = sum(inv.checks for inv in self.invariants.values())
            bad = {n: inv for n, inv in self.invariants.items() if not inv.ok}
            lines = [f"invariant sweep: {checks} check(s) across "
                     f"{len(self.invariants)} entr(ies), "
                     f"{len(bad)} with violations"]
            for name, inv in sorted(bad.items()):
                for violation in inv.violations:
                    lines.append(f"  {name}: {violation}")
            parts.append("\n".join(lines))
        if self.cache_stats is not None:
            parts.append(self.cache_stats.render())
        return "\n\n".join(parts)


def _resolve_names(only: list[str] | None) -> list[str]:
    """Validate the ``only`` filter: known entries, no duplicates."""
    if only is None:
        return list(SUITE)
    names = list(only)
    unknown = set(names) - set(SUITE)
    if unknown:
        raise KeyError(f"unknown suite entries: {sorted(unknown)}")  # EXC001: dict-like lookup
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise SuiteError(
            f"duplicate suite entries in only=: {dupes} — tables are keyed "
            "by name, so a repeated entry would silently collapse into one "
            "result; list each experiment once"
        )
    return names


def run_suite(
    config: ExperimentConfig | None = None,
    only: list[str] | None = None,
    *,
    parallel: int = 1,
    cache: "ResultCache | None" = None,
    timeout_s: float | None = None,
    retries: int = 1,
    monitor: bool = False,
    obs=None,
) -> SuiteResult:
    """Execute the (optionally filtered) suite.

    ``parallel=N`` runs cache-miss entries across ``N`` worker processes
    (serial in-process execution remains the default); ``cache`` re-uses
    results of identical (experiment, config, code) combinations.  In
    parallel mode a misbehaving worker is retried up to ``retries``
    times and then reported in :attr:`SuiteResult.errors` instead of
    crashing the suite; in serial mode exceptions propagate unchanged.

    ``monitor=True`` attaches the runtime
    :class:`~repro.lint.monitor.InvariantMonitor` to every machine each
    entry builds and records the sweep in :attr:`SuiteResult.invariants`
    (violations fail :attr:`SuiteResult.all_ok`).  Monitored runs bypass
    the cache entirely — a cached table proves nothing about invariants
    — and cost the sweep's overhead, so monitoring is strictly opt-in.

    ``obs`` (a :class:`repro.obs.Obs`) traces and meters the run: a
    ``suite`` span wraps per-experiment spans, every machine built by a
    serial entry is instrumented down to simulator dispatch, and the
    result cache mirrors its counters into the registry.  In parallel
    mode only the parent side (pool phases, per-task windows, cache) is
    observed — the obs bundle never crosses a process boundary.  The
    serialized suite document is independent of ``obs``.
    """
    cfg = config or ExperimentConfig(scale=0.02)
    names = _resolve_names(only)
    if parallel < 1:
        raise SuiteError(f"parallel must be >= 1, got {parallel}")
    result = SuiteResult(config=cfg)
    if monitor:
        cache = None
    if obs is not None:
        from repro.obs import effective_obs, mint_trace_id

        obs = effective_obs(obs)
        result.obs = obs
        if obs is not None and obs.tracer.trace_id is None:
            # Content-derived, so identical runs mint identical ids.
            obs.tracer.trace_id = mint_trace_id(
                "suite", cfg.seed, cfg.scale, cfg.sku, *names
            )
    if obs is not None and cache is not None:
        cache.attach_obs(obs)

    suite_span = (
        obs.tracer.span(
            "suite",
            cat="suite",
            entries=len(names),
            seed=cfg.seed,
            scale=cfg.scale,
            parallel=parallel,
            monitor=monitor,
        )
        if obs is not None
        else nullcontext()
    )
    with suite_span:
        docs: dict[str, dict[str, Any]] = {}
        keys: dict[str, str] = {}
        to_run: list[str] = []
        if cache is not None:
            from repro.cache import cache_key

            result.cache_stats = cache.stats
            for name in names:
                keys[name] = cache_key(name, cfg)
                doc = cache.get(keys[name])
                if doc is not None:
                    docs[name] = doc
                else:
                    to_run.append(name)
        else:
            to_run = list(names)

        if parallel > 1 and len(to_run) > 1:
            if obs is not None:
                # Traced fan-out: each worker runs its own tracer over
                # the real experiment and ships the serialized trace
                # back next to the result document.
                trace_ctx = {"trace_id": obs.tracer.trace_id}
                tasks = [
                    Task(
                        name=name,
                        fn=_execute_entry_traced,
                        args=(name, cfg, monitor, trace_ctx),
                    )
                    for name in to_run
                ]
            else:
                tasks = [
                    Task(
                        name=name, fn=_execute_entry, args=(name, cfg, monitor)
                    )
                    for name in to_run
                ]
            outcomes = run_tasks(
                tasks, jobs=parallel, timeout_s=timeout_s, retries=retries,
                obs=obs,
            )
            for outcome in outcomes:
                if not outcome.ok:
                    result.errors[outcome.name] = outcome.failure
                elif obs is not None:
                    docs[outcome.name] = outcome.value["doc"]
                    result.worker_traces.append(outcome.value["trace"])
                else:
                    docs[outcome.name] = outcome.value
        else:
            for name in to_run:
                if obs is not None:
                    with obs.tracer.span(name, cat="experiment"):
                        docs[name] = _execute_entry(name, cfg, monitor, obs)
                else:
                    docs[name] = _execute_entry(name, cfg, monitor)

        for name in names:
            if name not in docs:
                continue
            doc = docs[name]
            if monitor:
                result.tables[name] = table_from_dict(doc["table"])
                result.invariants[name] = InvariantSummary.from_dict(
                    doc["invariants"]
                )
            else:
                result.tables[name] = table_from_dict(doc)
                if cache is not None and name in to_run:
                    cache.put(keys[name], doc)

    if obs is not None:
        help_entries = "Suite entries by result source"
        executed = sum(1 for n in to_run if n in docs)
        obs.metrics.counter(
            "suite.entries", help_entries, "entries", source="executed"
        ).inc(executed)
        obs.metrics.counter(
            "suite.entries", help_entries, "entries", source="cached"
        ).inc(len(docs) - executed)
        obs.metrics.counter(
            "suite.entries", help_entries, "entries", source="failed"
        ).inc(len(result.errors))
    return result


def suite_to_dict(result: SuiteResult) -> dict[str, Any]:
    """The JSON document for regression tracking.

    The document depends only on the experiment outputs — never on the
    execution mode — so serial, parallel, and cached runs of one
    configuration serialize byte-identically.  Structured pool failures
    add a ``"failures"`` key only when present.
    """
    doc: dict[str, Any] = {
        "seed": int(result.config.seed),
        "scale": float(result.config.scale),
        "sku": str(result.config.sku),
        "all_ok": bool(result.all_ok),
        "experiments": {
            name: table_to_dict(table) for name, table in result.tables.items()
        },
    }
    if result.errors:
        doc["failures"] = {
            name: failure.as_dict() for name, failure in result.errors.items()
        }
    if result.invariants:
        # Present only on monitored runs, so unmonitored documents stay
        # byte-identical to every previously recorded golden snapshot.
        doc["invariants"] = {
            name: inv.as_dict() for name, inv in result.invariants.items()
        }
    return doc


def suite_trace_document(result: SuiteResult, **other_data: Any) -> dict[str, Any]:
    """The merged end-to-end timeline of a traced run.

    Stitches the parent tracer's document (suite span, pool phases,
    per-task lanes, cache events) together with every worker-shipped
    trace from :attr:`SuiteResult.worker_traces` into one pid-remapped
    ``repro.obs/trace`` document — process names are labelled ``suite``
    and per-entry (``fig7_idle_power:host``, ...), and the shared
    ``trace_id`` survives the merge.  Serial traced runs merge trivially
    (one input document), so callers get one output shape either way.
    """
    if result.obs is None:
        raise SuiteError(
            "suite_trace_document needs a traced run — pass obs= to "
            "run_suite"
        )
    from repro.obs import merge_trace_documents

    docs = [result.obs.trace_document()]
    labels: list[str | None] = ["suite"]
    for i, doc in enumerate(result.worker_traces):
        entry = (doc.get("otherData") or {}).get("entry")
        labels.append(str(entry) if entry else f"worker{i}")
        docs.append(doc)
    merged = merge_trace_documents(docs, labels=labels)
    merged["otherData"].update(other_data)
    return merged
