# lint: disable-file=DET001 — this module is the one place in the tree
# that deliberately reads the wall clock: it *measures* host execution
# time of simulator kernels.  Timings flow only into reported statistics,
# never into simulated state (the kernels themselves stay deterministic).
"""Timing harness: warmup, repetitions, robust statistics.

A :class:`Kernel` is a named benchmark: its ``setup(ctx)`` builds all
fixtures (machines, pre-generated operation sequences) *outside* the
timed region and returns a zero-argument ``run()`` callable that performs
the work and returns the number of operations it completed.  The harness
times each repetition with ``time.perf_counter_ns`` and reports the
median / p10 / p90 over repetitions — the median is robust against a
noisy neighbour inflating one rep, and the p10/p90 spread makes that
noise visible instead of silently averaged away.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BenchContext:
    """Run-wide knobs handed to every kernel's ``setup``."""

    #: Work multiplier: 1.0 is the standard op count of each kernel;
    #: smoke runs scale down, saturation studies scale up.
    scale: float = 1.0
    #: Seed for every stochastic fixture (via :class:`repro.sim.rng.RngFactory`).
    seed: int = 2021


@dataclass(frozen=True)
class Kernel:
    """A registered microbenchmark."""

    name: str
    description: str
    #: Sample unit: ``"ops/s"``-style throughput (higher is better) or
    #: ``"s"`` latency/wall-clock (lower is better).
    unit: str
    #: ``"higher"`` or ``"lower"`` — which direction is an improvement.
    better: str
    #: ``setup(ctx)`` returns ``run() -> int`` (operations completed).
    setup: Callable[[BenchContext], Callable[[], int]]
    #: ``"quick"`` kernels run in the CI smoke pass; ``"slow"`` ones
    #: (e.g. the end-to-end suite) only in the full run.
    tags: tuple[str, ...] = ("quick",)
    #: Per-kernel repetition override (None = harness default); the
    #: end-to-end suite kernel caps its reps to keep ``make bench`` sane.
    max_reps: int | None = None


@dataclass
class KernelResult:
    """Statistics of one kernel's timed repetitions."""

    name: str
    description: str
    unit: str
    better: str
    warmup: int
    reps: int
    ops_per_rep: int
    samples: list[float] = field(default_factory=list)

    @property
    def median(self) -> float:
        return percentile(self.samples, 50.0)

    @property
    def p10(self) -> float:
        return percentile(self.samples, 10.0)

    @property
    def p90(self) -> float:
        return percentile(self.samples, 90.0)


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method).

    Kept in pure Python so the reported statistics are trivially
    auditable against the raw ``samples`` list in the JSON document.
    """
    if not samples:
        raise ConfigurationError("percentile of an empty sample list")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile {q} outside [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def time_kernel(
    kernel: Kernel,
    ctx: BenchContext,
    *,
    warmup: int,
    reps: int,
) -> KernelResult:
    """Run one kernel: setup, warmup, timed repetitions."""
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    if warmup < 0:
        raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
    if kernel.max_reps is not None:
        reps = min(reps, kernel.max_reps)
    run = kernel.setup(ctx)
    for _ in range(warmup):
        run()
    samples: list[float] = []
    ops_per_rep = 0
    for _ in range(reps):
        t0_ns = time.perf_counter_ns()
        ops = run()
        elapsed_s = (time.perf_counter_ns() - t0_ns) / 1e9
        ops_per_rep = int(ops)
        if kernel.better == "higher":
            # Throughput: guard against a pathological 0-duration clock
            # read resolution by flooring at 1 ns.
            samples.append(ops / max(elapsed_s, 1e-9))
        else:
            samples.append(elapsed_s)
    return KernelResult(
        name=kernel.name,
        description=kernel.description,
        unit=kernel.unit,
        better=kernel.better,
        warmup=warmup,
        reps=reps,
        ops_per_rep=ops_per_rep,
        samples=samples,
    )


def run_kernels(
    kernels: list[Kernel],
    ctx: BenchContext,
    *,
    warmup: int = 2,
    reps: int = 5,
    progress: Callable[[str], None] | None = None,
) -> list[KernelResult]:
    """Time every kernel in order, optionally reporting progress."""
    results = []
    for kernel in kernels:
        if progress is not None:
            progress(f"bench {kernel.name} ...")
        results.append(time_kernel(kernel, ctx, warmup=warmup, reps=reps))
    return results


#: The obs-disabled dispatch path may cost at most this fraction of bare
#: dispatch throughput (docs/observability.md budget).
GUARD_BUDGET = 0.02
GUARD_BASELINE = "sim.dispatch"
GUARD_CANDIDATE = "obs.overhead_disabled"
#: Second guarded candidate: bare dispatch plus the crash flight
#: recorder's ring feed (a breadcrumb every 256th event) — the
#: always-on diagnostics path shares the disabled-obs 2% budget.
GUARD_FLIGHTREC_CANDIDATE = "obs.flightrec_overhead"


def run_overhead_guard(
    ctx: BenchContext,
    *,
    rounds: int = 5,
    budget: float = GUARD_BUDGET,
    candidate: str = GUARD_CANDIDATE,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Interleaved A/B budget check for an instrumented dispatch path.

    Each round times the baseline (bare ``Simulator``) and the candidate
    kernel (default: ``Obs(enabled=False)`` attached, collapsed by
    ``effective_obs``; ``GUARD_FLIGHTREC_CANDIDATE`` checks the flight-
    recorder ring feed instead) back-to-back, so slow drift in host
    clock frequency or cache state cancels out of the per-round
    throughput ratio.  The verdict is the *median* ratio over rounds —
    robust to one noisy neighbour — and the run passes when the
    candidate keeps at least ``1 - budget`` of the baseline's
    throughput.
    """
    from repro.bench.kernels import REGISTRY

    if rounds < 1:
        raise ConfigurationError(f"guard rounds must be >= 1, got {rounds}")
    if candidate not in REGISTRY:
        raise ConfigurationError(f"unknown guard candidate kernel {candidate!r}")
    candidate_name = candidate
    baseline = REGISTRY[GUARD_BASELINE].setup(ctx)
    candidate = REGISTRY[candidate_name].setup(ctx)
    baseline()
    candidate()  # one untimed warmup each
    ratios: list[float] = []
    for i in range(rounds):
        throughput: list[float] = []
        for run in (baseline, candidate):
            t0_ns = time.perf_counter_ns()
            ops = run()
            elapsed_s = (time.perf_counter_ns() - t0_ns) / 1e9
            throughput.append(ops / max(elapsed_s, 1e-9))
        ratios.append(throughput[1] / throughput[0])
        if progress is not None:
            progress(f"guard round {i + 1}/{rounds}: ratio {ratios[-1]:.4f}")
    median_ratio = percentile(ratios, 50.0)
    return {
        "baseline": GUARD_BASELINE,
        "candidate": candidate_name,
        "rounds": rounds,
        "budget": budget,
        "ratios": ratios,
        "median_ratio": median_ratio,
        "ok": median_ratio >= 1.0 - budget,
    }

