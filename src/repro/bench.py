# lint: disable-file=DET001 — this module measures host execution time
# of the dispatch loop; timings flow only into the printed verdict, never
# into simulated state (the timed loop itself stays deterministic).
"""``python -m repro.bench`` — the ≤2% overhead guard on event dispatch.

Instruments must not distort what they measure.  This module holds the
two instruments present on the simulator's hottest loop to that rule: an
attached but *disabled* :class:`repro.obs.Obs` bundle, and the crash
flight recorder's ring feed.  Each candidate is timed against bare
``Simulator.run_until`` dispatch in interleaved rounds (bare, then
candidate, back to back), so slow drift in host clock frequency or cache
state cancels out of the per-round throughput ratio.  The verdict is the
median ratio over :data:`ROUNDS` rounds, and the run exits 1 when either
candidate keeps less than ``1 - BUDGET`` of bare throughput.

``benchmarks/e2e`` is the ledger of the simulator's speed; this module
only guards the budget.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from typing import Callable

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator

#: An instrumented dispatch path may cost at most this fraction of bare
#: dispatch throughput (docs/observability.md).
BUDGET = 0.02
#: Interleaved bare/candidate rounds per candidate.
ROUNDS = 5
#: Events fired by one timed run.
N_EVENTS = 150_000
#: Concurrent reschedule chains: ~256 resident events is the regime of a
#: loaded machine (SMU slots, RAPL samplers, in-flight transitions).
CHAINS = 256
PERIOD_NS = 1_000

BASELINE = "sim.dispatch"
#: Guarded candidates and the label each verdict line carries.
CANDIDATES = {
    "obs.overhead_disabled": "obs disabled-path guard",
    "obs.flightrec_overhead": "flight-recorder feed guard",
}


def dispatch_kernel(variant: str, n_events: int) -> Callable[[], int]:
    """``run()`` for :data:`BASELINE` or a :data:`CANDIDATES` variant of
    the dispatch loop; it returns the number of events fired."""
    if variant != BASELINE and variant not in CANDIDATES:
        raise ConfigurationError(f"unknown dispatch variant {variant!r}")

    def run() -> int:
        if variant == "obs.overhead_disabled":
            from repro.obs import Obs

            # effective_obs collapses a disabled bundle to None at attach
            # time, so this must time like bare dispatch.
            sim = Simulator(obs=Obs(enabled=False))
        else:
            sim = Simulator()
        fired = [0]

        def cb() -> None:  # lint: hot (per-event dispatch callback)
            fired[0] += 1
            if fired[0] <= n_events - CHAINS:
                sim.schedule_after(PERIOD_NS, cb)

        first = cb
        if variant == "obs.flightrec_overhead":
            # One chain records a breadcrumb per firing (far denser than
            # the real cold-boundary breadcrumbs); the others run `cb`
            # unmodified, so only the ring append itself is timed.
            from repro.obs.flightrec import recorder

            rec = recorder()

            def first() -> None:  # lint: hot (per-event dispatch callback)
                fired[0] += 1
                rec.note("bench.tick")
                if fired[0] <= n_events - CHAINS:
                    sim.schedule_after(PERIOD_NS, first)

        sim.schedule_after(1, first)
        for i in range(1, CHAINS):
            sim.schedule_after(i + 1, cb)
        sim.run_until((n_events // CHAINS + 2) * PERIOD_NS + CHAINS)
        return fired[0]

    return run


def run_overhead_guard(
    candidate: str,
    *,
    rounds: int,
    budget: float,
    n_events: int,
) -> dict:
    """Time ``candidate`` against bare dispatch; return the verdict
    (per-round throughput ratios, their median, and whether it passed)."""
    if candidate not in CANDIDATES:
        raise ConfigurationError(f"unknown guard candidate {candidate!r}")
    if rounds < 1:
        raise ConfigurationError(f"guard rounds must be >= 1, got {rounds}")
    pair = [dispatch_kernel(v, n_events) for v in (BASELINE, candidate)]
    for run in pair:
        run()  # one untimed warmup each
    ratios: list[float] = []
    for i in range(rounds):
        throughput = []
        for run in pair:
            t0_ns = time.perf_counter_ns()
            ops = run()
            elapsed_s = (time.perf_counter_ns() - t0_ns) / 1e9
            throughput.append(ops / max(elapsed_s, 1e-9))
        ratios.append(throughput[1] / throughput[0])
        print(f"guard round {i + 1}/{rounds}: ratio {ratios[-1]:.4f}", file=sys.stderr)
    median_ratio = statistics.median(ratios)
    return {
        "ratios": ratios,
        "median_ratio": median_ratio,
        "ok": median_ratio >= 1.0 - budget,
    }


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Check that the obs-disabled dispatch path and the "
        f"flight-recorder feed each keep >= {1 - BUDGET:.0%} of bare "
        "Simulator.run_until throughput; exit 1 if either does not.",
    ).parse_args(argv)
    status = 0
    for candidate, label in CANDIDATES.items():
        verdict = run_overhead_guard(
            candidate,
            rounds=ROUNDS,
            budget=BUDGET,
            n_events=N_EVENTS,
        )
        print(
            f"{label}: median throughput ratio {verdict['median_ratio']:.4f} "
            f"over {ROUNDS} round(s), budget {BUDGET:.0%} "
            f"-> {'PASS' if verdict['ok'] else 'FAIL'}"
        )
        if not verdict["ok"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
