"""The registered benchmark kernels.

Each kernel pins one hot path named in the paper's workflow:

* ``event_queue.*`` — the :class:`repro.sim.events.EventQueue` operation
  mixes that dominate the §V-B timing experiment (hundreds of thousands
  of scheduled events per run), in both stable and shuffle tie-break
  modes, plus the cancel-heavy pattern of repeatedly cancelled C-state
  wakeup timers that used to leak heap entries;
* ``sim.dispatch`` — the ``Simulator.run_until`` dispatch loop
  (schedule-fire-reschedule chains, the shape of SMU slot machinery);
* ``machine.measure.*`` — the §IV 10 s measurement-interval workflow at
  several scales (interval length, package count);
* ``obs.overhead`` — the same dispatch loop with the full
  :mod:`repro.obs` bundle attached, pinning the enabled-path tracing
  cost (docs/observability.md documents the overhead budget);
* ``suite.e2e`` — end-to-end structured suite wall clock.

Kernels are deterministic: operation sequences are pre-generated from
seeded streams in ``setup`` (outside the timed region), and nothing a
kernel simulates depends on host time.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import BenchContext, Kernel
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.sim.rng import RngFactory


def _noop() -> None:
    return None


# ---------------------------------------------------------------------------
# event-queue operation mixes
# ---------------------------------------------------------------------------


def _setup_queue_mixed(ctx: BenchContext, *, shuffle: bool) -> Callable[[], int]:
    n_ops = max(1_000, int(80_000 * ctx.scale))
    rng = RngFactory(ctx.seed).child("bench/event-queue-mix")
    times = [int(t) for t in rng.integers(0, 10_000_000, size=n_ops)]
    # 0-5: push, 6-7: cancel newest, 8-9: pop earliest.
    op_codes = [int(o) for o in rng.integers(0, 10, size=n_ops)]
    factory = RngFactory(ctx.seed)

    def run() -> int:
        tiebreak = factory.child("bench/tiebreak") if shuffle else None
        q = EventQueue(tiebreak_rng=tiebreak)
        live = []
        count = 0
        for t, op in zip(times, op_codes):
            if op < 6 or not live:
                live.append(q.push(t, _noop))
            elif op < 8:
                live.pop().cancel()
            elif q:
                q.pop()
            count += 1
        while q:
            q.pop()
            count += 1
        return count

    return run


def _setup_queue_cancel_churn(ctx: BenchContext) -> Callable[[], int]:
    """The C-state wakeup-timer pattern: schedule, then almost always cancel.

    Seven of every eight scheduled timers are cancelled before they fire
    — the lazy-deletion leak this mix used to accumulate is now bounded
    by threshold compaction (see ``tests/unit/test_sim_events.py``).
    """
    n_timers = max(1_000, int(60_000 * ctx.scale))

    def run() -> int:
        q = EventQueue()
        count = 0
        for i in range(n_timers):
            event = q.push(i * 1_000, _noop)
            count += 1
            if i % 8 != 0:
                event.cancel()
                count += 1
            if i % 64 == 63:
                # Periodically drain everything due so far, like a
                # simulator slot boundary passing over the grid.
                while q.peek_time() is not None and q.peek_time() <= i * 1_000:
                    q.pop()
                    count += 1
        while q:
            q.pop()
            count += 1
        return count

    return run


# ---------------------------------------------------------------------------
# simulator dispatch loop
# ---------------------------------------------------------------------------


def _setup_sim_dispatch(
    ctx: BenchContext, *, obs_mode: str = "none"
) -> Callable[[], int]:
    n_events = max(2_000, int(150_000 * ctx.scale))
    # 256 concurrent reschedule chains keep ~256 events resident — the
    # regime a loaded machine runs in (per-die SMU slots, RAPL samplers,
    # in-flight transitions), where heap-sift comparison cost shows up.
    chains = 256
    period_ns = 1_000

    def run() -> int:
        if obs_mode in ("none", "flightrec"):
            sim = Simulator()
        else:
            from repro.obs import Obs

            # "disabled" attaches an Obs(enabled=False): effective_obs
            # collapses it to None, so this must time like bare dispatch.
            sim = Simulator(obs=Obs(enabled=obs_mode == "full"))
        fired = [0]

        def cb() -> None:  # lint: hot (per-event dispatch callback)
            fired[0] += 1
            if fired[0] <= n_events - chains:
                sim.schedule_after(period_ns, cb)

        if obs_mode == "flightrec":
            # Bare dispatch plus the flight-recorder ring feed: one of
            # the 256 chains records a breadcrumb on every firing (one
            # ring event per ~256 dispatches — far denser than the real
            # cold-boundary breadcrumbs), while the other 255 run the
            # unmodified callback.  This times the ring's deque-append
            # cost itself, without polluting every event with a
            # benchmark-only counter check.
            from repro.obs.flightrec import recorder

            rec = recorder()

            def cb_note() -> None:  # lint: hot (per-event dispatch callback)
                fired[0] += 1
                rec.note("bench.tick")
                if fired[0] <= n_events - chains:
                    sim.schedule_after(period_ns, cb_note)

        else:
            cb_note = cb

        sim.schedule_after(1, cb_note)
        for i in range(1, chains):
            sim.schedule_after(i + 1, cb)
        horizon_ns = (n_events // chains + 2) * period_ns + chains
        sim.run_until(horizon_ns)
        return fired[0]

    return run


# ---------------------------------------------------------------------------
# machine measurement workflow
# ---------------------------------------------------------------------------


def _setup_machine_measure(
    ctx: BenchContext, *, duration_s: float, n_packages: int
) -> Callable[[], int]:
    from repro.machine import Machine
    from repro.units import ghz
    from repro.workloads import PAUSE_LOOP

    machine = Machine("EPYC 7502", n_packages=n_packages, seed=ctx.seed)
    machine.os.set_all_frequencies(ghz(2.2))
    machine.os.run(PAUSE_LOOP, [0, 1, 2, 3])

    def run() -> int:
        machine.measure(duration_s)
        return 1

    return run


# ---------------------------------------------------------------------------
# end-to-end suite
# ---------------------------------------------------------------------------


def _setup_suite_e2e(ctx: BenchContext) -> Callable[[], int]:
    from repro.core.experiment import ExperimentConfig
    from repro.core.suite import run_suite

    cfg = ExperimentConfig(seed=ctx.seed, scale=0.02 * min(1.0, ctx.scale))

    def run() -> int:
        run_suite(cfg, parallel=1, cache=None)
        return 1

    return run


REGISTRY: dict[str, Kernel] = {
    kernel.name: kernel
    for kernel in (
        Kernel(
            name="event_queue.mixed",
            description="push/pop/cancel mix (60/20/20), stable tie-break",
            unit="ops/s",
            better="higher",
            setup=lambda ctx: _setup_queue_mixed(ctx, shuffle=False),
        ),
        Kernel(
            name="event_queue.mixed_shuffle",
            description="push/pop/cancel mix, seeded-random tie-break (shuffle mode)",
            unit="ops/s",
            better="higher",
            setup=lambda ctx: _setup_queue_mixed(ctx, shuffle=True),
        ),
        Kernel(
            name="event_queue.cancel_churn",
            description="wakeup-timer churn: 7/8 of scheduled events cancelled",
            unit="ops/s",
            better="higher",
            setup=_setup_queue_cancel_churn,
        ),
        Kernel(
            name="sim.dispatch",
            description="Simulator.run_until dispatch rate (256 reschedule chains)",
            unit="events/s",
            better="higher",
            setup=_setup_sim_dispatch,
        ),
        Kernel(
            name="obs.overhead",
            description="sim.dispatch with full repro.obs instrumentation "
            "attached (counters, gauges, dispatch spans); compare against "
            "sim.dispatch for the enabled-path cost — the disabled path "
            "must stay within 2% of the committed sim.dispatch baseline",
            unit="events/s",
            better="higher",
            setup=lambda ctx: _setup_sim_dispatch(ctx, obs_mode="full"),
        ),
        Kernel(
            name="obs.overhead_disabled",
            description="sim.dispatch with a *disabled* repro.obs bundle "
            "attached; effective_obs collapses it to None at attach time, "
            "so this must match sim.dispatch — the pair backs the "
            "'--guard' overhead budget check (<=2%)",
            unit="events/s",
            better="higher",
            setup=lambda ctx: _setup_sim_dispatch(ctx, obs_mode="disabled"),
        ),
        Kernel(
            name="obs.flightrec_overhead",
            description="sim.dispatch plus the flight-recorder ring "
            "feed (one breadcrumb chain among 256): bounds the "
            "always-on crash ring's cost under the hottest loop — "
            "guarded against sim.dispatch with the same <=2% budget "
            "as the obs disabled path",
            unit="events/s",
            better="higher",
            setup=lambda ctx: _setup_sim_dispatch(ctx, obs_mode="flightrec"),
        ),
        Kernel(
            name="machine.measure.1s",
            description="Machine.measure(1 s) latency, 2 packages",
            unit="s",
            better="lower",
            setup=lambda ctx: _setup_machine_measure(ctx, duration_s=1.0, n_packages=2),
        ),
        Kernel(
            name="machine.measure.10s",
            description="Machine.measure(10 s) latency, 2 packages (the §IV interval)",
            unit="s",
            better="lower",
            setup=lambda ctx: _setup_machine_measure(ctx, duration_s=10.0, n_packages=2),
        ),
        Kernel(
            name="machine.measure.10s_1pkg",
            description="Machine.measure(10 s) latency, single package",
            unit="s",
            better="lower",
            setup=lambda ctx: _setup_machine_measure(ctx, duration_s=10.0, n_packages=1),
        ),
        Kernel(
            name="suite.e2e",
            description="full structured suite, serial, no cache (scale 0.02)",
            unit="s",
            better="lower",
            setup=_setup_suite_e2e,
            tags=("slow",),
            max_reps=2,
        ),
    )
}


def kernel_names() -> list[str]:
    return list(REGISTRY)


def select_kernels(
    only: list[str] | None = None, *, smoke: bool = False
) -> list[Kernel]:
    """Resolve a kernel subset; unknown names raise."""
    if only:
        unknown = [name for name in only if name not in REGISTRY]
        if unknown:
            raise ConfigurationError(
                f"unknown bench kernel(s) {unknown}; available: {kernel_names()}"
            )
        kernels = [REGISTRY[name] for name in only]
    else:
        kernels = list(REGISTRY.values())
    if smoke:
        kernels = [k for k in kernels if "quick" in k.tags]
    return kernels
