"""``repro.bench`` — microbenchmark harness for the simulator hot paths.

The ROADMAP's north star is a system that runs "as fast as the hardware
allows"; this subsystem is what holds that claim accountable.  It keeps a
registry of *timed kernels* — event-queue operation mixes, the
``Simulator.run_until`` dispatch loop, ``Machine.measure()`` latency, the
end-to-end suite wall clock — runs each with warmup and repetitions, and
reports robust statistics (median / p10 / p90) as schema-versioned JSON
under ``benchmarks/results/`` (the ``BENCH_*.json`` trajectory).

Measurement infrastructure must not distort what it measures (Diamond et
al., *What Is the Cost of Energy Monitoring?*): kernels therefore take no
wall-clock reads inside simulated work, pre-generate their operation
sequences outside the timed region, and never let a measured duration
feed back into simulator state — ``repro lint``'s determinism rules run
over this package like any other.

Entry points::

    python -m repro.bench            # full registry
    python -m repro.bench --smoke    # quick subset, 1 rep (CI)
    repro-zen2 bench ...             # same CLI, forwarded
    make bench / make bench-smoke

See ``docs/performance.md`` for the JSON schema and the invariants the
kernels pin down.
"""

from repro.bench.harness import (
    GUARD_BUDGET,
    BenchContext,
    Kernel,
    KernelResult,
    percentile,
    run_kernels,
    run_overhead_guard,
)
from repro.bench.kernels import REGISTRY, kernel_names
from repro.bench.schema import (
    SCHEMA_ID,
    SCHEMA_VERSION,
    document_from_results,
    validate_document,
)

__all__ = [
    "BenchContext",
    "GUARD_BUDGET",
    "Kernel",
    "KernelResult",
    "REGISTRY",
    "SCHEMA_ID",
    "SCHEMA_VERSION",
    "document_from_results",
    "kernel_names",
    "percentile",
    "run_kernels",
    "run_overhead_guard",
    "validate_document",
]
