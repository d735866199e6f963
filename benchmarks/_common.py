"""Shared helpers for the artifact scripts (``benchmarks/bench_*.py``).

Every script regenerates one paper artifact (table or figure), prints the
paper-vs-measured rows, asserts the acceptance bands, and archives the
rendered table under ``benchmarks/results/``.  Run with::

    PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/e2e

Use ``-s`` to see the tables inline; they are always written to the
results directory regardless.
"""

from __future__ import annotations

import os

from repro.cache import ResultCache
from repro.core import ExperimentConfig
from repro.core.report import ComparisonTable

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Benches run bigger than the integration tests but far below the
#: paper's (often 100k-sample) counts; override with REPRO_BENCH_SCALE=1.0
#: for a full-scale run.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2021"))

#: Worker processes for the suite bench (1 = serial in-process); the
#: structured runner guarantees byte-identical output either way.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "4"))


def bench_cache() -> ResultCache | None:
    """The result cache for suite benches.

    Enabled by default (rooted at ``REPRO_CACHE_DIR`` or
    ``~/.cache/repro-zen2``) so repeated bench invocations of identical
    configurations re-use prior results; ``REPRO_BENCH_NO_CACHE=1``
    forces cold recomputation.
    """
    if os.environ.get("REPRO_BENCH_NO_CACHE"):
        return None
    return ResultCache()


def bench_config(**overrides) -> ExperimentConfig:
    """The standard bench configuration."""
    params = dict(seed=BENCH_SEED, scale=BENCH_SCALE)
    params.update(overrides)
    return ExperimentConfig(**params)


def publish(name: str, text: str) -> None:
    """Print a rendered artifact and archive it."""
    print(f"\n{text}\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")


def check(table: ComparisonTable) -> None:
    """Assert the acceptance bands of a comparison table."""
    assert table.all_ok, "acceptance failures:\n" + table.render()
