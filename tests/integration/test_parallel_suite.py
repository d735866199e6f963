"""Parallel-equals-serial and cache-identity properties of the suite.

The determinism contract (docs/parallelism.md): for any configuration,
``run_suite(parallel=N)`` serializes byte-identically to the serial
path, and a warm cache hit returns the exact document the cold run
stored.  Checked over several (seed, scale) points on the fast subset
of the registry so the property sweep stays cheap.
"""

from __future__ import annotations

import time

import pytest

from repro.cache import ResultCache, cache_key
from repro.core.experiment import ExperimentConfig
from repro.core.serialize import document_digest
from repro.core.suite import run_suite, suite_to_dict

#: Registry entries that run in well under a second each at small scale.
FAST = [
    "sec5a_idle_sibling",
    "tab1_mixed_frequencies",
    "fig6_firestarter",
    "fig7_idle_power",
    "fig8_cstate_latency",
    "sec7_rapl_update_rate",
]


@pytest.mark.parametrize(
    "seed,scale", [(0, 0.02), (7, 0.01), (2021, 0.03)]
)
def test_parallel_equals_serial_digest(seed, scale):
    cfg = ExperimentConfig(seed=seed, scale=scale)
    serial = suite_to_dict(run_suite(cfg, only=FAST))
    parallel = suite_to_dict(run_suite(cfg, only=FAST, parallel=4))
    assert document_digest(serial) == document_digest(parallel)
    assert serial == parallel


def test_warm_cache_returns_exact_cached_document(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cfg = ExperimentConfig(seed=5, scale=0.02)
    t0 = time.perf_counter()  # lint: disable=DET001 (test measures host wall-clock speedup)
    cold = suite_to_dict(run_suite(cfg, only=FAST, cache=cache))
    t_cold = time.perf_counter() - t0  # lint: disable=DET001 (test measures host wall-clock speedup)
    assert cache.stats.misses == len(FAST)
    assert cache.stats.stores == len(FAST)

    t0 = time.perf_counter()  # lint: disable=DET001 (test measures host wall-clock speedup)
    warm = suite_to_dict(run_suite(cfg, only=FAST, cache=cache))
    t_warm = time.perf_counter() - t0  # lint: disable=DET001 (test measures host wall-clock speedup)
    assert cache.stats.hits == len(FAST)
    assert warm == cold

    # every table in the warm document IS the stored cache object
    for name in FAST:
        assert cache.get(cache_key(name, cfg)) == cold["experiments"][name]

    # acceptance floor is 5x; a full hit run does no simulation at all
    assert t_warm * 5.0 < t_cold, f"warm {t_warm:.3f}s vs cold {t_cold:.3f}s"


def test_parallel_run_populates_and_reuses_cache(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cfg = ExperimentConfig(seed=13, scale=0.02)
    cold = suite_to_dict(run_suite(cfg, only=FAST, parallel=4, cache=cache))
    assert cache.stats.stores == len(FAST)
    warm = suite_to_dict(run_suite(cfg, only=FAST, parallel=4, cache=cache))
    assert cache.stats.hits == len(FAST)
    assert document_digest(warm) == document_digest(cold)
    # and the cached parallel run matches a cache-less serial run
    serial = suite_to_dict(run_suite(cfg, only=FAST))
    assert document_digest(serial) == document_digest(cold)


def test_cache_stats_surface_in_report(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cfg = ExperimentConfig(seed=1, scale=0.02)
    result = run_suite(cfg, only=["sec5a_idle_sibling"], cache=cache)
    assert result.cache_stats is cache.stats
    assert "cache:" in result.render()
