"""The content-addressed result cache: keys, store, LRU, stats."""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import time

import pytest

from repro.cache import (
    CacheStats,
    ResultCache,
    cache_key,
    config_fingerprint,
    default_cache_dir,
    source_digest,
)
from repro.cache.store import TMP_SWEEP_AGE_S
from repro.core.experiment import ExperimentConfig
from repro.errors import CacheError


def _stress_put(root: str, worker_id: int, count: int) -> None:
    """One stress-test writer process: ``count`` distinct puts."""
    cache = ResultCache(root, max_bytes=1 << 30)
    for i in range(count):
        key = f"{worker_id:02d}{i:04d}".ljust(64, "0")
        cache.put(key, {"worker": worker_id, "i": i, "pad": "x" * 64})


class TestCacheKey:
    def test_stable_for_identical_inputs(self):
        cfg = ExperimentConfig(seed=1, scale=0.02)
        assert cache_key("fig3", cfg) == cache_key("fig3", cfg)

    def test_sensitive_to_every_ingredient(self):
        cfg = ExperimentConfig(seed=1, scale=0.02)
        base = cache_key("fig3", cfg, version="1.0", source="s")
        assert base != cache_key("fig5", cfg, version="1.0", source="s")
        assert base != cache_key(
            "fig3", ExperimentConfig(seed=2, scale=0.02), version="1.0", source="s"
        )
        assert base != cache_key(
            "fig3", ExperimentConfig(seed=1, scale=0.04), version="1.0", source="s"
        )
        assert base != cache_key(
            "fig3", ExperimentConfig(seed=1, scale=0.02, sku="EPYC 7302"),
            version="1.0", source="s",
        )
        assert base != cache_key("fig3", cfg, version="2.0", source="s")
        assert base != cache_key("fig3", cfg, version="1.0", source="t")

    def test_fingerprint_covers_all_config_fields(self):
        fp = config_fingerprint(ExperimentConfig(seed=7))
        assert set(fp) == {"seed", "scale", "interval_s", "sku", "n_packages"}

    def test_fingerprint_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            config_fingerprint(object())

    def test_source_digest_is_memoized_and_hexlike(self):
        digest = source_digest()
        assert digest == source_digest()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestDefaultDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_dir() == str(tmp_path / "x")
        cache = ResultCache()
        assert cache.root == str(tmp_path / "x")

    def test_falls_back_to_user_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert default_cache_dir().endswith(os.path.join(".cache", "repro-zen2"))


class TestStore:
    def test_round_trip_and_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        doc = {"experiment": "fig3", "values": [1.5, 2.5]}
        cache.put(key, doc)
        assert cache.get(key) == doc
        assert cache.contains(key)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        assert stats.get_s >= 0.0 and stats.put_s >= 0.0
        assert "1 hit / 1 miss" in stats.render()

    def test_writes_are_atomic_no_temp_residue(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        for i in range(5):
            cache.put(f"{i:02d}" + "0" * 62, {"i": i})
        assert glob.glob(str(tmp_path / "c" / "**" / "*.tmp.*"), recursive=True) == []

    def test_corrupt_object_degrades_to_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "cd" + "0" * 62
        cache.put(key, {"ok": True})
        with open(cache._object_path(key), "w") as fh:
            fh.write("{not json")
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        # the stale index entry is dropped, so accounting stays truthful
        assert key not in cache.keys()

    def test_deeply_nested_object_degrades_to_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "cd" + "1" * 62
        cache.put(key, {"ok": True})
        with open(cache._object_path(key), "w") as fh:
            fh.write("[" * 100_000 + "]" * 100_000)
        assert cache.get(key) is None
        assert key not in cache.keys()

    @pytest.mark.parametrize(
        "index",
        ["[]", '{"seq": 3, "entries": []}', "[" * 100_000 + "]" * 100_000],
        ids=["list", "entries-list", "deep"],
    )
    def test_misshapen_index_reads_as_empty(self, tmp_path, index):
        cache = ResultCache(str(tmp_path / "c"))
        old, new = "ef" + "0" * 62, "ab" + "2" * 62
        cache.put(old, {"ok": True})
        with open(cache._index_path, "w") as fh:
            fh.write(index)
        assert cache.keys() == []
        assert cache.get(old) == {"ok": True}  # a hit re-adopts the object
        cache.put(new, {"x": 1})
        assert cache.keys() == [old, new]

    def test_lru_eviction_prefers_least_recently_used(self, tmp_path):
        def doc(tag: str) -> dict:
            return {"tag": tag, "pad": "x" * 100}

        size = len(json.dumps(doc("a"), sort_keys=True, indent=2)) + 1
        cache = ResultCache(str(tmp_path / "c"), max_bytes=2 * size)
        key_a, key_b, key_c = ("aa" + "0" * 62, "bb" + "0" * 62, "cc" + "0" * 62)
        cache.put(key_a, doc("a"))
        cache.put(key_b, doc("b"))
        assert cache.get(key_a) is not None  # refresh a: b is now LRU
        cache.put(key_c, doc("c"))
        assert cache.stats.evictions == 1
        assert not cache.contains(key_b)
        assert cache.contains(key_a) and cache.contains(key_c)
        assert cache.size_bytes() <= 2 * size

    def test_clear_empties_the_store(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "ef" + "0" * 62
        cache.put(key, {"x": 1})
        cache.clear()
        assert not cache.contains(key)
        assert cache.keys() == []
        assert cache.size_bytes() == 0

    def test_bad_max_bytes_rejected(self, tmp_path):
        with pytest.raises(CacheError):
            ResultCache(str(tmp_path / "c"), max_bytes=0)

    def test_index_survives_reopen(self, tmp_path):
        root = str(tmp_path / "c")
        key = "ab" + "1" * 62
        ResultCache(root).put(key, {"x": 2})
        reopened = ResultCache(root)
        assert reopened.get(key) == {"x": 2}
        assert reopened.keys() == [key]

    def test_crash_mid_store_orphan_swept_by_eviction(self, tmp_path):
        """A crashed writer's stale ``*.tmp.<pid>`` file is removed by the
        next eviction sweep — the exact promise of the module docstring."""
        cache = ResultCache(str(tmp_path / "c"), max_bytes=400)
        key = "ab" + "0" * 62
        # Simulate a writer that died between open() and os.replace().
        orphan = cache._object_path(key) + ".tmp.99999"
        os.makedirs(os.path.dirname(orphan), exist_ok=True)
        with open(orphan, "w") as fh:
            fh.write('{"torn":')
        stale = time.time() - TMP_SWEEP_AGE_S - 60.0  # lint: disable=DET001 (ages a fixture file)
        os.utime(orphan, (stale, stale))
        # A fresh temp file must survive: it may belong to a live writer.
        fresh = cache._object_path("cd" + "0" * 62) + ".tmp.88888"
        os.makedirs(os.path.dirname(fresh), exist_ok=True)
        with open(fresh, "w") as fh:
            fh.write('{"live":')
        for i in range(8):  # exceed max_bytes so eviction actually runs
            cache.put(f"{i:02d}" + "1" * 62, {"i": i, "pad": "x" * 100})
        assert cache.stats.evictions > 0
        assert not os.path.exists(orphan)
        assert os.path.exists(fresh)

    def test_clear_sweeps_stale_tmp(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put("ab" + "0" * 62, {"x": 1})
        orphan = os.path.join(cache.root, "index.json.tmp.77777")
        with open(orphan, "w") as fh:
            fh.write("{")
        stale = time.time() - TMP_SWEEP_AGE_S - 60.0  # lint: disable=DET001 (ages a fixture file)
        os.utime(orphan, (stale, stale))
        cache.clear()
        assert not os.path.exists(orphan)

    def test_concurrent_writers_lose_no_index_entries(self, tmp_path):
        """Lost-update regression: processes sharing one cache root must
        never drop each other's index entries (the unlocked read-modify-
        write race made eviction accounting drift silently)."""
        root = str(tmp_path / "shared")
        n_workers, per_worker = 4, 25
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_stress_put, args=(root, w, per_worker))
            for w in range(n_workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60.0)
            assert p.exitcode == 0
        reopened = ResultCache(root, max_bytes=1 << 30)
        assert len(reopened.keys()) == n_workers * per_worker
        # Every indexed size must match the object actually on disk.
        index = reopened._load_index()
        for key, entry in index.entries.items():
            assert os.path.getsize(reopened._object_path(key)) == entry.size

    def test_stats_as_dict_shape(self):
        doc = CacheStats(hits=3, misses=1).as_dict()
        assert doc["hits"] == 3 and doc["misses"] == 1
        assert doc["hit_rate"] == 0.75
        assert set(doc) == {
            "hits", "misses", "stores", "evictions", "hit_rate", "get_s", "put_s",
        }
