"""Disk-backed result cache with an LRU-evicting index.

Layout under the cache root (default ``~/.cache/repro-zen2``, override
with ``REPRO_CACHE_DIR``)::

    objects/<key[:2]>/<key>.json   one cached JSON document per key
    index.json                     {"seq": int, "entries": {key: {size, seq}}}

Every write lands via a same-directory temp file plus ``os.replace`` so
readers never observe a torn document, and a crashed writer leaves at
worst an orphaned ``*.tmp.<pid>`` file: the next eviction sweep (or
``clear()``) removes any such file older than ``TMP_SWEEP_AGE_S``.  The
age window keeps the sweep from racing a live writer that is mid-store
under a different pid.  The index records a monotonically increasing
access sequence per entry; when the object store exceeds ``max_bytes``
the lowest-sequence (least recently used) entries are evicted first.

Multiple processes may share one cache root (``run_suite`` workers, the
:mod:`repro.service` daemon's thread pool, concurrent CLI runs): every
index read-modify-write happens under an exclusive ``fcntl`` lock on
``index.lock``, so concurrent writers cannot lose each other's entries
— without it, eviction accounting drifts and objects leak past
``max_bytes``.  Object writes themselves need no lock: they are
content-addressed, so two writers racing on one key write identical
bytes.

The cache is an optimization layer, never an oracle: any I/O or decode
problem on the read path degrades to a miss, and the caller recomputes.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None  # type: ignore[assignment]

from repro.errors import CacheError

#: Default size cap for the object store (bytes).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Orphaned ``*.tmp.<pid>`` files older than this are removed by the
#: eviction sweep.  Generous on purpose: a live writer holds its temp
#: file for milliseconds, so an hour-old one is a crashed writer's.
TMP_SWEEP_AGE_S = 3600.0

_ENV_VAR = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-zen2``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(xdg, "repro-zen2")


@dataclass
class CacheStats:
    """Hit/miss/latency counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    get_s: float = 0.0
    put_s: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "stores": int(self.stores),
            "evictions": int(self.evictions),
            "hit_rate": float(self.hit_rate),
            "get_s": float(self.get_s),
            "put_s": float(self.put_s),
        }

    def render(self) -> str:
        return (
            f"cache: {self.hits} hit / {self.misses} miss "
            f"({100 * self.hit_rate:.0f}%), {self.stores} stored, "
            f"{self.evictions} evicted, "
            f"lookup {1e3 * self.get_s:.1f} ms, store {1e3 * self.put_s:.1f} ms"
        )


@dataclass
class _IndexEntry:
    size: int
    seq: int


@dataclass
class _Index:
    seq: int = 0
    entries: dict[str, _IndexEntry] = field(default_factory=dict)


class ResultCache:
    """Content-addressed JSON document store with LRU size capping."""

    def __init__(
        self,
        root: str | None = None,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_bytes <= 0:
            raise CacheError(f"max_bytes must be positive, got {max_bytes}")
        self.root = os.path.abspath(root or default_cache_dir())
        self.max_bytes = int(max_bytes)
        self.stats = CacheStats()
        self._objects_dir = os.path.join(self.root, "objects")
        self._index_path = os.path.join(self.root, "index.json")
        self._lock_path = os.path.join(self.root, "index.lock")
        self._obs = None

    def attach_obs(self, obs) -> None:
        """Mirror :class:`CacheStats` into a :class:`repro.obs.Obs` registry
        as live metrics (hit/miss counters, store/eviction counters,
        get/put latency histograms)."""
        if obs is None:
            return
        metrics = obs.metrics
        help_lookups = "Result-cache lookups by outcome"
        self._obs_hits = metrics.counter(
            "cache.lookups", help_lookups, "lookups", result="hit"
        )
        self._obs_misses = metrics.counter(
            "cache.lookups", help_lookups, "lookups", result="miss"
        )
        self._obs_stores = metrics.counter(
            "cache.stores", "Documents stored in the result cache", "stores"
        )
        self._obs_evictions = metrics.counter(
            "cache.evictions", "Objects evicted by the LRU size cap", "objects"
        )
        self._obs_get_s = metrics.histogram(
            "cache.get_latency_s", "get() wall latency", "s"
        )
        self._obs_put_s = metrics.histogram(
            "cache.put_latency_s", "put() wall latency", "s"
        )
        self._obs = obs

    # --- public API --------------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached document for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's LRU sequence; any unreadable or
        corrupt object degrades to a miss (and drops the stale index
        entry) rather than raising.
        """
        t0 = time.perf_counter()  # lint: disable=DET001 (host-side cache latency accounting)
        try:
            doc = self._read_object(key)
        finally:
            dt = time.perf_counter() - t0  # lint: disable=DET001 (host-side cache latency accounting)
            self.stats.get_s += dt
            if self._obs is not None:
                self._obs_get_s.observe(dt)
        if doc is None:
            self.stats.misses += 1
            if self._obs is not None:
                self._obs_misses.inc()
            return None
        self.stats.hits += 1
        if self._obs is not None:
            self._obs_hits.inc()
        self._touch(key)
        return doc

    def put(self, key: str, doc: dict[str, Any]) -> None:
        """Store ``doc`` under ``key`` atomically and update the index."""
        t0 = time.perf_counter()  # lint: disable=DET001 (host-side cache latency accounting)
        try:
            path = self._object_path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            blob = json.dumps(doc, sort_keys=True, indent=2) + "\n"
            self._atomic_write(path, blob)
            with self._index_update() as index:
                index.seq += 1
                index.entries[key] = _IndexEntry(size=len(blob), seq=index.seq)
                self._evict(index)
            self.stats.stores += 1
            if self._obs is not None:
                self._obs_stores.inc()
        finally:
            dt = time.perf_counter() - t0  # lint: disable=DET001 (host-side cache latency accounting)
            self.stats.put_s += dt
            if self._obs is not None:
                self._obs_put_s.observe(dt)

    def contains(self, key: str) -> bool:
        """Whether ``key`` has a stored object (no stats, no LRU touch)."""
        return os.path.exists(self._object_path(key))

    def size_bytes(self) -> int:
        """Total size of all indexed objects."""
        index = self._load_index()
        return sum(e.size for e in index.entries.values())

    def keys(self) -> list[str]:
        """All indexed keys, least recently used first."""
        index = self._load_index()
        return sorted(index.entries, key=lambda k: index.entries[k].seq)

    def clear(self) -> None:
        """Drop every object and reset the index."""
        with self._index_update() as index:
            for key in list(index.entries):
                self._remove_object(key)
            index.entries.clear()
        self._sweep_orphan_tmp()

    # --- internals ---------------------------------------------------------

    @contextmanager
    def _index_update(self) -> Iterator[_Index]:
        """Load-mutate-save the index under the cross-process lock.

        The index must be (re-)loaded *inside* the critical section:
        loading before the lock would re-introduce the lost-update race
        this lock exists to close.
        """
        with self._index_lock():
            index = self._load_index()
            yield index
            self._save_index(index)

    @contextmanager
    def _index_lock(self) -> Iterator[None]:
        if fcntl is None:  # pragma: no cover - non-POSIX hosts
            yield
            return
        os.makedirs(self.root, exist_ok=True)
        fd = os.open(self._lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the fd releases the flock

    def _object_path(self, key: str) -> str:
        return os.path.join(self._objects_dir, key[:2], f"{key}.json")

    def _read_object(self, key: str) -> dict[str, Any] | None:
        path = self._object_path(key)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError):  # nesting too deep
            self._drop_entry(key)
            return None
        if not isinstance(doc, dict):
            self._drop_entry(key)
            return None
        return doc

    def _atomic_write(self, path: str, blob: str) -> None:
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError as err:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise CacheError(f"cannot write cache object {path}: {err}") from err

    def _touch(self, key: str) -> None:
        with self._index_update() as index:
            entry = index.entries.get(key)
            if entry is None:
                # Object exists but predates the index (or the index was
                # lost): adopt it so eviction accounting stays truthful.
                try:
                    size = os.path.getsize(self._object_path(key))
                except OSError:
                    return
                entry = _IndexEntry(size=size, seq=0)
                index.entries[key] = entry
            index.seq += 1
            entry.seq = index.seq

    def _drop_entry(self, key: str) -> None:
        with self._index_update() as index:
            index.entries.pop(key, None)

    def _remove_object(self, key: str) -> None:
        try:
            os.unlink(self._object_path(key))
        except OSError:
            pass

    def _evict(self, index: _Index) -> None:
        total = sum(e.size for e in index.entries.values())
        if total <= self.max_bytes:
            return
        self._sweep_orphan_tmp()
        for key in sorted(index.entries, key=lambda k: index.entries[k].seq):
            if total <= self.max_bytes or len(index.entries) == 1:
                break
            total -= index.entries[key].size
            del index.entries[key]
            self._remove_object(key)
            self.stats.evictions += 1
            if self._obs is not None:
                self._obs_evictions.inc()

    def _sweep_orphan_tmp(self) -> None:
        """Remove stale ``*.tmp.<pid>`` files a crashed writer left behind.

        Only files older than :data:`TMP_SWEEP_AGE_S` go — a younger one
        may belong to a writer that is mid-``os.replace`` right now.
        """
        cutoff = time.time() - TMP_SWEEP_AGE_S  # lint: disable=DET001 (host-side file-age housekeeping)
        for dirpath, _, filenames in os.walk(self.root):
            for filename in filenames:
                if ".tmp." not in filename:
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    if os.path.getmtime(path) < cutoff:
                        os.unlink(path)
                except OSError:  # pragma: no cover - raced another sweep
                    pass

    def _load_index(self) -> _Index:
        """The index on disk; an unreadable or misshapen one is empty."""
        try:
            with open(self._index_path) as fh:
                raw = json.load(fh)
            entries = raw.get("entries", {}) if isinstance(raw, dict) else None
            if not isinstance(entries, dict):
                return _Index()
            return _Index(
                seq=int(raw.get("seq", 0)),
                entries={
                    str(key): _IndexEntry(size=int(e["size"]), seq=int(e["seq"]))
                    for key, e in entries.items()
                },
            )
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            return _Index()

    def _save_index(self, index: _Index) -> None:
        os.makedirs(self.root, exist_ok=True)
        raw = {
            "seq": index.seq,
            "entries": {
                key: {"size": e.size, "seq": e.seq}
                for key, e in sorted(index.entries.items())
            },
        }
        self._atomic_write(self._index_path, json.dumps(raw, sort_keys=True))
