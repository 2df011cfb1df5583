"""The multi-tier memoization subsystem (paper §5.4).

Hillview's performance story rests on two *soft* caches:

* the **data cache** holds raw loaded data in memory; entries unused for a
  while (2 hours in the paper) are purged, and are reconstructed from the
  storage layer on demand — all cached state is soft;
* the **computation cache** stores vizketch *results*, which are tiny, so a
  large number can be kept; it is indexed by (dataset, sketch) and only
  holds deterministic computations.

This module provides the one cache implementation behind every tier of the
reproduction:

* :class:`MemoCache` — the shared interface: an LRU cache with a TTL, an
  optional byte budget (entries are sized by an injectable ``sizer``),
  hit/miss/eviction statistics, prefix invalidation (drop every entry of
  one dataset), and an injectable clock so tests and the simulator control
  time.  Caches created with ``disableable=True`` honor the
  ``REPRO_DISABLE_CACHES=1`` environment switch and become pass-through,
  which is how the ``uncached`` mode of ``tests/test_invariant.py`` proves
  cached and uncached paths byte-identical.
* :class:`DataCache` — the worker's soft object store (shards per dataset).
  It is *not* disableable: it holds the data itself, not a memoized
  derivation of it.
* :class:`ComputationCache` — deterministic vizketch results at the root,
  keyed by (dataset id, sketch cache key).

Workers additionally keep a memo cache of *partial* sketch results keyed by
``(dataset id, sketch cache key, shard slice)`` — see
:class:`~repro.engine.cluster.Worker` — so on a shared fleet a sketch
computed for one root is served from the worker cache to every other root.
Both tiers hold a summary as its binary wire form (``summary_to_bytes``)
and count it at that length against their byte budgets.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from math import inf
from typing import Callable, Generic, TypeVar

from repro.core.wire import summary_from_bytes, summary_to_bytes

V = TypeVar("V")

#: Separator between the dataset id and the rest of a cache key.  Every
#: dataset-dependent entry at every tier starts with ``dataset_id + KEY_SEP``
#: so evicting a dataset can invalidate its entries by prefix.
KEY_SEP = "\x00"


def caches_disabled() -> bool:
    """Whether the ``REPRO_DISABLE_CACHES`` switch is on.

    Read per call (not at import) so a test — the invariant suite's
    ``uncached`` mode, say — can flip it without re-importing the engine.  Only *memoization* caches honor it; the workers' shard
    stores are data, not derived results, and stay on.
    """
    return os.environ.get("REPRO_DISABLE_CACHES", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


@dataclass
class CacheStats:
    """One cache's counters, snapshotted for the ``metricsSnapshot`` RPC."""

    name: str
    entries: int
    bytes: int
    hits: int
    misses: int
    evictions: int
    invalidations: int
    max_entries: int
    max_bytes: int | None
    disabled: bool

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 for a never-probed cache."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "entries": self.entries,
            "bytes": self.bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hitRate": round(self.hit_rate, 4),
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "maxEntries": self.max_entries,
            "maxBytes": self.max_bytes,
            "disabled": self.disabled,
        }


class MemoCache(Generic[V]):
    """An LRU cache with a TTL, a byte budget, and statistics.

    The single implementation behind every cache tier: the worker shard
    store, the worker partial-sketch memo and the root computation cache
    are all instances with different budgets.

    ``clock`` is injectable so tests (and the simulator) can control time.
    ``sizer`` maps a value to its accounted size in bytes; entries are
    evicted LRU-first while the total exceeds ``max_bytes``.
    ``disableable=True`` makes the cache honor :func:`caches_disabled`:
    every ``get`` misses and every ``put`` is dropped, turning the cache
    into a pass-through without changing any caller.
    """

    def __init__(
        self,
        max_entries: int = 64,
        ttl_seconds: float = inf,
        clock: Callable[[], float] = time.monotonic,
        max_bytes: int | None = None,
        sizer: Callable[[V], int] | None = None,
        name: str = "cache",
        disableable: bool = False,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbudgeted)")
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_seconds = ttl_seconds
        self.disableable = disableable
        self._clock = clock
        self._sizer = sizer
        self._lock = threading.Lock()
        #: key -> (stored_at, value, accounted size in bytes)
        self._entries: "dict[str, tuple[float, V, int]]" = {}
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- internals (lock held) ------------------------------------------
    def _disabled(self) -> bool:
        return self.disableable and caches_disabled()

    def _size_of(self, value: V) -> int:
        if self._sizer is None:
            return 0
        try:
            return max(0, int(self._sizer(value)))
        except Exception:  # repro: ignore[B001] — sizing must never fail a put
            return 0

    def _drop(self, key: str) -> None:
        _, _, size = self._entries.pop(key)
        # repro: ignore[C001] — private helper; every caller (get/put/invalidate/sweep) holds self._lock
        self.current_bytes -= size

    def _expired(self, stored_at: float, now: float) -> bool:
        return now - stored_at > self.ttl_seconds

    def _shrink_to_budget(self) -> None:
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None
            and self.current_bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            oldest = next(iter(self._entries))
            self._drop(oldest)
            # repro: ignore[C001] — private helper; every caller (put/sweep) holds self._lock
            self.evictions += 1

    # -- the cache interface --------------------------------------------
    def get(self, key: str) -> V | None:
        with self._lock:
            if self._disabled():
                self.misses += 1
                return None
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            stored_at, value, size = entry
            now = self._clock()
            if self._expired(stored_at, now):
                self._drop(key)
                self.evictions += 1
                self.misses += 1
                return None
            # Move to the MRU end (dicts preserve insertion order) and
            # refresh the stamp: the TTL is time since last *use* (§5.4,
            # "not accessed for 2 hours"), so the periodic sweep never
            # purges an entry that is actively serving queries.
            del self._entries[key]
            self._entries[key] = (now, value, size)
            self.hits += 1
            return value

    def put(self, key: str, value: V) -> None:
        with self._lock:
            if self._disabled():
                return
            if key in self._entries:
                self._drop(key)
            size = self._size_of(value)
            self._entries[key] = (self._clock(), value, size)
            self.current_bytes += size
            self._shrink_to_budget()

    def evict(self, key: str) -> bool:
        """Remove one entry (fault injection / memory pressure)."""
        with self._lock:
            if key in self._entries:
                self._drop(key)
                self.evictions += 1
                return True
            return False

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop every entry whose key starts with ``prefix``.

        This is how evicting a dataset invalidates its dependent entries:
        every dataset-derived key starts with ``dataset_id + KEY_SEP``.
        Returns how many entries were dropped.
        """
        with self._lock:
            stale = [key for key in self._entries if key.startswith(prefix)]
            for key in stale:
                self._drop(key)
            self.invalidations += len(stale)
            return len(stale)

    def purge_stale(self) -> int:
        """Drop entries older than the TTL; returns how many were dropped."""
        now = self._clock()
        with self._lock:
            stale = [
                key
                for key, (stored_at, _, _) in self._entries.items()
                if self._expired(stored_at, now)
            ]
            for key in stale:
                self._drop(key)
            self.evictions += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def keys(self) -> list[str]:
        """Live (non-expired) keys, LRU-first; takes the lock.

        Used by fleet rebalancing to inventory a worker's resident
        datasets without disturbing recency or hit/miss counters.
        """
        now = self._clock()
        with self._lock:
            return [
                key
                for key, (stored_at, _, _) in self._entries.items()
                if not self._expired(stored_at, now)
            ]

    def peek(self, key: str) -> V | None:
        """Read an entry without touching it: no MRU move, no TTL
        refresh, no hit/miss accounting.  Inventory and monitoring paths
        use this so polling ``fleet status`` can never keep a dead
        dataset alive past the §5.4 idle TTL (or inflate hit rates)."""
        now = self._clock()
        with self._lock:
            if self._disabled():
                return None
            entry = self._entries.get(key)
            if entry is None or self._expired(entry[0], now):
                return None
            return entry[1]

    def stats(self) -> CacheStats:
        with self._lock:
            now = self._clock()
            live = live_bytes = 0
            for stored_at, _, size in self._entries.values():
                if not self._expired(stored_at, now):
                    live += 1
                    live_bytes += size
            return CacheStats(
                name=self.name,
                entries=live,
                bytes=live_bytes,
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
                max_entries=self.max_entries,
                max_bytes=self.max_bytes,
                disabled=self._disabled(),
            )

    def __len__(self) -> int:
        """Live (non-expired) entry count; takes the lock."""
        now = self._clock()
        with self._lock:
            return sum(
                1
                for stored_at, _, _ in self._entries.values()
                if not self._expired(stored_at, now)
            )

    def __contains__(self, key: str) -> bool:
        """TTL-aware membership; takes the lock and never reports an
        expired entry as present (it is unreachable through ``get``)."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and not self._expired(entry[0], now)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name} entries={len(self._entries)} "
            f"bytes={self.current_bytes} hits={self.hits} misses={self.misses}>"
        )


class DataCache(MemoCache[V]):
    """The worker's soft object store: an LRU cache with a time-to-live.

    Not disableable — it holds the data itself (this worker's shards per
    dataset), so turning it off would change what the system *is*, not
    just what it memoizes.  Entries unused past the TTL are purged (the
    paper's "unused for 2 hours" behavior) and rebuilt by lineage replay.
    """

    def __init__(
        self,
        max_entries: int = 64,
        ttl_seconds: float = 2 * 3600.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "data",
        sizer: Callable[[V], int] | None = None,
        max_bytes: int | None = None,
    ):
        super().__init__(
            max_entries=max_entries,
            ttl_seconds=ttl_seconds,
            clock=clock,
            max_bytes=max_bytes,
            sizer=sizer,
            name=name,
            disableable=False,
        )


class ComputationCache:
    """Cache of deterministic vizketch results, keyed by (dataset, sketch).

    Results are small by construction (§4.2), so the default capacity is
    generous; the byte budget is real nonetheless (eviction is LRU).
    :meth:`put` encodes a result, and every :meth:`get` decodes a fresh
    one.  Statistics feed the cache ablation benchmark and the root's
    ``metricsSnapshot`` RPC.  Honors ``REPRO_DISABLE_CACHES``.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        max_bytes: int | None = 64 * 1024 * 1024,
        name: str = "computation",
    ):
        self._cache: MemoCache[bytes] = MemoCache(
            max_entries=max_entries,
            max_bytes=max_bytes,
            ttl_seconds=inf,
            sizer=len,
            name=name,
            disableable=True,
        )

    @staticmethod
    def key(dataset_id: str, sketch_key: str) -> str:
        return f"{dataset_id}{KEY_SEP}{sketch_key}"

    def get(self, dataset_id: str, sketch_key: str) -> object | None:
        blob = self._cache.get(self.key(dataset_id, sketch_key))
        return None if blob is None else summary_from_bytes(blob)

    def put(self, dataset_id: str, sketch_key: str, summary: object) -> None:
        self._cache.put(self.key(dataset_id, sketch_key), summary_to_bytes(summary))

    def invalidate_dataset(self, dataset_id: str) -> int:
        """Drop every cached result computed over ``dataset_id``."""
        return self._cache.invalidate_prefix(dataset_id + KEY_SEP)

    def purge_stale(self) -> int:
        return self._cache.purge_stale()

    def stats(self) -> CacheStats:
        return self._cache.stats()

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def current_bytes(self) -> int:
        return self._cache.current_bytes

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
