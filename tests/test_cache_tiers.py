"""The multi-tier memoization subsystem (§5.4).

One cache interface from worker partials to the multi-root tier:

* :class:`MemoCache` semantics — byte budgets, TTL/LRU, stats, prefix
  invalidation, the ``REPRO_DISABLE_CACHES`` pass-through switch, and the
  locking/TTL regression on ``__contains__``/``__len__``;
* the worker tier — memo keys, cancelled runs (the cross-root warm hit
  with zero shard scans, for every spec, is the ``warm_memo`` column of
  ``tests/test_invariant.py``);
* the invalidation invariant — evicting a dataset drops its dependent
  entries at every tier, and recomputation is byte-identical;
* cache-key hygiene — non-deterministic sketches are never cacheable and
  wire round-trips preserve cache keys exactly, for every registered
  sketch type;
* the periodic sweep — the paper's "unused for 2 hours → purged"
  behavior on workers and worker daemons;
* session-store compaction — ``purge_expired`` on both stores and the
  session manager's sweep wiring.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.buckets import DoubleBuckets
from repro.core.serialization import Decoder, Encoder
from repro.data.flights import FlightsSource
from repro.engine.cache import (
    KEY_SEP,
    ComputationCache,
    DataCache,
    MemoCache,
)
from repro.engine.cluster import Cluster, Worker
from repro.core.sketch import Summary
from repro.core.wire import SKETCH_TYPES, SUMMARY_TYPES, summary_to_bytes
from repro.engine.redo_log import LoadOp
from repro.engine.rpc import sketch_from_json, sketch_to_json
from repro.sketches.distinct import DistinctSetSummary, ExactDistinctSketch
from repro.sketches.heatmap import HeatmapSketch
from repro.sketches.histogram import HistogramSketch, HistogramSummary
from repro.storage.loader import TableSource

import repro.service.slow  # noqa: F401 — registers the "slow" sketch type

from tests.test_invariant import SPEC_PER_TYPE

BUCKETS = DoubleBuckets(0, 3000, 10)
SOURCE = FlightsSource(4_000, partitions=8, seed=3)


class _Sized:
    """A value with a fixed serialized size (drives byte budgets)."""

    def __init__(self, size: int):
        self.size = size

    def serialized_size(self) -> int:
        return self.size


# ---------------------------------------------------------------------------
# The shared interface
# ---------------------------------------------------------------------------
class TestMemoCache:
    def test_byte_budget_evicts_lru_first(self):
        cache: MemoCache[_Sized] = MemoCache(
            max_entries=100,
            max_bytes=100,
            sizer=lambda v: v.serialized_size(),
        )
        cache.put("a", _Sized(40))
        cache.put("b", _Sized(40))
        cache.get("a")  # a becomes MRU
        cache.put("c", _Sized(40))  # 120 bytes: b (LRU) must go
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.current_bytes == 80
        assert cache.evictions == 1

    def test_replacing_an_entry_reaccounts_bytes(self):
        cache: MemoCache[_Sized] = MemoCache(
            max_entries=10, max_bytes=1000, sizer=lambda v: v.serialized_size()
        )
        cache.put("a", _Sized(100))
        cache.put("a", _Sized(30))
        assert cache.current_bytes == 30
        assert len(cache) == 1

    def test_invalidate_prefix_drops_only_that_dataset(self):
        cache: MemoCache[int] = MemoCache(max_entries=10)
        cache.put(f"ds-1{KEY_SEP}hist", 1)
        cache.put(f"ds-1{KEY_SEP}moments", 2)
        cache.put(f"ds-2{KEY_SEP}hist", 3)
        assert cache.invalidate_prefix("ds-1" + KEY_SEP) == 2
        assert cache.get(f"ds-1{KEY_SEP}hist") is None
        assert cache.get(f"ds-2{KEY_SEP}hist") == 3
        assert cache.invalidations == 2

    def test_stats_snapshot(self):
        clock = [0.0]
        cache: MemoCache[int] = MemoCache(
            max_entries=10, ttl_seconds=5.0, clock=lambda: clock[0], name="t"
        )
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats.name == "t"
        assert stats.hits == 1 and stats.misses == 1
        assert stats.entries == 1
        clock[0] = 10.0
        assert cache.stats().entries == 0  # expired entries are not live

    def test_disable_switch_is_pass_through(self, monkeypatch):
        cache: MemoCache[int] = MemoCache(max_entries=10, disableable=True)
        always_on: MemoCache[int] = MemoCache(max_entries=10)
        monkeypatch.setenv("REPRO_DISABLE_CACHES", "1")
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        # Non-disableable caches (the worker shard store) keep working.
        always_on.put("a", 1)
        assert always_on.get("a") == 1
        monkeypatch.setenv("REPRO_DISABLE_CACHES", "0")
        cache.put("a", 2)
        assert cache.get("a") == 2


class TestDataCacheRegression:
    """The satellite fix: ``__contains__``/``__len__`` used to read
    ``_entries`` without the lock, and ``__contains__`` reported
    TTL-expired entries as present."""

    def test_contains_applies_ttl(self):
        clock = [0.0]
        cache: DataCache[int] = DataCache(
            max_entries=10, ttl_seconds=5.0, clock=lambda: clock[0]
        )
        cache.put("a", 1)
        assert "a" in cache
        clock[0] = 10.0
        assert "a" not in cache, "expired entry reported as present"
        # ...and it is indeed unreachable through get().
        assert cache.get("a") is None

    def test_len_counts_live_entries_only(self):
        clock = [0.0]
        cache: DataCache[int] = DataCache(
            max_entries=10, ttl_seconds=5.0, clock=lambda: clock[0]
        )
        cache.put("a", 1)
        cache.put("b", 2)
        clock[0] = 3.0
        cache.put("c", 3)
        clock[0] = 7.0  # a and b expired, c alive
        assert len(cache) == 1

    def test_contains_takes_the_lock(self):
        cache: DataCache[int] = DataCache(max_entries=4)
        cache.put("a", 1)
        # The lock must be free after every public call (no deadlock) and
        # __contains__ must acquire it: holding the lock blocks membership.
        assert cache._lock.acquire(timeout=1)
        try:
            import threading

            result: list[bool] = []
            probe = threading.Thread(target=lambda: result.append("a" in cache))
            probe.start()
            probe.join(timeout=0.2)
            assert probe.is_alive(), "__contains__ did not take the lock"
        finally:
            cache._lock.release()
        probe.join(timeout=2)
        assert result == [True]


class TestWorkerStoreIsSized:
    def test_store_bytes_follow_the_resident_shards(self):
        """A worker's shard store accounts each entry at its shards'
        ``memory_bytes`` (it used to read 0 bytes however much it held)."""
        cluster = Cluster(num_workers=2, cores_per_worker=1)
        try:
            dataset = cluster.load(FlightsSource(4000, partitions=4))
            for worker in cluster.workers:
                shards = worker.fetch(dataset.dataset_id)
                held = sum(shard.memory_bytes() for shard in shards)
                assert held > 0
                snapshot = worker.metrics_snapshot()["store"]
                assert (snapshot["entries"], snapshot["bytes"]) == (1, held)
                assert worker.store.stats().bytes == held
                worker.evict(dataset.dataset_id)
                assert worker.store.stats().bytes == 0
        finally:
            cluster.close()


def _histogram(buckets: int) -> HistogramSummary:
    """A summary whose wire form grows by a byte a bucket."""
    return HistogramSummary(np.ones(buckets, dtype=np.int64))


class TestComputationCacheInterface:
    def test_byte_accounting_and_dataset_invalidation(self):
        """Entries are held, and counted, at their wire size; a hit
        decodes a fresh summary with the same bytes."""
        cache = ComputationCache(max_entries=100)
        wide, mid, narrow = (_histogram(n) for n in (100, 50, 25))
        cache.put("ds-1", "hist", wide)
        cache.put("ds-1", "cdf", mid)
        cache.put("ds-2", "hist", narrow)
        sizes = [len(summary_to_bytes(s)) for s in (wide, mid, narrow)]
        assert cache.current_bytes == sum(sizes)
        assert cache.invalidate_dataset("ds-1") == 2
        assert cache.current_bytes == sizes[2]
        hit = cache.get("ds-2", "hist")
        assert hit is not narrow and hit is not cache.get("ds-2", "hist")
        assert summary_to_bytes(hit) == summary_to_bytes(narrow)

    def test_real_eviction_under_byte_budget(self):
        cache = ComputationCache(max_entries=100, max_bytes=120)
        for i in range(5):
            cache.put("ds", f"k{i}", _histogram(40))
        assert len(cache) <= 3
        assert cache.current_bytes <= 120


# ---------------------------------------------------------------------------
# The worker tier over shared workers
# ---------------------------------------------------------------------------
@pytest.fixture
def shared_workers():
    return [Worker(f"w{i}", cores=2) for i in range(3)]


@pytest.fixture
def two_roots(shared_workers):
    """Two independent roots over one worker set — the in-process
    analogue of two ``ServiceServer`` roots sharing a daemon fleet."""
    root_a = Cluster(workers=shared_workers, aggregation_interval=0.01)
    root_b = Cluster(workers=shared_workers, aggregation_interval=0.01)
    return root_a, root_b


class TestWorkerMemoTier:
    def test_memo_keyed_by_shard_slice(self):
        """A worker re-used under a different slice assignment must not
        serve partials computed over its old slice."""
        worker = Worker("w", cores=2)
        solo = Cluster(workers=[worker], aggregation_interval=0.01)
        dataset = solo.load(SOURCE)
        sketch = HistogramSketch("Distance", BUCKETS)
        dataset.run(sketch)
        key_full = worker._memo_key(dataset.dataset_id, sketch.cache_key())
        assert key_full in worker.memo
        # Placement is sticky: only a rebalance commit re-slices a worker.
        worker.rebalance_commit(1, 1, 4, None, {})
        key_sliced = worker._memo_key(dataset.dataset_id, sketch.cache_key())
        assert key_sliced != key_full
        assert key_sliced not in worker.memo

    def test_memo_budget_holds_wide_heat_maps_by_their_memory(self):
        """A 400x300 heat map is held as it travels, at a byte a cell,
        not at the eight its unpacked grid takes: a budget that held two
        such grids unpacked holds all four, and one below their sum
        still evicts."""

        def memo_after_four_heat_maps(budget: int) -> MemoCache:
            worker = Worker("w", cores=2, memo_bytes=budget)
            root = Cluster(workers=[worker], aggregation_interval=0.01)
            dataset = root.load(SOURCE)
            for top in (1000, 2000, 3000, 4000):
                dataset.run(
                    HeatmapSketch(
                        "Distance", DoubleBuckets(0, top, 400),
                        "DepDelay", DoubleBuckets(-30, 180, 300),
                    )
                )
            return worker.memo

        memo = memo_after_four_heat_maps(2_500_000)
        blobs = [memo.peek(key)[0] for key in memo.keys()]
        assert len(blobs) == 4
        assert memo.current_bytes == sum(map(len, blobs))
        grid = 400 * 300
        assert 4 * grid <= memo.current_bytes < 8 * grid  # < one unpacked
        tight = memo_after_four_heat_maps(memo.current_bytes - 1)
        assert 0 < len(tight) < 4
        assert tight.current_bytes < memo.current_bytes

    def test_a_run_encodes_its_summary_once(self, monkeypatch):
        """One encode per worker emission — the memo keeps the bytes the
        final emission carries, and the root reads its wire size off
        them — plus one for the root's computation-cache entry."""
        worker = Worker("w", cores=2)
        root = Cluster(workers=[worker], aggregation_interval=60.0)
        dataset = root.load(SOURCE)
        writes = []
        write_array = Encoder.write_array

        def counted(enc, array):
            writes.append(array.shape)
            write_array(enc, array)

        monkeypatch.setattr(Encoder, "write_array", counted)
        sketch = HeatmapSketch(
            "Distance", DoubleBuckets(0, 3000, 40),
            "DepDelay", DoubleBuckets(-30, 180, 30),
        )
        run = dataset.run(sketch)
        assert run.partials == 1
        assert len(worker.memo) == 1 and len(root.computation_cache) == 1
        assert writes == [(40, 30), (40, 30)]

    def test_a_memo_hit_on_a_daemon_ships_the_stored_bytes(self, monkeypatch):
        """A memo hit served by a :class:`WorkerServer` neither encodes
        nor decodes: the reply carries the bytes the memo holds, and the
        root's read of it is the run's one decode."""
        from repro.engine.remote import WorkerServer
        from tests.conftest import connect

        server = WorkerServer(name="memo", cores=2, cache_sweep_interval_seconds=0)
        proxy = connect(server)
        try:
            proxy.configure(0, 1, 60.0)
            proxy.ensure("ds", [LoadOp("ds", SOURCE)])
            sketch = HeatmapSketch(
                "Distance", DoubleBuckets(0, 3000, 40),
                "DepDelay", DoubleBuckets(-30, 180, 30),
            )
            (cold,) = proxy.sketch_partials("ds", sketch, [])
            (key,) = server.worker.memo.keys()
            blob, _ = server.worker.memo.peek(key)
            writes, reads = [], []
            write_array, read_array = Encoder.write_array, Decoder.read_array

            def counted_write(enc, array):
                writes.append(array.shape)
                write_array(enc, array)

            def counted_read(dec, *args, **kwargs):
                reads.append(args)
                return read_array(dec, *args, **kwargs)

            monkeypatch.setattr(Encoder, "write_array", counted_write)
            monkeypatch.setattr(Decoder, "read_array", counted_read)
            (hit,) = proxy.sketch_partials("ds", sketch, [])
            assert hit.cache_hit and not cold.cache_hit
            assert len(reads) == 1 and writes == []
            assert (hit.shards_done, hit.bytes) == (cold.shards_done, cold.bytes)
            monkeypatch.undo()
            assert summary_to_bytes(hit.summary) == summary_to_bytes(cold.summary) == blob
        finally:
            proxy.close()

    def test_cancelled_runs_are_not_memoized(self, two_roots):
        from repro.engine.progress import CancellationToken

        root_a, _ = two_roots
        dataset = root_a.load(SOURCE)
        sketch = HistogramSketch("Distance", BUCKETS)
        token = CancellationToken()
        token.cancel()
        list(dataset.sketch_stream(sketch, token))
        for worker in root_a.workers:
            assert len(worker.memo) == 0, "a cancelled run was memoized"


class TestEvictionInvalidatesEveryTier:
    def test_evict_dataset_drops_all_dependent_entries(
        self, two_roots, shared_workers
    ):
        root_a, root_b = two_roots
        ds_a = root_a.load(SOURCE)
        ds_b = root_b.load(SOURCE)
        sketch = HistogramSketch("Distance", BUCKETS)
        cold = ds_a.run(sketch)
        assert ds_a.total_rows == 4_000
        ds_b.run(sketch)  # warms root B's tier too
        assert len(root_a.computation_cache) == 1
        assert all(len(w.memo) == 1 for w in shared_workers)

        root_a.evict_dataset(ds_a.dataset_id)

        # Every tier of root A and the shared workers is clean.
        assert len(root_a.computation_cache) == 0
        assert all(len(w.memo) == 0 for w in shared_workers)
        # Recomputation replays lineage and is byte-identical.
        scans_before = [w.shards_summarized for w in shared_workers]
        recomputed = ds_a.run(sketch)
        assert [w.shards_summarized for w in shared_workers] != scans_before
        assert recomputed.worker_cache_hits == 0
        assert recomputed.value.to_bytes() == cold.value.to_bytes()

    def test_single_worker_eviction_invalidates_that_worker_only(
        self, two_roots, shared_workers
    ):
        root_a, _ = two_roots
        dataset = root_a.load(SOURCE)
        sketch = HistogramSketch("Distance", BUCKETS)
        dataset.run(sketch)
        root_a.evict_dataset(dataset.dataset_id, worker_index=0)
        assert len(shared_workers[0].memo) == 0
        assert len(shared_workers[1].memo) == 1
        # The root tier survives a partial eviction: the dataset still
        # exists; only one worker's soft copy went away.
        assert len(root_a.computation_cache) == 1


# ---------------------------------------------------------------------------
# Cache-key hygiene: every registered sketch type
# ---------------------------------------------------------------------------
#: One spec per registered wire type, including the side-effecting "save".
ALL_SPECS = dict(SPEC_PER_TYPE)
ALL_SPECS["save"] = {"type": "save", "directory": "/tmp/unused", "format": "hvc"}


class TestCacheKeyHygiene:
    def test_specs_cover_every_registered_builder(self):
        assert set(ALL_SPECS) >= set(SKETCH_TYPES)

    @pytest.mark.parametrize("kind", sorted(ALL_SPECS))
    def test_non_deterministic_implies_no_cache_key(self, kind):
        sketch = sketch_from_json(ALL_SPECS[kind])
        if not sketch.deterministic:
            assert sketch.cache_key() is None, (
                f"{kind}: non-deterministic sketches must never be cacheable"
            )

    @given(rate=st.floats(0.01, 0.99), seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_sampled_variants_are_never_cacheable(self, rate, seed):
        """Every sampled-capable spec, re-keyed to a genuine sampling
        rate, must refuse a cache key (the §5.4 invariant)."""
        for kind in ("histogram", "cdf", "heatmap", "stacked", "quantile"):
            spec = dict(ALL_SPECS[kind])
            spec["rate"] = rate
            spec["seed"] = seed
            sketch = sketch_from_json(spec)
            assert not sketch.deterministic
            assert sketch.cache_key() is None

    def test_every_summary_has_a_binary_form(self):
        """Both cache tiers hold a result as ``summary_to_bytes``, which
        needs the summary class's tag: every registered one has it."""

        def subclasses(cls: type):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        registered = [
            cls
            for cls in subclasses(Summary)
            if "wire" in cls.__dict__ and cls.__module__.startswith("repro.")
        ]
        assert DistinctSetSummary in registered
        for cls in registered:
            assert SUMMARY_TYPES.get(cls.wire.tag) is cls, cls.__name__

    def test_exact_distinct_values_hit_the_root_cache(self):
        cluster = Cluster(num_workers=2, cores_per_worker=1)
        try:
            dataset = cluster.load(SOURCE)
            sketch = ExactDistinctSketch("Airline")
            cold = dataset.run(sketch)
            warm = dataset.run(sketch)
            assert not cold.cache_hit and warm.cache_hit
            assert len(cold.value.values) > 1
            assert summary_to_bytes(warm.value) == summary_to_bytes(cold.value)
        finally:
            cluster.close()

    @pytest.mark.parametrize("kind", sorted(ALL_SPECS))
    def test_wire_round_trip_preserves_cache_key(self, kind):
        sketch = sketch_from_json(ALL_SPECS[kind])
        round_tripped = sketch_from_json(sketch_to_json(sketch))
        assert round_tripped.cache_key() == sketch.cache_key(), (
            f"{kind}: cache key changed across a wire round-trip"
        )
        assert round_tripped.deterministic == sketch.deterministic


# ---------------------------------------------------------------------------
# The periodic sweep (satellite: purge_stale actually runs)
# ---------------------------------------------------------------------------
class TestWorkerSweep:
    def test_worker_sweep_purges_stale_store_and_memo(self):
        clock = [0.0]
        worker = Worker(
            "w", cores=1, cache_ttl_seconds=100.0, clock=lambda: clock[0]
        )
        cluster = Cluster(workers=[worker], aggregation_interval=0.01)
        dataset = cluster.load(TableSource(SOURCE.load(), shards_per_table=1))
        dataset.run(HistogramSketch("Distance", BUCKETS))
        assert len(worker.store) >= 1
        clock[0] = 200.0
        purged = worker.sweep_caches()
        assert purged >= 1
        assert len(worker.store) == 0
        assert len(worker.memo) == 0

    def test_cluster_sweep_covers_root_tiers(self):
        cluster = Cluster(num_workers=2, cores_per_worker=1)
        # Root tiers use an infinite TTL: the sweep must be a safe no-op.
        dataset = cluster.load(SOURCE)
        dataset.run(HistogramSketch("Distance", BUCKETS))
        assert cluster.sweep_caches() == 0
        assert len(cluster.computation_cache) == 1

    def test_worker_server_periodic_sweep_thread(self):
        from repro.engine.remote import WorkerServer

        clock = [0.0]
        server = WorkerServer(
            name="sweeper", cores=1, cache_sweep_interval_seconds=0.05
        )
        # Swap in TTL'd caches driven by a fake clock.
        server.worker.store.ttl_seconds = 10.0
        server.worker.store._clock = lambda: clock[0]
        server.worker.store.put("ds", [])
        server._start_sweeper()
        try:
            clock[0] = 50.0
            deadline = time.monotonic() + 5.0
            # len() is TTL-aware and reports 0 immediately; the sweeper's
            # purge counter shows the entry was actually *dropped*.
            while time.monotonic() < deadline and server.cache_entries_purged == 0:
                time.sleep(0.02)
            assert server.cache_entries_purged >= 1
            assert len(server.worker.store) == 0
        finally:
            server._shutdown.set()

    def test_sweep_caches_rpc(self):
        """The on-demand daemon sweep, over the real wire."""
        import threading

        from repro.engine.remote import ProcessCluster

        cluster = ProcessCluster(
            num_workers=1, cores_per_worker=1, aggregation_interval=0.01
        )
        try:
            dataset = cluster.load(SOURCE)
            dataset.run(HistogramSketch("Distance", BUCKETS))
            proxy = cluster.workers[0]
            snapshot = proxy.metrics_snapshot()
            assert snapshot["store"]["entries"] >= 1
            assert proxy.sweep_remote_caches() == 0  # nothing stale yet
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# Session-store compaction (satellite)
# ---------------------------------------------------------------------------
class TestSessionStoreCompaction:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_purge_expired_drops_only_stale_records(self, backend, tmp_path):
        from repro.service.session_store import (
            InMemorySessionStore,
            SessionRecord,
            SqliteSessionStore,
        )

        store = (
            InMemorySessionStore()
            if backend == "memory"
            else SqliteSessionStore(str(tmp_path / "tier.db"))
        )
        now = time.time()
        store.put(SessionRecord("old", now - 5000, now - 5000))
        store.put(SessionRecord("fresh", now, now))
        if backend == "sqlite":
            # Backdate the row stamp the DELETE filters on (put() stamps
            # "now"; a genuinely old record was written long ago).
            with store._lock:
                store._conn.execute(
                    "UPDATE sessions SET updated_at = ? WHERE session_id = ?",
                    (now - 5000, "old"),
                )
                store._conn.commit()
        assert store.purge_expired(3600.0) == 1
        assert store.list_ids() == ["fresh"]
        assert store.purge_expired(3600.0) == 0
        store.close()

    def test_manager_sweep_compacts_the_store(self):
        from repro.service.session_store import InMemorySessionStore, SessionRecord
        from repro.service.sessions import SessionManager

        store = InMemorySessionStore()
        now = time.time()
        store.put(SessionRecord("abandoned", now - 9000, now - 9000))
        manager = SessionManager(
            Cluster(num_workers=1, cores_per_worker=1),
            store=store,
            store_ttl_seconds=3600.0,
        )
        manager.sweep()
        assert store.list_ids() == []  # the store was compacted
        assert manager.store_records_purged == 1

    def test_manager_purge_is_throttled(self):
        from repro.service.session_store import InMemorySessionStore, SessionRecord
        from repro.service.sessions import SessionManager

        store = InMemorySessionStore()
        manager = SessionManager(
            Cluster(num_workers=1, cores_per_worker=1),
            store=store,
            store_ttl_seconds=3600.0,
        )
        manager.sweep()
        now = time.time()
        store.put(SessionRecord("late", now - 9000, now - 9000))
        # Within the refresh window the purge must not re-run.
        assert manager.purge_store() == 0
        assert store.list_ids() == ["late"]

    def test_no_ttl_means_no_compaction(self):
        from repro.service.session_store import InMemorySessionStore, SessionRecord
        from repro.service.sessions import SessionManager

        store = InMemorySessionStore()
        now = time.time()
        store.put(SessionRecord("ancient", now - 10**6, now - 10**6))
        manager = SessionManager(
            Cluster(num_workers=1, cores_per_worker=1), store=store
        )
        manager.sweep()
        assert store.list_ids() == ["ancient"]


# ---------------------------------------------------------------------------
# The disable switch (byte-identity under it: the ``uncached`` column of
# tests/test_invariant.py)
# ---------------------------------------------------------------------------
class TestDisableSwitch:
    def test_cache_stats_reports_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_CACHES", "1")
        cluster = Cluster(num_workers=1, cores_per_worker=1)
        snapshot = cluster.metrics_snapshot()
        assert snapshot["computation"]["disabled"] is True
