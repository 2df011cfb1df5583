"""Cluster engine tests: caching, soft state, replay, fault injection."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.buckets import DoubleBuckets
from repro.engine.cache import ComputationCache, DataCache

from repro.engine.cluster import Cluster, ResidentPool
from repro.engine.dataset import DeriveMap, FilterMap
from repro.engine.faults import FaultInjector
from repro.engine.local import LocalDataSet
from repro.engine.progress import CancellationToken
from repro.engine.redo_log import RedoLog
from repro.errors import DatasetMissingError, EngineError
from repro.obs.trace import TraceContext, current_context
from repro.sketches.histogram import HistogramSketch, HistogramSummary
from repro.sketches.moments import MomentsSketch
from repro.storage.loader import TableSource
from repro.table.compute import ColumnPredicate
from repro.table.schema import ContentsKind

from tests.conftest import check_resident_threads, count_verb_calls

BUCKETS = DoubleBuckets(0, 100, 20)


@pytest.fixture
def loaded(cluster, medium_numeric):
    source = TableSource([medium_numeric], shards_per_table=12)
    return cluster.load(source)


class TestExecution:
    def test_progress_and_bytes(self, loaded):
        run = loaded.run(HistogramSketch("value", BUCKETS))
        assert run.bytes_received > 0
        assert run.partials >= len(loaded.cluster.workers)

    def test_total_rows_and_schema(self, loaded, medium_numeric):
        assert loaded.total_rows == medium_numeric.num_rows
        assert loaded.schema == medium_numeric.schema

    def test_in_process_workers_share_one_read_of_the_source(
        self, cluster, medium_numeric
    ):
        class Counted(TableSource):
            reads = 0

            def load(self):
                Counted.reads += 1
                return super().load()

        source = Counted([medium_numeric], shards_per_table=12)
        dataset = cluster.load(source)
        assert Counted.reads == 1  # not once per worker
        assert dataset.total_rows == medium_numeric.num_rows
        cluster.load(source)  # still resident everywhere: no read at all
        assert Counted.reads == 1

    def test_rows_and_schema_are_read_off_the_dataset(
        self, cluster, medium_numeric
    ):
        """Load and map each ask every worker once (``ensure``); a sketch
        then costs each worker one ``sketch`` and no ``ensure``.  Size
        and schema are the dataset's own — no worker call, even once
        every worker has lost its shards."""
        calls = [count_verb_calls(worker) for worker in cluster.workers]
        dataset = cluster.load(TableSource([medium_numeric], shards_per_table=12))
        derived = dataset.map(FilterMap(ColumnPredicate("value", "<", 25)))
        assert all(count == {"ensure": 2} for count in calls)
        for count in range(10, 13):  # uncached: a fresh bucket count each
            dataset.sketch(HistogramSketch("value", DoubleBuckets(0, 100, count)))
            derived.sketch(HistogramSketch("value", DoubleBuckets(0, 100, count)))
        assert all(count == {"ensure": 2, "sketch": 6} for count in calls)
        for index in range(len(cluster.workers)):
            cluster.kill_worker(index)
        for count in calls:
            count.clear()
        below = int((medium_numeric.column("value").data < 25).sum())
        for _ in range(3):
            assert dataset.total_rows == medium_numeric.num_rows
            assert dataset.schema == medium_numeric.schema
            assert derived.total_rows == below
            assert derived.schema == medium_numeric.schema
        assert not any(calls)

    def test_map_then_sketch(self, loaded, medium_numeric):
        filtered = loaded.map(FilterMap(ColumnPredicate("value", "<", 25)))
        stats = filtered.sketch(MomentsSketch("value"))
        expected = (medium_numeric.column("value").data < 25).sum()
        assert stats.present_count == expected

    def test_cancellation(self, loaded):
        token = CancellationToken()
        stream = loaded.sketch_stream(HistogramSketch("value", BUCKETS), token)
        first = next(stream)
        token.cancel()
        rest = list(stream)
        assert first.value.total_in_range > 0
        # The run ends early (queued micropartitions skipped).
        assert len(rest) <= 12


def final_partial(dataset, sketch):
    """The last partial of ``sketch``'s stream (uncached, so a fan-out)."""
    *_, last = dataset.sketch_stream(sketch)
    return last


class TestShardCountRecord:
    """A dataset keeps each worker's shard count from the ``ensure`` that
    materialized it, and a sketch at that placement sends no ``ensure``.
    What the record says must stay true whatever the fleet loses."""

    def check(self, dataset, table, buckets: int, shards: int):
        sketch = HistogramSketch("value", DoubleBuckets(0, 100, buckets))
        last = final_partial(dataset, sketch)
        assert last.value.to_bytes() == LocalDataSet(table).sketch(sketch).to_bytes()
        assert last.progress == 1.0
        assert last.profile["totalShards"] == shards

    def test_a_fleet_that_lost_the_dataset_replays_it(self, cluster, medium_numeric):
        dataset = cluster.load(TableSource([medium_numeric], shards_per_table=12))
        for index in range(len(cluster.workers)):
            cluster.kill_worker(index)
        calls = [count_verb_calls(worker) for worker in cluster.workers]
        self.check(dataset, medium_numeric, 21, 12)
        cluster.evict_dataset(dataset.dataset_id)
        self.check(dataset, medium_numeric, 22, 12)
        assert all(count == {"sketch": 2, "evict": 1} for count in calls)

    @pytest.mark.parametrize("resize", ["grow", "shrink"])
    def test_a_placement_change_refreshes_the_record_once(
        self, cluster, medium_numeric, resize
    ):
        dataset = cluster.load(TableSource([medium_numeric], shards_per_table=12))
        if resize == "grow":
            cluster.grow(1)
        else:
            cluster.shrink([0])
        calls = [count_verb_calls(worker) for worker in cluster.workers]
        self.check(dataset, medium_numeric, 23, 12)
        self.check(dataset, medium_numeric, 24, 12)
        assert all(count == {"ensure": 1, "sketch": 2} for count in calls)

    def test_ensure_seconds_reads_zero_off_the_record(self, flights_cluster):
        cluster, dataset = flights_cluster
        sketch = HistogramSketch("Distance", DoubleBuckets(0, 5000, 25))
        assert final_partial(dataset, sketch).profile["ensureSeconds"] == 0.0
        cluster.grow(1)
        sketch = HistogramSketch("Distance", DoubleBuckets(0, 5000, 26))
        assert final_partial(dataset, sketch).profile["ensureSeconds"] > 0.0


class TestResidentThreads:
    def test_the_root_pool_counts_idle_threads_under_contention(self):
        """Eight submitters race on one pool with a tiny switch interval:
        every task runs once, with its submitter's trace context, and
        once all ended every thread the pool kept is counted idle (a lost
        update would start a thread per task or queue one forever)."""
        pool = ResidentPool("stress")
        results: list = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def submitter(n: int) -> None:
                ctx = TraceContext.new_root()
                futures = [
                    pool.submit(ctx, lambda i: (i, current_context()), n * 100 + i)
                    for i in range(100)
                ]
                results.extend((f.result(timeout=30), ctx) for f in futures)

            threads = [
                threading.Thread(target=submitter, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert pool._idle == len(pool._threads)
        finally:
            sys.setswitchinterval(previous)
            pool.close()
        assert sorted(value for (value, _), _ in results) == list(range(800))
        assert all(seen is ctx for (_, seen), ctx in results)
        assert not any(thread.is_alive() for thread in pool._threads)

    def test_sketches_reuse_the_pools(self, medium_numeric, monkeypatch):
        """The root's pool and each worker's leaf pool are kept across
        sketches, and ``close`` stops them."""

        def build():
            cluster = Cluster(
                num_workers=2, cores_per_worker=2, aggregation_interval=0.01
            )
            source = TableSource([medium_numeric], shards_per_table=12)
            return cluster, cluster.load(source)

        check_resident_threads(build, "value", monkeypatch)


class TestComputationCache:
    def test_cache_keyed_by_dataset(self, loaded):
        loaded.run(HistogramSketch("value", BUCKETS))
        filtered = loaded.map(FilterMap(ColumnPredicate("value", ">", 50)))
        run = filtered.run(HistogramSketch("value", BUCKETS))
        assert not run.cache_hit  # same sketch, different dataset

    def test_cache_keyed_by_buckets(self, loaded):
        loaded.run(HistogramSketch("value", BUCKETS))
        other = loaded.run(HistogramSketch("value", DoubleBuckets(0, 100, 21)))
        assert not other.cache_hit


class TestSoftStateReplay:
    def test_derived_dataset_replayed_through_lineage(self, loaded):
        filtered = loaded.map(FilterMap(ColumnPredicate("value", ">", 30)))
        derived = filtered.map(
            DeriveMap(
                "halved",
                ContentsKind.DOUBLE,
                lambda arrays: np.asarray(arrays["value"]) / 2,
                vectorized=True,
            )
        )
        expected = derived.sketch(MomentsSketch("halved"))
        # Lose everything everywhere, including intermediate datasets.
        for index in range(len(loaded.cluster.workers)):
            loaded.cluster.kill_worker(index)
        loaded.cluster.computation_cache.clear()
        replayed = derived.sketch(MomentsSketch("halved"))
        assert replayed.present_count == expected.present_count
        assert replayed.mean == pytest.approx(expected.mean)

    def test_chaos_preserves_results(self, loaded):
        injector = FaultInjector(loaded.cluster, seed=9)
        baseline = loaded.sketch(HistogramSketch("value", BUCKETS))
        for _ in range(4):
            injector.chaos([loaded.dataset_id], rounds=2)
            loaded.cluster.computation_cache.clear()
            result = loaded.sketch(HistogramSketch("value", BUCKETS))
            assert np.array_equal(result.counts, baseline.counts)
        assert len(injector.events) == 8

    def test_worker_fetch_raises_when_missing(self, cluster, medium_numeric):
        ds = cluster.load(TableSource([medium_numeric], shards_per_table=4))
        cluster.workers[0].store.clear()
        with pytest.raises(DatasetMissingError):
            cluster.workers[0].fetch(ds.dataset_id)


class TestRedoLog:
    def test_lineage_order(self, loaded):
        filtered = loaded.map(FilterMap(ColumnPredicate("value", ">", 10)))
        chain = loaded.cluster.redo_log.lineage(filtered.dataset_id)
        assert len(chain) == 2
        assert chain[0].dataset_id == loaded.dataset_id
        assert chain[1].dataset_id == filtered.dataset_id

    def test_unknown_dataset(self):
        log = RedoLog()
        with pytest.raises(EngineError):
            log.lineage("nope")

    def test_duplicate_registration_is_idempotent(self, loaded):
        """Dataset ids are content-addressed: re-recording the same load
        (another session or root) is a no-op, but the same id naming
        different content is corruption and must raise."""
        log = loaded.cluster.redo_log
        op = log.creation_op(loaded.dataset_id)
        before = len(log)
        assert log.record_load(loaded.dataset_id, op.source) is op
        assert len(log) == before
        from repro.data.flights import FlightsSource

        with pytest.raises(EngineError, match="already recorded"):
            log.record_load(
                loaded.dataset_id, FlightsSource(10, partitions=1, seed=3)
            )

    def test_sketches_leave_the_log_unchanged(self, loaded):
        """Only loads and maps are recorded: a sketch's seed travels in its
        spec, so running sketches must not grow the log."""
        log = loaded.cluster.redo_log
        before = (len(log), log.describe())
        for seed in range(100):
            loaded.sketch(HistogramSketch("value", BUCKETS, rate=0.5, seed=seed))
        assert (len(log), log.describe()) == before


class TestCaches:
    def test_data_cache_lru(self):
        cache: DataCache[int] = DataCache(max_entries=2, ttl_seconds=100)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)  # evicts b (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.evictions == 1

    def test_data_cache_ttl(self):
        clock = [0.0]
        cache: DataCache[int] = DataCache(
            max_entries=10, ttl_seconds=5.0, clock=lambda: clock[0]
        )
        cache.put("a", 1)
        clock[0] = 4.0
        assert cache.get("a") == 1
        clock[0] = 10.0
        assert cache.get("a") is None

    def test_purge_stale(self):
        clock = [0.0]
        cache: DataCache[int] = DataCache(
            max_entries=10, ttl_seconds=1.0, clock=lambda: clock[0]
        )
        cache.put("a", 1)
        cache.put("b", 2)
        clock[0] = 2.0
        assert cache.purge_stale() == 2
        assert len(cache) == 0

    def test_computation_cache_stats(self):
        cache = ComputationCache()
        assert cache.get("ds", "k") is None
        summary = HistogramSummary(np.array([4, 2]), missing=1)
        cache.put("ds", "k", summary)
        assert cache.get("ds", "k").to_bytes() == summary.to_bytes()
        assert cache.hits == 1
        assert cache.misses == 1
        # Keys must not collide across datasets/sketches.
        assert cache.get("ds2", "k") is None
        assert cache.get("ds", "k2") is None
