"""Cluster engine tests: caching, soft state, replay, fault injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.buckets import DoubleBuckets
from repro.engine.cache import ComputationCache, DataCache

from repro.engine.cluster import Cluster
from repro.engine.dataset import DeriveMap, FilterMap
from repro.engine.faults import FaultInjector
from repro.engine.progress import CancellationToken
from repro.engine.redo_log import RedoLog
from repro.errors import DatasetMissingError, EngineError
from repro.sketches.histogram import HistogramSketch
from repro.sketches.moments import MomentsSketch
from repro.storage.loader import TableSource
from repro.table.compute import ColumnPredicate
from repro.table.schema import ContentsKind

from tests.conftest import count_verb_calls

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
        """Load and map each ask every worker once (``ensure``); after
        that, size and schema are the dataset's own — no worker call,
        even once every worker has lost its shards."""
        calls = [count_verb_calls(worker) for worker in cluster.workers]
        dataset = cluster.load(TableSource([medium_numeric], shards_per_table=12))
        derived = dataset.map(FilterMap(ColumnPredicate("value", "<", 25)))
        assert all(count == {"ensure": 2} for count in calls)
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
        cache.put("ds", "k", 42)
        assert cache.get("ds", "k") == 42
        assert cache.hits == 1
        assert cache.misses == 1
        # Keys must not collide across datasets/sketches.
        assert cache.get("ds2", "k") is None
        assert cache.get("ds", "k2") is None
