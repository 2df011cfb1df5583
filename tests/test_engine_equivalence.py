"""Cross-engine equivalence: every engine computes the same summaries.

The paper's modularity claim (§5.5) means a vizketch's result is a function
of the *data*, never of the execution substrate.  This suite drives random
tables through all the ways a sketch can run — single-table local,
multi-threaded parallel, the multi-worker threaded cluster, and a cluster
of spawned worker *processes* — and requires bit-identical wire encodings,
including under random repartitioning.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buckets import DoubleBuckets, ExplicitStringBuckets
from repro.core.sketch import Sketch, Summary
from repro.data.flights import FlightsSource
from repro.engine.cluster import Cluster
from repro.engine.local import LocalDataSet, ParallelDataSet, parallel_dataset
from repro.core.wire import SKETCH_TYPES
from repro.engine.rpc import sketch_from_json
from repro.sketches.heavy_hitters import MisraGriesSketch
from repro.sketches.histogram import HistogramSketch
from repro.sketches.moments import MomentsSketch
from repro.sketches.next_items import NextKSketch
from repro.sketches.stacked import StackedHistogramSketch
from repro.sketches.trellis import TrellisHistogramSketch
from repro.storage.loader import TableSource
from repro.table.sort import RecordOrder
from repro.table.table import Table

VALUE_BUCKETS = DoubleBuckets(-50, 50, 10)
GROUP_BUCKETS = ExplicitStringBuckets(["a", "b", "c"])

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-50, 50)),
        st.sampled_from(["a", "b", "c"]),
    ),
    min_size=2,
    max_size=60,
)

SKETCHES = [
    lambda: HistogramSketch("n", VALUE_BUCKETS),
    lambda: MomentsSketch("n"),
    lambda: MisraGriesSketch("g", 4),
    lambda: NextKSketch(RecordOrder.of("g", "n"), 5),
    lambda: StackedHistogramSketch("n", VALUE_BUCKETS, "g", GROUP_BUCKETS),
    lambda: TrellisHistogramSketch("g", GROUP_BUCKETS, "n", VALUE_BUCKETS),
]


def build_table(data) -> Table:
    from repro.table.schema import ContentsKind

    return Table.from_pydict(
        {"n": [d[0] for d in data], "g": [d[1] for d in data]},
        kinds={"n": ContentsKind.INTEGER, "g": ContentsKind.STRING},
    )


@pytest.mark.parametrize("make_sketch", SKETCHES)
class TestEnginesAgree:
    @given(data=rows_strategy, shards=st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_local_vs_parallel(self, make_sketch, data, shards):
        table = build_table(data)
        sketch = make_sketch()
        single = LocalDataSet(table).sketch(sketch)
        threaded = parallel_dataset(table, shards=shards).sketch(sketch)
        assert single.to_bytes() == threaded.to_bytes()

    @given(data=rows_strategy, shards=st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_local_vs_cluster(self, make_sketch, data, shards):
        table = build_table(data)
        sketch = make_sketch()
        single = LocalDataSet(table).sketch(sketch)
        cluster = Cluster(num_workers=2, cores_per_worker=1)
        dataset = cluster.load(TableSource([table], shards_per_table=shards))
        assert dataset.sketch(sketch).to_bytes() == single.to_bytes()


# ---------------------------------------------------------------------------
# Process-cluster equivalence: every SKETCH_TYPES entry, real subprocesses
# ---------------------------------------------------------------------------
# 2,000 rows keeps every summary under its decimation bounds (the quantile
# sample never exceeds 2 * max_size), so byte-identity is exact end to end.
FLIGHTS_SOURCE = FlightsSource(2_000, partitions=8, seed=5)

_DISTANCE = {"type": "double", "min": 0, "max": 3000, "count": 12}
_DELAY = {"type": "double", "min": -30, "max": 180, "count": 10}
_AIRLINES = {"type": "strings", "values": ["AA", "AS", "B6", "DL", "UA", "WN"]}
_ORDER = [
    {"column": "Distance", "ascending": True},
    {"column": "Origin", "ascending": True},
]

#: One spec per wire-level sketch type, exercised on the flights dataset.
SKETCH_SPECS: dict[str, dict] = {
    "histogram": {"type": "histogram", "column": "Distance", "buckets": _DISTANCE},
    "cdf": {"type": "cdf", "column": "DepDelay", "buckets": _DELAY},
    "heatmap": {
        "type": "heatmap",
        "xColumn": "Distance",
        "xBuckets": _DISTANCE,
        "yColumn": "DepDelay",
        "yBuckets": _DELAY,
    },
    "stacked": {
        "type": "stacked",
        "xColumn": "Distance",
        "xBuckets": _DISTANCE,
        "yColumn": "Airline",
        "yBuckets": _AIRLINES,
    },
    "trellisHeatmap": {
        "type": "trellisHeatmap",
        "groupColumn": "Airline",
        "groupBuckets": _AIRLINES,
        "xColumn": "Distance",
        "xBuckets": _DISTANCE,
        "yColumn": "DepDelay",
        "yBuckets": _DELAY,
    },
    "trellisHistogram": {
        "type": "trellisHistogram",
        "groupColumn": "Airline",
        "groupBuckets": _AIRLINES,
        "xColumn": "Distance",
        "xBuckets": _DISTANCE,
    },
    # Integer-valued columns keep float power sums exact, so summaries are
    # bit-identical regardless of merge order.
    "moments": {"type": "moments", "column": "CRSDepTime"},
    "distinct": {"type": "distinct", "column": "Origin", "precision": 10},
    # Misra-Gries merges exactly only while no counter reduction happens;
    # k above the column's cardinality (14 airlines) keeps it exact, which
    # is what cross-substrate byte-identity requires.
    "heavyHitters": {
        "type": "heavyHitters",
        "method": "streaming",
        "column": "Airline",
        "k": 20,
    },
    "nextK": {"type": "nextK", "order": _ORDER, "k": 10},
    "quantile": {"type": "quantile", "order": _ORDER, "rate": 1.0},
    "find": {
        "type": "find",
        "order": _ORDER,
        "match": {
            "type": "match",
            "column": "Origin",
            "pattern": "S",
            "mode": "substring",
            "caseSensitive": True,
        },
    },
    "bottomK": {"type": "bottomK", "column": "Origin", "k": 40},
    "correlation": {
        "type": "correlation",
        "columns": ["CRSDepTime", "DepTime", "DayOfWeek"],
    },
    "slow": {
        "type": "slow",
        "perShardSeconds": 0.0,
        "inner": {"type": "histogram", "column": "Distance", "buckets": _DISTANCE},
    },
    # "save" is side-effecting; exercised separately below.
}


@pytest.fixture(scope="module")
def process_cluster():
    from repro.engine.remote import ProcessCluster

    cluster = ProcessCluster(
        num_workers=3, cores_per_worker=2, aggregation_interval=0.01
    )
    try:
        yield cluster, cluster.load(FLIGHTS_SOURCE)
    finally:
        cluster.close()


@pytest.fixture(scope="module")
def flights_reference() -> Table:
    return Table.concat(FLIGHTS_SOURCE.load())


@pytest.mark.tier2
class TestProcessClusterEquivalence:
    """Local / threaded-cluster / process-cluster results are identical."""

    def test_specs_cover_every_builder(self):
        import repro.service.slow  # noqa: F401 — registers "slow"

        assert set(SKETCH_SPECS) | {"save"} >= set(SKETCH_TYPES)

    @pytest.mark.parametrize("kind", sorted(SKETCH_SPECS))
    def test_every_sketch_agrees(
        self, kind, process_cluster, flights_reference
    ):
        import repro.service.slow  # noqa: F401 — registers "slow"

        spec = SKETCH_SPECS[kind]
        _, process_ds = process_cluster
        local = LocalDataSet(flights_reference).sketch(sketch_from_json(spec))
        threaded = Cluster(num_workers=3, cores_per_worker=2)
        threaded_ds = threaded.load(FLIGHTS_SOURCE)
        via_threads = threaded_ds.sketch(sketch_from_json(spec))
        via_processes = process_ds.sketch(sketch_from_json(spec))
        assert via_threads.to_bytes() == local.to_bytes()
        assert via_processes.to_bytes() == local.to_bytes()

    def test_save_writes_identical_rows(
        self, tmp_path, process_cluster, flights_reference
    ):
        """save is side-effecting and its file list names shards, so the
        assertion is on the written *data*: same rows, no errors."""
        from repro.storage.columnar import write_manifest
        from repro.storage.loader import ColumnarDatasetSource

        _, process_ds = process_cluster
        remote_dir = tmp_path / "remote"
        spec = {"type": "save", "directory": str(remote_dir), "format": "hvc"}
        status = process_ds.sketch(sketch_from_json(spec))
        assert status.errors == []
        assert status.rows_written == flights_reference.num_rows
        write_manifest(str(remote_dir), status.files)  # the web layer's job
        reloaded = ColumnarDatasetSource(
            str(remote_dir), verify_snapshot=False
        ).load()
        assert sum(t.num_rows for t in reloaded) == flights_reference.num_rows


class TestRepartitioningInvariance:
    @given(
        data=rows_strategy,
        first=st.integers(1, 6),
        second=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_shard_count_is_invisible(self, data, first, second):
        """Two arbitrary shardings of the same rows summarize identically."""
        table = build_table(data)
        sketch = HistogramSketch("n", VALUE_BUCKETS)
        one = ParallelDataSet(
            [LocalDataSet(s) for s in table.split(first)]
        ).sketch(sketch)
        other = ParallelDataSet(
            [LocalDataSet(s) for s in table.split(second)]
        ).sketch(sketch)
        assert one.to_bytes() == other.to_bytes()

    @given(data=rows_strategy, seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_row_order_is_invisible(self, data, seed):
        """Summaries are functions of multisets, not sequences (Appendix A)."""
        table = build_table(data)
        rng = np.random.default_rng(seed)
        shuffled = build_table([data[i] for i in rng.permutation(len(data))])
        sketch = MomentsSketch("n")
        assert (
            LocalDataSet(table).sketch(sketch).to_bytes()
            == LocalDataSet(shuffled).sketch(sketch).to_bytes()
        )


class _OrderSummary(Summary):
    """Records the order its pieces were merged in — nothing else."""

    def __init__(self, labels: tuple[str, ...] = ()):
        self.labels = tuple(labels)

    def encode(self, enc) -> None:
        enc.write_uvarint(len(self.labels))
        for label in self.labels:
            enc.write_str(label)


class _OrderProbeSketch(Sketch):
    """Associative but *non-commutative* merge, with leaves engineered to
    finish slowest-first: shard 0 sleeps longest, so completion order is
    the reverse of shard order.  Any merge loop keyed on completion (or
    arrival) order scrambles the labels; the engine must fold in shard
    order at the worker and worker-index order at the root regardless of
    which thread wins the race."""

    def __init__(self, shard_count: int):
        self.shard_count = shard_count

    def summarize(self, table: Table) -> _OrderSummary:
        index = int(table.column("n").value(0))
        time.sleep(0.02 * (self.shard_count - index))
        return _OrderSummary((f"s{index}",))

    def zero(self) -> _OrderSummary:
        return _OrderSummary()

    def merge(self, left: _OrderSummary, right: _OrderSummary) -> _OrderSummary:
        return _OrderSummary(left.labels + right.labels)


def _indexed_shards(count: int) -> list[Table]:
    return [build_table([(i, "a")]) for i in range(count)]


class TestMergeOrderDeterminism:
    """Merge order is a function of placement, never of thread timing.

    Misra-Gries at capacity is only approximately commutative — merging
    the same partials in a different order yields different (all valid)
    byte encodings.  The worker memo and the cross-root computation cache
    both require repeated runs to be byte-identical, so the engine pins
    the fold order even though every leaf races on a thread pool."""

    def test_worker_merges_in_shard_order(self):
        shards = _indexed_shards(6)
        cluster = Cluster(num_workers=1, cores_per_worker=6)
        dataset = cluster.load(TableSource(shards))
        result = dataset.sketch(_OrderProbeSketch(len(shards)))
        assert result.labels == ("s0", "s1", "s2", "s3", "s4", "s5")

    def test_root_merges_in_worker_order(self):
        # Worker w of 3 owns shards w::3; shard 0 is slowest, so worker 0
        # emits *last* — arrival-order folding would put it last.
        shards = _indexed_shards(6)
        cluster = Cluster(num_workers=3, cores_per_worker=2)
        dataset = cluster.load(TableSource(shards))
        result = dataset.sketch(_OrderProbeSketch(len(shards)))
        assert result.labels == ("s0", "s3", "s1", "s4", "s2", "s5")

    def test_parallel_dataset_merges_in_child_order(self):
        shards = _indexed_shards(5)
        dataset = ParallelDataSet([LocalDataSet(s) for s in shards])
        result = dataset.sketch(_OrderProbeSketch(len(shards)))
        assert result.labels == ("s0", "s1", "s2", "s3", "s4")
