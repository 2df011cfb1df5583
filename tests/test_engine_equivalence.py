"""Engine equivalence the invariant matrix cannot see.

``tests/test_invariant.py`` runs every sketch spec through every execution
mode over one table.  What stays here: random tables at random shard
counts agree across local, threaded and cluster engines; the ``slow``
wrapper the matrix leaves out agrees over spawned workers; summaries are
functions of multisets, not row sequences (Appendix A); and the merge
order is a function of placement, never of which leaf thread finished
first.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buckets import DoubleBuckets, ExplicitStringBuckets
from repro.core.sketch import Sketch, Summary
from repro.engine.cluster import Cluster
from repro.engine.local import LocalDataSet, ParallelDataSet, parallel_dataset
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

from tests.test_wire_golden import FLIGHTS_SOURCE, FLIGHTS_SPECS

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


class TestRepartitioningInvariance:
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


@pytest.mark.tier2
class TestProcessClusterEquivalence:
    """The ``slow`` wrapper, the one spec the matrix leaves out: local,
    threaded-cluster and process-cluster results are identical."""

    @pytest.mark.parametrize("kind", ["slow"])
    def test_every_sketch_agrees(self, kind):
        import repro.service.slow  # noqa: F401 — registers "slow"
        from repro.engine.remote import ProcessCluster

        spec = FLIGHTS_SPECS[kind]
        reference = Table.concat(FLIGHTS_SOURCE.load())
        local = LocalDataSet(reference).sketch(sketch_from_json(spec))
        threaded = Cluster(num_workers=3, cores_per_worker=2)
        via_threads = threaded.load(FLIGHTS_SOURCE).sketch(sketch_from_json(spec))
        processes = ProcessCluster(
            num_workers=3, cores_per_worker=2, aggregation_interval=0.01
        )
        try:
            process_ds = processes.load(FLIGHTS_SOURCE)
            via_processes = process_ds.sketch(sketch_from_json(spec))
        finally:
            processes.close()
        assert via_threads.to_bytes() == local.to_bytes()
        assert via_processes.to_bytes() == local.to_bytes()


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
