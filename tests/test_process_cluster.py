"""Process-cluster integration: the RPC surface, maps, save, sessions.

Everything here runs against real spawned ``repro worker`` subprocesses —
the multi-server topology of §5.2 on one machine.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.buckets import DoubleBuckets
from repro.data.flights import FlightsSource
from repro.engine.dataset import ExpressionMap, FilterMap, ProjectMap
from repro.engine import remote
from repro.engine.local import LocalDataSet
from repro.engine.remote import ProcessCluster, RemoteWorkerProxy
from repro.engine.rpc import RpcRequest
from repro.errors import EngineError
from repro.sketches.histogram import HistogramSketch
from repro.storage.columnar import write_dataset
from repro.storage.loader import ColumnarDatasetSource
from repro.table.compute import ColumnPredicate
from repro.table.table import Table

from tests.conftest import check_resident_threads, count_verb_calls, daemon_fleet

pytestmark = pytest.mark.tier2

SOURCE = FlightsSource(4_000, partitions=8, seed=11)


@pytest.fixture(scope="module")
def cluster():
    c = ProcessCluster(
        num_workers=2, cores_per_worker=2, aggregation_interval=0.01
    )
    try:
        yield c
    finally:
        c.close()


@pytest.fixture(scope="module")
def dataset(cluster):
    return cluster.load(SOURCE)


@pytest.fixture(scope="module")
def reference() -> Table:
    return Table.concat(SOURCE.load())


class TestRemoteDatasets:
    def test_workers_are_separate_processes(self, cluster):
        pids = cluster.worker_pids()
        assert len(pids) == 2
        assert all(pid is not None and pid != os.getpid() for pid in pids)
        for proxy in cluster.workers:
            assert isinstance(proxy, RemoteWorkerProxy)
            assert proxy.metrics_snapshot()["pid"] == proxy.pid

    def test_rows_and_schema(self, dataset, reference):
        assert dataset.total_rows == reference.num_rows
        assert [d.name for d in dataset.schema] == [
            d.name for d in reference.schema
        ]

    def test_rows_and_schema_are_read_off_the_dataset(self, reference):
        """Load and map each send every proxy one ``ensure``; a sketch
        then sends each one ``sketch`` and no ``ensure``.  Size and
        schema cost no round trip — even with every worker process
        killed, and a sketch after that replays the lineage on the
        revived workers off the same shard counts."""
        cluster = ProcessCluster(
            num_workers=2, cores_per_worker=1, aggregation_interval=0.01
        )
        try:
            calls = [count_verb_calls(proxy) for proxy in cluster.workers]
            dataset = cluster.load(SOURCE)
            derived = dataset.map(FilterMap(ColumnPredicate("Distance", ">", 500.0)))
            assert all(count == {"ensure": 2} for count in calls)
            for count in range(10, 13):  # uncached: a fresh bucket count each
                buckets = DoubleBuckets(0, 5000, count)
                dataset.sketch(HistogramSketch("Distance", buckets))
                derived.sketch(HistogramSketch("Distance", buckets))
            assert all(count == {"ensure": 2, "sketch": 6} for count in calls)
            for index in range(len(cluster.workers)):
                cluster.kill_worker_process(index)
            far = int((reference.column("Distance").data > 500.0).sum())
            for _ in range(3):
                assert dataset.total_rows == reference.num_rows
                assert dataset.schema == reference.schema
                assert derived.total_rows == far
                assert derived.schema == reference.schema
            assert all(count == {"ensure": 2, "sketch": 6} for count in calls)
            sketch = HistogramSketch("Distance", DoubleBuckets(0, 5000, 13))
            *_, last = dataset.sketch_stream(sketch)
            assert (
                last.value.to_bytes()
                == LocalDataSet(reference).sketch(sketch).to_bytes()
            )
            assert last.progress == 1.0
            assert last.profile["totalShards"] == SOURCE.partitions
        finally:
            cluster.close()

    def test_sketches_reuse_the_pools(self, monkeypatch):
        """No thread starts per sketch at the root or in the workers'
        stream handling, and ``close`` stops every thread it started."""

        def build():
            cluster = ProcessCluster(
                num_workers=2, cores_per_worker=1, aggregation_interval=0.01
            )
            return cluster, cluster.load(SOURCE)

        check_resident_threads(build, "Distance", monkeypatch)

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_close_leaves_no_socket_open(self):
        """Every file object the dial and the channel open is closed, so
        closing a cluster closes its sockets' descriptors at once — not
        when a collection gets to them, warning of an unclosed socket."""
        cluster = ProcessCluster(
            num_workers=2, cores_per_worker=1, aggregation_interval=0.01
        )
        channels = [proxy.channel for proxy in cluster.workers]
        try:
            cluster.load(SOURCE).sketch(
                HistogramSketch("Distance", DoubleBuckets(0, 5000, 14))
            )
        finally:
            cluster.close()
        assert [channel._sock.fileno() for channel in channels] == [-1, -1]
        del cluster, channels
        gc.collect()

    def test_maps_run_on_the_workers(self, dataset, reference):
        """filter -> derive-expression -> project, all over the wire, then
        a sketch on the derived column; byte-identical to local."""
        chain = [
            FilterMap(ColumnPredicate("Distance", ">", 500.0)),
            ExpressionMap("gain", "DepDelay - ArrDelay"),
            ProjectMap(["gain"]),
        ]
        remote = dataset
        local_table = reference
        for table_map in chain:
            remote = remote.map(table_map)
            local_table = table_map.apply(local_table)
        sketch = HistogramSketch("gain", DoubleBuckets(-60, 60, 8))
        assert (
            remote.sketch(sketch).to_bytes()
            == LocalDataSet(local_table).sketch(sketch).to_bytes()
        )
        assert remote.total_rows == local_table.num_rows

    def test_eviction_rebuilds_via_lineage(self, cluster, dataset, reference):
        cluster.evict_dataset(dataset.dataset_id)
        sketch = HistogramSketch("Distance", DoubleBuckets(0, 3000, 7))
        assert (
            dataset.sketch(sketch).to_bytes()
            == LocalDataSet(reference).sketch(sketch).to_bytes()
        )

    def test_save_writes_identical_rows(self, tmp_path, dataset, reference):
        """save is side-effecting and its file list names shards, so the
        assertion is on the written *data*: same rows, no errors."""
        from repro.engine.rpc import sketch_from_json
        from repro.storage.columnar import write_manifest
        from repro.storage.loader import ColumnarDatasetSource

        spec = {"type": "save", "directory": str(tmp_path), "format": "hvc"}
        status = dataset.sketch(sketch_from_json(spec))
        assert status.errors == []
        assert status.rows_written == reference.num_rows
        write_manifest(str(tmp_path), status.files)  # the web layer's job
        reloaded = ColumnarDatasetSource(str(tmp_path), verify_snapshot=False).load()
        assert sum(t.num_rows for t in reloaded) == reference.num_rows


class TestSessionsOverProcessWorkers:
    def test_session_rebuild_from_lineage_on_remote_workers(
        self, cluster, reference
    ):
        """An evicted session's handle chain rebuilds even though the
        missing shard state lives in worker processes (§5.7): the rebuild
        walks the lineage and every hop goes over the worker wire."""
        from repro.service import SessionManager

        manager = SessionManager(cluster)
        session = manager.get_or_create("remote-user")
        root = session.web.load(SOURCE)
        [ack] = list(
            session.web.execute(
                RpcRequest(
                    1,
                    root,
                    "filter",
                    {
                        "predicate": {
                            "type": "column",
                            "column": "Distance",
                            "op": ">",
                            "value": 1000.0,
                        }
                    },
                )
            )
        )
        derived = ack.payload["handle"]
        spec = {
            "type": "histogram",
            "column": "Distance",
            "buckets": {"type": "double", "min": 0, "max": 3000, "count": 9},
        }
        before = list(
            session.web.execute(
                RpcRequest(2, derived, "sketch", {"sketch": spec})
            )
        )
        assert before[-1].kind == "complete"

        # Lose every layer of soft state: the session's handles AND the
        # workers' shard stores (crash RPC to each worker process).
        session.web.evict(root)
        session.web.evict(derived)
        for index in range(len(cluster.workers)):
            cluster.kill_worker(index)

        after = list(
            session.web.execute(
                RpcRequest(3, derived, "sketch", {"sketch": spec})
            )
        )
        assert after[-1].kind == "complete"
        assert after[-1].payload == before[-1].payload

        expected = (
            Table.concat(SOURCE.load())
            .filter(ColumnPredicate("Distance", ">", 1000.0))
        )
        local = LocalDataSet(expected).sketch(
            HistogramSketch("Distance", DoubleBuckets(0, 3000, 9))
        )
        assert after[-1].payload["counts"] == local.counts.tolist()


class TestListenMode:
    def test_attach_to_prestarted_worker_daemons(self, reference):
        """`repro worker --listen` daemons + ProcessCluster(addresses=...):
        the fleet topology where workers outlive any particular root."""
        with daemon_fleet("daemon", 2) as addresses:
            cluster = ProcessCluster(
                addresses=addresses, aggregation_interval=0.01
            )
            try:
                sketch = HistogramSketch("Distance", DoubleBuckets(0, 3000, 10))
                remote = cluster.load(SOURCE).sketch(sketch)
                local = LocalDataSet(reference).sketch(sketch)
                assert remote.to_bytes() == local.to_bytes()
                assert {w.name for w in cluster.workers} == {
                    "daemon-0",
                    "daemon-1",
                }
            finally:
                cluster.close()


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # a zombie nobody has reaped yet is gone too
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestSpawnedWorkers:
    """A spawned worker is a ``--listen`` daemon its root started and
    dialed: it fails fast, joins resizes, and dies with its root."""

    def test_a_worker_that_dies_before_announcing_fails_fast(self, monkeypatch):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        monkeypatch.setattr(remote, "_spawn_env", lambda: env)  # no repro
        start = time.monotonic()
        with pytest.raises(EngineError, match="exited with status 1"):
            ProcessCluster(num_workers=1)
        assert time.monotonic() - start < 5.0

    def test_spawned_fleets_grow_revive_and_shrink(self):
        source = FlightsSource(4_000, partitions=16, seed=11)
        sketch = HistogramSketch("Distance", DoubleBuckets(0, 3000, 9))
        local = LocalDataSet(Table.concat(source.load())).sketch(sketch).to_bytes()
        cluster = ProcessCluster(
            num_workers=2, cores_per_worker=1, aggregation_interval=0.01
        )

        def fresh_run() -> bytes:
            cluster.computation_cache.clear()
            return dataset.sketch(sketch).to_bytes()

        try:
            dataset = cluster.load(source)
            assert cluster.grow(1) == 3
            assert cluster.placement_version == 1
            assert fresh_run() == local

            member, pid = cluster.workers[2].member, cluster.worker_pids()[2]
            cluster.kill_worker_process(2)
            assert fresh_run() == local
            assert cluster.workers[2].member == member  # respawned on its port
            assert cluster.worker_pids()[2] not in (None, pid)

            assert cluster.shrink([2]) == 2
            assert cluster.placement_version == 2
            assert fresh_run() == local
        finally:
            cluster.close()

    def test_spawned_workers_exit_with_their_root(self):
        import repro

        script = (
            "import json\n"
            "from repro.engine.remote import ProcessCluster\n"
            "cluster = ProcessCluster(num_workers=2, cores_per_worker=1)\n"
            "print(json.dumps(cluster.worker_pids()), flush=True)\n"
            "input()\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        with subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        ) as root:
            try:
                pids = json.loads(root.stdout.readline())
            finally:
                root.kill()  # no chance to close anything
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids)), "a worker outlived its root"


class TestWorkerHeap:
    """A worker daemon keeps its freed leaf temporaries: an uncached
    histogram over 62.5k-row shards reuses the heap instead of faulting
    in fresh zero pages (~1,000 per sketch without the policy)."""

    @pytest.mark.skipif(
        not hasattr(ctypes.CDLL(None), "mallopt"), reason="no mallopt"
    )
    def test_uncached_histograms_fault_few_pages(self, tmp_path):
        values = np.random.default_rng(3).normal(size=250_000)
        write_dataset(Table.from_pydict({"d": values}).split(4), str(tmp_path))
        cluster = ProcessCluster(
            num_workers=1, cores_per_worker=1, aggregation_interval=0.01
        )

        def histograms(counts) -> None:
            for count in counts:  # a new bucket count misses every cache
                dataset.sketch(HistogramSketch("d", DoubleBuckets(-4, 4, count)))

        try:
            dataset = cluster.load(ColumnarDatasetSource(str(tmp_path)))
            histograms(range(10, 13))
            worker = cluster.workers[0]
            before = worker.metrics_snapshot()["minorFaults"]
            histograms(range(20, 25))
            faults = worker.metrics_snapshot()["minorFaults"] - before
        finally:
            cluster.close()
        assert faults / 5 < 100
