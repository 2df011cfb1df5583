"""Lifecycle tests for memory-mapped shard storage.

``storage/columnar.py`` maps hvc partitions read-only
(``use_mmap=False`` is the heap read kept as the reference).  The map is
an optimization, not a semantic: the tests here pin table bytes across
the two paths, zero-copy views, slice loads, that an eviction unmaps its
shard files (in process, and in each tier-2 daemon), and (tier 2)
SIGKILLs with real worker processes holding live maps.  Summaries over mapped, heap
and replayed shards are the ``heap``, ``crashed`` and ``evicted`` columns
of ``tests/test_invariant.py``.

A client's ``evict`` reaches the workers: the last handle holding a
dataset (across sessions) frees its shards after the ``ack``, and the
shard store counts heap bytes, so a mapped column counts nothing.
"""

from __future__ import annotations

import hashlib
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.buckets import DoubleBuckets
from repro.data.flights import generate_flights
from repro.engine.cluster import Cluster
from repro.engine.local import LocalDataSet
from repro.engine.rpc import RpcRequest, sketch_to_json, summary_from_json
from repro.errors import EngineError
from repro.obs.metrics import REGISTRY
from repro.sketches.histogram import HistogramSketch
from repro.storage import columnar
from repro.storage.loader import ColumnarDatasetSource
from repro.table.table import Table

DISTANCE = DoubleBuckets(0, 3000, 12)


def _write_flights_dataset(directory: str, rows: int = 6_000, parts: int = 6):
    table = generate_flights(rows, seed=21)
    columnar.write_dataset(table.split(parts), str(directory))
    return table


def _mapped_files(pid: int | str, directory: str) -> int:
    """How many of ``pid``'s memory mappings are files under ``directory``."""
    with open(f"/proc/{pid}/maps") as maps:
        return sum(1 for line in maps if str(directory) in line)


def _dir_digests(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


class TestMmapVsHeap:
    def test_byte_identical_tables(self, tmp_path):
        _write_flights_dataset(tmp_path)
        mapped = columnar.read_dataset(str(tmp_path), use_mmap=True)
        heap = columnar.read_dataset(str(tmp_path), use_mmap=False)
        assert len(mapped) == len(heap)
        for m, h in zip(mapped, heap):
            assert columnar.table_to_bytes(m) == columnar.table_to_bytes(h)

    def test_mapped_columns_are_zero_copy_views(self, tmp_path):
        _write_flights_dataset(tmp_path, rows=1_000, parts=1)
        [mapped] = columnar.read_dataset(str(tmp_path), use_mmap=True)
        data = mapped.column("Distance").data
        # A view into the read-only map: not writeable, and its base
        # chain (not the heap) owns the bytes.
        assert not data.flags.writeable
        assert data.base is not None
        with pytest.raises((ValueError, RuntimeError)):
            data[0] = 0.0
        # The heap path hands out ordinary owned arrays.
        [heap] = columnar.read_dataset(str(tmp_path), use_mmap=False)
        assert heap.column("Distance").data.flags.writeable

    def test_default_read_is_mapped(self, tmp_path):
        _write_flights_dataset(tmp_path, rows=500, parts=1)
        [table] = columnar.read_dataset(str(tmp_path))
        assert not table.column("Distance").data.flags.writeable

    def test_load_slice_matches_full_load(self, tmp_path):
        _write_flights_dataset(tmp_path, parts=7)
        source = ColumnarDatasetSource(str(tmp_path))
        everything = source.load()
        count = 3
        for index in range(count):
            expected = everything[index::count]
            got = source.load_slice(index, count)
            assert [columnar.table_to_bytes(t) for t in got] == [
                columnar.table_to_bytes(t) for t in expected
            ]

    def test_evict_releases_the_maps(self, tmp_path):
        """Evicting a dataset drops every mapping of its shard files."""

        _write_flights_dataset(tmp_path)
        cluster = Cluster(num_workers=2)
        dataset = cluster.load(ColumnarDatasetSource(str(tmp_path)))
        dataset.sketch(HistogramSketch("Distance", DISTANCE))
        assert _mapped_files("self", tmp_path) == 6
        cluster.evict_dataset(dataset.dataset_id)
        assert _mapped_files("self", tmp_path) == 0

    def test_maps_outlive_the_file_descriptor(self, tmp_path):
        """read_table closes the fd immediately; arrays must stay valid."""
        _write_flights_dataset(tmp_path, rows=2_000, parts=1)
        [table] = columnar.read_dataset(str(tmp_path), use_mmap=True)
        # Touch every page after the open() context has exited.
        total = float(np.nansum(table.column("Distance").data))
        assert total > 0


@pytest.mark.tier2
class TestProcessLifecycle:
    """Real worker processes holding live maps across kills (tier 2)."""

    def _process_cluster(self):
        from repro.engine.remote import ProcessCluster

        return ProcessCluster(
            num_workers=2, cores_per_worker=2, aggregation_interval=0.02
        )

    def test_worker_restart_remaps_shards(self, tmp_path):
        _write_flights_dataset(tmp_path)
        reference_table = Table.concat(columnar.read_dataset(str(tmp_path)))
        cluster = self._process_cluster()
        try:
            dataset = cluster.load(ColumnarDatasetSource(str(tmp_path)))
            sketch = HistogramSketch("Distance", DISTANCE)
            before = dataset.sketch(sketch).to_bytes()
            pids = cluster.worker_pids()
            cluster.kill_worker_process(0, signal.SIGKILL)
            requery = HistogramSketch("Distance", DoubleBuckets(0, 3000, 24))
            after = dataset.sketch(requery).to_bytes()
            assert cluster.worker_pids()[0] != pids[0], "worker not respawned"
            assert after == (
                LocalDataSet(reference_table).sketch(requery).to_bytes()
            )
            assert dataset.sketch(sketch).to_bytes() == before
        finally:
            cluster.close()

    def test_evict_releases_each_daemons_maps(self, tmp_path):
        _write_flights_dataset(tmp_path)
        cluster = self._process_cluster()
        try:
            dataset = cluster.load(ColumnarDatasetSource(str(tmp_path)))
            dataset.sketch(HistogramSketch("Distance", DISTANCE))
            pids = cluster.worker_pids()
            assert [_mapped_files(pid, tmp_path) for pid in pids] == [3, 3]
            cluster.evict_dataset(dataset.dataset_id)
            assert [_mapped_files(pid, tmp_path) for pid in pids] == [0, 0]
        finally:
            cluster.close()

    def test_an_evict_over_the_gateway_unmaps_each_daemons_alias(self, tmp_path):
        """The ``evict`` ack comes first; each daemon drops the alias's
        maps right after it, while the held dataset stays mapped."""
        from repro.gateway import GatewayServer, GatewayWebSocket
        from repro.service import ServiceServer

        data = tmp_path / "data"
        _write_flights_dataset(data)
        cluster = self._process_cluster()
        server = ServiceServer(cluster)
        server.start_background()
        gateway = GatewayServer(server)
        gateway.start_background()
        socket = GatewayWebSocket(*gateway.address, timeout=60)
        try:
            socket.connect()
            pids = cluster.worker_pids()
            spec = {"sketch": sketch_to_json(HIST)}
            requests = iter(range(100))

            def call(method, target="", args=None) -> dict:
                reply = socket.result(socket.submit(next(requests), method, target, args))
                assert reply["kind"] in ("ack", "complete"), reply
                return reply

            def load(directory) -> str:
                source = {"kind": "hvc", "directory": str(directory)}
                return call("load", args={"source": source})["payload"]["handle"]

            call("sketch", load(data), spec)
            for n in range(3):
                alias = _alias(data, tmp_path / f"alias-{n}")
                handle = load(alias)
                call("sketch", handle, spec)
                assert [_mapped_files(pid, alias) for pid in pids] == [3, 3]
                assert call("evict", handle)["payload"] == {"evicted": True}
                deadline = time.monotonic() + 2.0
                while any(_mapped_files(pid, alias) for pid in pids):
                    assert time.monotonic() < deadline, "an alias stayed mapped"
                    time.sleep(0.01)
            assert [_mapped_files(pid, data) for pid in pids] == [3, 3]
        finally:
            socket.close()
            gateway.close()
            server.close()
            cluster.close()

    def test_sigkill_mid_sketch_leaves_no_corrupt_maps(self, tmp_path):
        """SIGKILL while shards are mapped and a sketch is streaming: the
        stream converges exactly and the mapped files are untouched."""
        from repro.service.slow import SlowdownSketch

        _write_flights_dataset(tmp_path, rows=8_000, parts=8)
        digests = _dir_digests(str(tmp_path))
        reference_table = Table.concat(columnar.read_dataset(str(tmp_path)))
        cluster = self._process_cluster()
        try:
            dataset = cluster.load(ColumnarDatasetSource(str(tmp_path)))
            sketch = HistogramSketch("Distance", DISTANCE)
            slowed = SlowdownSketch(sketch, per_shard_seconds=0.05)
            final = None
            partials = 0
            for partial in dataset.sketch_stream(slowed):
                partials += 1
                final = partial.value
                if partials == 1:
                    cluster.kill_worker_process(0, signal.SIGKILL)
            assert final is not None
            assert final.to_bytes() == (
                LocalDataSet(reference_table).sketch(sketch).to_bytes()
            )
            assert _dir_digests(str(tmp_path)) == digests
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# An evicted handle frees the workers' shards (the last hold releases)
# ---------------------------------------------------------------------------
HIST = HistogramSketch("Distance", DISTANCE)


def _alias(directory, path) -> str:
    """A hard-link copy of a dataset directory: a new content-addressed
    dataset over the same file bytes."""
    os.makedirs(path)
    for name in os.listdir(directory):
        os.link(os.path.join(directory, name), os.path.join(path, name))
    return str(path)


def _call(session, method: str, target: str = "", args: dict | None = None):
    """Every reply of one request through the session's facade."""
    return list(session.web.execute(RpcRequest(1, target, method, args or {})))


def _load(session, directory) -> str:
    [ack] = _call(session, "load", args={"source": {"kind": "hvc", "directory": str(directory)}})
    assert ack.kind == "ack", ack.error
    return ack.payload["handle"]


def _histogram(session, handle: str):
    reply = _call(session, "sketch", handle, {"sketch": sketch_to_json(HIST)})[-1]
    assert reply.kind == "complete", reply.error
    return summary_from_json(reply.payload).to_bytes(), reply.cache


def _evict(session, handle: str) -> None:
    assert [(r.kind, r.payload) for r in _call(session, "evict", handle)] == [
        ("ack", {"evicted": True})
    ]


def _entries(cluster) -> list[int]:
    return [w.store.stats().entries for w in cluster.workers]


@pytest.fixture
def sessions():
    """A 2-worker in-process cluster under a session manager."""
    from repro.service import SessionManager

    manager = SessionManager(Cluster(num_workers=2, aggregation_interval=0.01))
    yield manager
    manager.cluster.close()


class TestEvictReleases:
    def _reference(self, directory) -> bytes:
        table = Table.concat(columnar.read_dataset(str(directory)))
        return LocalDataSet(table).sketch(HIST).to_bytes()

    def test_evicted_aliases_leave_the_stores(self, tmp_path, sessions):
        data = tmp_path / "data"
        _write_flights_dataset(data)
        expected = self._reference(data)
        session = sessions.get_or_create("cold")
        base = _load(session, data)
        assert _histogram(session, base)[0] == expected
        before = _entries(sessions.cluster)
        aliases = [_alias(data, tmp_path / f"alias-{n}") for n in range(5)]
        for alias in aliases:
            handle = _load(session, alias)
            assert _histogram(session, handle)[0] == expected
            assert _mapped_files("self", alias) == 6
            _evict(session, handle)
        assert _entries(sessions.cluster) == before == [1, 1]
        assert [w.store.stats().evictions for w in sessions.cluster.workers] == [5, 5]
        assert [_mapped_files("self", alias) for alias in aliases] == [0] * 5
        assert _mapped_files("self", data) == 6  # the held dataset stays

    def test_the_last_of_two_sessions_releases(self, tmp_path, sessions):
        _write_flights_dataset(tmp_path)
        first, second = sessions.get_or_create("a"), sessions.get_or_create("b")
        handles = [_load(first, tmp_path), _load(second, tmp_path)]
        expected, cache = _histogram(first, handles[0])
        assert not cache["hit"]
        _evict(first, handles[0])
        assert _entries(sessions.cluster) == [1, 1]
        again, cache = _histogram(second, handles[1])
        assert (again, cache["hit"]) == (expected, True)
        _evict(second, handles[1])
        assert _entries(sessions.cluster) == [0, 0]
        assert _mapped_files("self", tmp_path) == 0
        # Either handle rebuilds from its chain on next use (§5.7).
        assert _histogram(first, handles[0])[0] == expected

    def test_evict_is_idempotent_and_strict(self, tmp_path, sessions):
        _write_flights_dataset(tmp_path)
        session = sessions.get_or_create("strict")
        handle = _load(session, tmp_path)
        released = []
        cluster = sessions.cluster
        evict_dataset = cluster.evict_dataset
        cluster.evict_dataset = lambda *a: released.append(a) or evict_dataset(*a)
        _evict(session, handle)
        _evict(session, handle)  # already evicted: acks, releases nothing
        assert len(released) == 1
        [error] = _call(session, "evict", "obj-99")
        assert (error.kind, error.code) == ("error", "unknown_handle")

    def test_concurrent_holds_and_releases_lose_no_count(self, tmp_path, sessions):
        """Eight sessions mint and evict handles on one dataset at once,
        and two threads evict each handle: every handle releases once,
        and the last release frees the dataset."""
        _write_flights_dataset(tmp_path)
        released = []
        evict_dataset = sessions.cluster.evict_dataset
        sessions.cluster.evict_dataset = (
            lambda *a: released.append(a) or evict_dataset(*a)
        )
        members = [sessions.get_or_create(f"s{n}") for n in range(8)]
        handles = [[_load(s, tmp_path) for _ in range(3)] for s in members]
        barrier = threading.Barrier(16)

        def evict(session, mine):
            barrier.wait()
            for handle in mine:
                _evict(session, handle)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=evict, args=(s, h))
                for s, h in zip(members, handles) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(released) == 1
        assert sessions.cluster._holds == {}
        assert _entries(sessions.cluster) == [0, 0]

    def test_a_failed_release_is_counted_not_replied(self, tmp_path, sessions):
        _write_flights_dataset(tmp_path)
        session = sessions.get_or_create("failing")
        handle = _load(session, tmp_path)

        def broken(*args):
            raise EngineError("worker gone")

        sessions.cluster.evict_dataset = broken
        errors = REGISTRY.counter("web.release_errors", "")
        before = errors.value
        _evict(session, handle)  # one reply: the ack, and nothing after it
        assert errors.value == before + 1

    def test_session_teardown_releases(self, tmp_path, sessions):
        _write_flights_dataset(tmp_path)
        session = sessions.get_or_create("leaving")
        handle = _load(session, tmp_path)
        _histogram(session, handle)
        assert _entries(sessions.cluster) == [1, 1]
        assert sessions.close("leaving")
        assert _entries(sessions.cluster) == [0, 0]
        assert _mapped_files("self", tmp_path) == 0

    def test_evict_racing_a_reload_answers_identically(self, tmp_path, sessions):
        _write_flights_dataset(tmp_path)
        expected = self._reference(tmp_path)
        evictor, loader = sessions.get_or_create("e"), sessions.get_or_create("l")
        answers = []
        for _ in range(6):
            handle = _load(evictor, tmp_path)
            _histogram(evictor, handle)
            barrier = threading.Barrier(2)

            def reload():
                barrier.wait()
                answers.append(_histogram(loader, _load(loader, tmp_path))[0])

            thread = threading.Thread(target=reload)
            thread.start()
            barrier.wait()
            _evict(evictor, handle)
            thread.join(timeout=60)
            answers.append(_histogram(evictor, handle)[0])
        assert answers == [expected] * 12


class TestStoreSizer:
    """The shard store counts heap bytes: what an eviction frees.  On a
    1-worker cluster over 4,000 flights rows in 4 partitions it read
    879,008 bytes for the mapped load, each column at its full size."""

    def _flights(self, directory, parts: int = 4, keep=lambda column: True):
        table = generate_flights(4_000, seed=0)
        names = [n for n in table.column_names if keep(table.column(n))]
        columnar.write_dataset(table.select_columns(names).split(parts), str(directory))

    def test_a_filter_grows_the_store_by_its_membership(self, tmp_path):
        """Over the columns a mapped shard keeps no heap part of (no
        dictionary, no NaN mask), a load counts 0 bytes and a filter
        exactly its membership arrays."""
        from repro.engine.dataset import FilterMap
        from repro.table.compute import ColumnPredicate
        from repro.table.schema import ContentsKind

        self._flights(tmp_path, keep=lambda c: not c.kind.is_string
                      and not (c.kind is ContentsKind.DOUBLE and c.missing_mask().any()))
        cluster = Cluster(num_workers=1)
        [worker] = cluster.workers
        try:
            dataset = cluster.load(ColumnarDatasetSource(str(tmp_path)))
            dataset.sketch(HIST)
            assert worker.store.stats().bytes == 0
            grown = []
            for value in (-1.0, 200.0):  # keeps no row, then a few
                before = worker.store.stats().bytes
                derived = dataset.map(FilterMap(ColumnPredicate("Distance", "<", value)))
                shards = worker.fetch(derived.dataset_id)
                membership = sum(s.members.memory_bytes() for s in shards)
                assert worker.store.stats().bytes - before == membership
                grown.append(membership)
            assert grown[0] == 0 < grown[1]
        finally:
            cluster.close()

    def test_a_mapped_shard_counts_only_its_heap_parts(self, tmp_path):
        """Mapped arrays count 0; string dictionaries and the NaN masks a
        double column builds at open are heap, and count."""
        from repro.table.column import heap_nbytes

        self._flights(tmp_path)
        cluster = Cluster(num_workers=1)
        [worker] = cluster.workers
        try:
            dataset = cluster.load(ColumnarDatasetSource(str(tmp_path)))
            shards = worker.fetch(dataset.dataset_id)
            columns = [s.column(n) for s in shards for n in s.column_names]
            storage = [getattr(c, "codes", None) for c in columns]
            storage = [c.data if a is None else a for c, a in zip(columns, storage)]
            assert [heap_nbytes(a) for a in storage] == [0] * len(storage)
            held = worker.store.stats().bytes
            assert 0 < held == sum(s.memory_bytes() for s in shards)
            assert held * 8 < sum(a.nbytes for a in storage)
        finally:
            cluster.close()

    def test_heap_shards_count_their_arrays(self, tmp_path):
        self._flights(tmp_path, parts=1)
        [mapped] = columnar.read_dataset(str(tmp_path), use_mmap=True)
        [heap] = columnar.read_dataset(str(tmp_path), use_mmap=False)
        assert mapped.memory_bytes() < heap.memory_bytes()
        assert heap.memory_bytes() >= sum(
            heap.column(n).memory_bytes() for n in heap.column_names
        ) >= sum(heap.column(n).data.nbytes
                 for n in heap.column_names if not heap.column(n).kind.is_string)
