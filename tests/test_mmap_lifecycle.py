"""Lifecycle tests for memory-mapped shard storage.

``storage/columnar.py`` maps hvc partitions read-only
(``use_mmap=False`` is the heap read kept as the reference).  The map is
an optimization, not a semantic: the tests here pin table bytes across
the two paths, zero-copy views, slice loads, that an eviction unmaps its
shard files (in process, and in each tier-2 daemon), and (tier 2)
SIGKILLs with real worker processes holding live maps.  Summaries over mapped, heap
and replayed shards are the ``heap``, ``crashed`` and ``evicted`` columns
of ``tests/test_invariant.py``.
"""

from __future__ import annotations

import hashlib
import os
import signal

import numpy as np
import pytest

from repro.core.buckets import DoubleBuckets
from repro.data.flights import generate_flights
from repro.engine.local import LocalDataSet
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
        from repro.engine.cluster import Cluster

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
