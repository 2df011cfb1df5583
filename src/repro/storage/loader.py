"""Data sources: how the engine (re)loads partitioned data.

The engine's fault-tolerance story (§5.7) requires every in-memory dataset
to be reconstructible: leaf state is soft, and the root's redo log begins
with a *load* operation.  A :class:`DataSource` is that loadable origin — it
can produce its partitions any number of times, always yielding the same
data (snapshot semantics).
"""

from __future__ import annotations

import glob
import os
import threading
from abc import ABC, abstractmethod

from repro.errors import StorageError
from repro.storage import columnar, csv_io, jsonl_io, logs_io, sql_io
from repro.table.table import Table


class DataSource(ABC):
    """A reloadable, immutable, horizontally partitioned data origin."""

    @abstractmethod
    def load(self) -> list[Table]:
        """Load (or re-load) every partition."""

    @abstractmethod
    def spec(self) -> str:
        """Stable description used in redo logs and cache keys."""

    def load_slice(self, index: int, count: int) -> list[Table]:
        """One worker's round-robin share: ``load()[index::count]``.

        The default (:meth:`_load_slice`) loads everything and discards
        the rest; sources whose partitions are individually addressable
        override the hook so each worker process fetches only its own
        share — the load (and every §5.7 lineage replay) then costs 1/N
        per worker instead of N full loads across the fleet.  Overrides
        must return exactly the default's slice: the root's shard
        placement and a worker's self-computed slice have to agree.
        """
        if count < 1 or not 0 <= index < count:
            raise ValueError(f"invalid slice {index}/{count}")
        return self._load_slice(index, count)

    def _load_slice(self, index: int, count: int) -> list[Table]:
        return self.load()[index::count]

    def __repr__(self) -> str:
        return self.spec()


class LoadedOnce(DataSource):
    """``source``, read at most once: workers that share an address space
    each take their slice of the one read instead of reading it N times."""

    def __init__(self, source: DataSource):
        self.source = source
        self._lock = threading.Lock()
        self._shards: list[Table] | None = None

    def load(self) -> list[Table]:
        with self._lock:
            if self._shards is None:
                self._shards = self.source.load()
            return self._shards

    def spec(self) -> str:
        return self.source.spec()


class TableSource(DataSource):
    """In-memory tables, optionally re-sharded into micropartitions.

    ``shards_per_table`` splits each table into micropartitions at load
    time, mirroring the 10–20M-row micropartitions of §5.3.
    """

    _counter = 0

    def __init__(self, tables: list[Table], shards_per_table: int = 1):
        if not tables:
            raise StorageError("TableSource needs at least one table")
        if shards_per_table < 1:
            raise ValueError("shards_per_table must be >= 1")
        self.tables = list(tables)
        self.shards_per_table = shards_per_table
        TableSource._counter += 1
        self._id = TableSource._counter

    def load(self) -> list[Table]:
        if self.shards_per_table == 1:
            return list(self.tables)
        shards = []
        for table in self.tables:
            shards.extend(table.split(self.shards_per_table))
        return shards

    def spec(self) -> str:
        rows = sum(t.num_rows for t in self.tables)
        return f"TableSource(id={self._id},tables={len(self.tables)},rows={rows})"


class CsvSource(DataSource):
    """One partition per CSV file matching ``pattern``."""

    def __init__(self, pattern: str):
        self.pattern = pattern

    def _paths(self) -> list[str]:
        paths = sorted(glob.glob(self.pattern))
        if not paths:
            raise StorageError(f"no CSV files match {self.pattern!r}")
        return paths

    def load(self) -> list[Table]:
        return [csv_io.read_csv(path, shard_id=os.path.basename(path)) for path in self._paths()]

    def _load_slice(self, index: int, count: int) -> list[Table]:
        return [
            csv_io.read_csv(path, shard_id=os.path.basename(path))
            for path in self._paths()[index::count]
        ]

    def spec(self) -> str:
        return f"CsvSource({self.pattern!r})"


class JsonlSource(DataSource):
    """One partition per JSON-lines file matching ``pattern``."""

    def __init__(self, pattern: str):
        self.pattern = pattern

    def _paths(self) -> list[str]:
        paths = sorted(glob.glob(self.pattern))
        if not paths:
            raise StorageError(f"no JSON-lines files match {self.pattern!r}")
        return paths

    def load(self) -> list[Table]:
        return [
            jsonl_io.read_jsonl(path, shard_id=os.path.basename(path))
            for path in self._paths()
        ]

    def _load_slice(self, index: int, count: int) -> list[Table]:
        return [
            jsonl_io.read_jsonl(path, shard_id=os.path.basename(path))
            for path in self._paths()[index::count]
        ]

    def spec(self) -> str:
        return f"JsonlSource({self.pattern!r})"


class SyslogSource(DataSource):
    """One partition per log file matching ``pattern``."""

    def __init__(self, pattern: str):
        self.pattern = pattern

    def _paths(self) -> list[str]:
        paths = sorted(glob.glob(self.pattern))
        if not paths:
            raise StorageError(f"no log files match {self.pattern!r}")
        return paths

    def load(self) -> list[Table]:
        return [
            logs_io.read_syslog(path, shard_id=os.path.basename(path))
            for path in self._paths()
        ]

    def _load_slice(self, index: int, count: int) -> list[Table]:
        return [
            logs_io.read_syslog(path, shard_id=os.path.basename(path))
            for path in self._paths()[index::count]
        ]

    def spec(self) -> str:
        return f"SyslogSource({self.pattern!r})"


class SqlSource(DataSource):
    """An SQLite table read as horizontally partitioned shards (§2).

    The source captures a content fingerprint at construction; every
    (re)load verifies it, enforcing the §2 requirement that data not change
    while Hillview is running.  ``partitions`` splits the table into rowid
    ranges so the engine can assign them across workers.
    """

    def __init__(
        self,
        db_path: str,
        table: str,
        partitions: int = 1,
        verify_snapshot: bool = True,
    ):
        self.db_path = db_path
        self.table = table
        self.partitions = partitions
        self.verify_snapshot = verify_snapshot
        self._fingerprint = sql_io.snapshot_fingerprint(db_path, table)

    def load(self) -> list[Table]:
        if self.verify_snapshot:
            current = sql_io.snapshot_fingerprint(self.db_path, self.table)
            if current != self._fingerprint:
                raise StorageError(
                    f"SQL table {self.table!r} changed while Hillview was "
                    f"running (fingerprint {self._fingerprint} -> {current}); "
                    "use a snapshot or pause writes (paper §2)"
                )
        return sql_io.read_sql(self.db_path, self.table, self.partitions)

    def spec(self) -> str:
        return (
            f"SqlSource({self.db_path!r},{self.table!r},"
            f"partitions={self.partitions})"
        )


class ColumnarDatasetSource(DataSource):
    """A partitioned ``hvc`` dataset directory with snapshot verification."""

    def __init__(self, directory: str, verify_snapshot: bool = True):
        self.directory = directory
        self.verify_snapshot = verify_snapshot

    def load(self) -> list[Table]:
        return columnar.read_dataset(self.directory, self.verify_snapshot)

    def _load_slice(self, index: int, count: int) -> list[Table]:
        # Partitions are individually addressable, so a worker maps only
        # its round-robin share of the files (same order as load()).
        manifest = columnar.dataset_manifest(self.directory)
        tables = []
        for filename in sorted(manifest)[index::count]:
            path = os.path.join(self.directory, filename)
            if self.verify_snapshot:
                columnar.verify_partition(self.directory, filename, manifest)
            tables.append(columnar.read_table(path, shard_id=filename))
        return tables

    def spec(self) -> str:
        return f"ColumnarDatasetSource({self.directory!r})"
