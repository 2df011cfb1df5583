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
from typing import Callable, ClassVar

from repro.core.wire import INT, STR, Field, TaggedUnion, Wire
from repro.errors import HillviewError, StorageError
from repro.storage import columnar, csv_io, jsonl_io, logs_io, sql_io
from repro.table.table import Table

#: Every source a worker can (re)load from its description, by its
#: ``kind``.  An in-memory :class:`TableSource` has none: lineage must
#: bottom out at a load from the storage layer (§5.7).
SOURCES = TaggedUnion(
    "source",
    key="kind",
    refusal=(
        "is not reloadable by description and cannot cross a process "
        "boundary (§5.7: lineage must end at a load from the storage layer)"
    ),
)


class DataSource(SOURCES.Member, ABC):
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


class FileSource(DataSource):
    """One partition per file matching ``pattern``, read by ``reader``."""

    #: What the files hold, for the error when none match.
    what: ClassVar[str]
    reader: ClassVar[Callable[..., Table]]

    def __init__(self, pattern: str):
        self.pattern = pattern

    def load(self) -> list[Table]:
        return self._load_slice(0, 1)

    def _load_slice(self, index: int, count: int) -> list[Table]:
        paths = sorted(glob.glob(self.pattern))
        if not paths:
            raise StorageError(f"no {self.what} files match {self.pattern!r}")
        return [
            self.reader(path, shard_id=os.path.basename(path))
            for path in paths[index::count]
        ]

    def spec(self) -> str:
        return f"{type(self).__name__}({self.pattern!r})"


class CsvSource(FileSource):
    """One partition per CSV file matching ``pattern``."""

    wire = Wire("csv", Field("pattern", "pattern", STR))
    what = "CSV"
    reader = staticmethod(csv_io.read_csv)


class JsonlSource(FileSource):
    """One partition per JSON-lines file matching ``pattern``."""

    wire = Wire("jsonl", Field("pattern", "pattern", STR))
    what = "JSON-lines"
    reader = staticmethod(jsonl_io.read_jsonl)


class SyslogSource(FileSource):
    """One partition per log file matching ``pattern``."""

    wire = Wire("syslog", Field("pattern", "pattern", STR))
    what = "log"
    reader = staticmethod(logs_io.read_syslog)


class SqlSource(DataSource):
    """An SQLite table read as horizontally partitioned shards (§2).

    The source captures a content fingerprint at construction; every
    (re)load verifies it, enforcing the §2 requirement that data not change
    while Hillview is running.  ``partitions`` splits the table into rowid
    ranges so the engine can assign them across workers.
    """

    wire = Wire(
        "sql",
        Field("db_path", "path", STR),
        Field("table", "table", STR),
        Field("partitions", "partitions", INT, 1),
    )

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

    wire = Wire("hvc", Field("directory", "directory", STR))

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


class FlightsSource(DataSource):
    """Synthetic flights (:mod:`repro.data.flights`), generated on load."""

    # A spec's defaults, which clients rely on; the constructor's
    # ``partitions`` default (8) is the in-process one.
    wire = Wire(
        "flights",
        Field("total_rows", "rows", INT, 100_000),
        Field("partitions", "partitions", INT, 16),
        Field("seed", "seed", INT, 0),
        Field("extra_columns", "extraColumns", INT, 0),
    )

    def __init__(
        self,
        total_rows: int,
        partitions: int = 8,
        seed: int = 0,
        extra_columns: int = 0,
    ):
        self.total_rows = total_rows
        self.partitions = partitions
        self.seed = seed
        self.extra_columns = extra_columns

    def load(self) -> list[Table]:
        return self._load_slice(0, 1)

    def _load_slice(self, index: int, count: int) -> list[Table]:
        """Generate only this worker's partitions (each is independently
        reproducible, so a worker process loads 1/N of the data)."""
        from repro.data.flights import generate_flights

        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        base = self.total_rows // self.partitions
        remainder = self.total_rows % self.partitions
        sized = [
            (i, base + (1 if i < remainder else 0))
            for i in range(self.partitions)
        ]
        populated = [(i, rows) for i, rows in sized if rows > 0]
        return [
            generate_flights(
                rows,
                seed=self.seed,
                extra_columns=self.extra_columns,
                shard_id=f"flights-{i:04d}",
            )
            for i, rows in populated[index::count]
        ]

    def spec(self) -> str:
        return (
            f"FlightsSource(rows={self.total_rows},parts={self.partitions},"
            f"seed={self.seed},extra={self.extra_columns})"
        )


def source_for_path(
    path: str, sql_table: str | None = None, partitions: int = 8
) -> DataSource:
    """Pick a data source from a file path's extension (§2, no ingestion)."""
    lower = path.lower()
    if sql_table is not None or lower.endswith((".db", ".sqlite", ".sqlite3")):
        if sql_table is None:
            raise HillviewError(
                "SQL databases need --sql-table to select the table"
            )
        return SqlSource(path, sql_table, partitions=partitions)
    if lower.endswith(".csv"):
        return CsvSource(path)
    if lower.endswith((".jsonl", ".ndjson", ".json")):
        return JsonlSource(path)
    if lower.endswith((".log", ".syslog")):
        return SyslogSource(path)
    return ColumnarDatasetSource(path)
