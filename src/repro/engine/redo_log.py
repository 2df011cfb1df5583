"""The root node's redo log (paper §5.7–5.8).

The redo log is the **only persistent structure in Hillview**: it records
the operation that created every dataset — the initial *load* from the
storage layer and each *map* derived from a parent.  Sketches are not
recorded: a randomized sketch's seed travels in the sketch spec that every
fan-out and retry sends.  Worker state is soft; when a leaf reports a
missing object, the root replays the lineage recorded here, recursing until
it bottoms out at a load from disk.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.wire import STR, Field, TaggedUnion, Wire, list_of
from repro.engine.dataset import TABLE_MAPS, TableMap
from repro.errors import EngineError
from repro.storage.loader import SOURCES, DataSource

#: The ops of a redo-log chain, by their ``op``.
LINEAGE_OPS = TaggedUnion("lineage", key="op")
#: A lineage chain as it crosses the worker wire: ``[load, map, ...]``.
LINEAGE = list_of(LINEAGE_OPS.kind, "lineage")


@dataclass(frozen=True)
class LoadOp(LINEAGE_OPS.Member):
    """Dataset created by loading a data source."""

    wire = Wire(
        "load",
        Field("dataset_id", "dataset", STR),
        Field("source", "source", SOURCES.kind),
    )

    dataset_id: str
    source: DataSource

    def describe(self) -> str:
        return f"load {self.dataset_id} <- {self.source.spec()}"


@dataclass(frozen=True)
class MapOp(LINEAGE_OPS.Member):
    """Dataset derived from a parent by a table map."""

    wire = Wire(
        "map",
        Field("dataset_id", "dataset", STR),
        Field("parent_id", "parent", STR),
        Field("table_map", "map", TABLE_MAPS.kind),
    )

    dataset_id: str
    parent_id: str
    table_map: TableMap

    def describe(self) -> str:
        return f"map {self.dataset_id} <- {self.parent_id} via {self.table_map.spec()}"


@dataclass
class RedoLog:
    """Append-only operation log with lineage lookup; ``_by_dataset``
    keeps ops in the order they were recorded."""

    _by_dataset: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record_load(self, dataset_id: str, source: DataSource) -> LoadOp:
        return self._record(LoadOp(dataset_id, source))

    def record_map(
        self, dataset_id: str, parent_id: str, table_map: TableMap
    ) -> MapOp:
        return self._record(MapOp(dataset_id, parent_id, table_map), parent_id)

    def _record(
        self, op: LoadOp | MapOp, parent_id: str | None = None
    ) -> LoadOp | MapOp:
        with self._lock:
            existing = self._by_dataset.get(op.dataset_id)
            if existing is not None:
                # Dataset ids are content-addressed: re-recording the same
                # op (another session, another root over a shared fleet)
                # is a no-op, while the same id naming *different* content
                # is corruption and must never pass silently.
                if existing.describe() != op.describe():
                    raise EngineError(
                        f"dataset {op.dataset_id!r} already recorded as "
                        f"{existing.describe()!r}"
                    )
                return existing
            if parent_id is not None and parent_id not in self._by_dataset:
                raise EngineError(f"unknown parent dataset {parent_id!r}")
            self._by_dataset[op.dataset_id] = op
        return op

    def creation_op(self, dataset_id: str) -> LoadOp | MapOp:
        """The operation that created ``dataset_id``."""
        with self._lock:
            try:
                return self._by_dataset[dataset_id]
            except KeyError:
                raise EngineError(
                    f"dataset {dataset_id!r} is not in the redo log"
                ) from None

    def lineage(self, dataset_id: str) -> list:
        """Creation chain from the root load down to ``dataset_id``.

        The first element is always a :class:`LoadOp`; the rest are
        :class:`MapOp` in application order — exactly the replay recipe of
        §5.7 ("the recursion ends when data is read from disk").
        """
        chain = []
        current = dataset_id
        while True:
            op = self.creation_op(current)
            chain.append(op)
            if isinstance(op, LoadOp):
                break
            current = op.parent_id
        chain.reverse()
        return chain

    def describe(self) -> list[str]:
        with self._lock:
            return [op.describe() for op in self._by_dataset.values()]

    def __len__(self) -> int:
        return len(self._by_dataset)
