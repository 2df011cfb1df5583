"""The Table: shared columns + a membership set + a shard identity.

Tables are immutable.  Filtering and column derivation return new tables
that *share* column storage with their parent (paper §5.6), so a filtered
view of a billion-row table costs only its membership structure.

``shard_id`` identifies the micropartition a table represents inside the
execution tree; sampled sketches key their random streams on it so replay
is deterministic (paper §5.8).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import MissingColumnError, SchemaError
from repro.table.column import Column, column_from_values
from repro.table.compute import Predicate, derive_column
from repro.table.membership import (
    FullMembership,
    MembershipSet,
    membership_from_indices,
)
from repro.table.schema import ColumnDescription, ContentsKind, Schema


class Table:
    """An immutable columnar table."""

    def __init__(
        self,
        columns: Sequence[Column],
        members: MembershipSet | None = None,
        shard_id: str = "shard-0",
    ):
        if not columns:
            raise SchemaError("a table needs at least one column")
        sizes = {column.size for column in columns}
        if len(sizes) != 1:
            raise SchemaError(f"columns disagree on size: {sorted(sizes)}")
        self._columns: dict[str, Column] = {}
        for column in columns:
            if column.name in self._columns:
                raise SchemaError(f"duplicate column {column.name!r}")
            self._columns[column.name] = column
        self.universe_size = columns[0].size
        self.members = members if members is not None else FullMembership(self.universe_size)
        if self.members.universe_size != self.universe_size:
            raise SchemaError(
                "membership universe differs from column size: "
                f"{self.members.universe_size} != {self.universe_size}"
            )
        self.shard_id = shard_id

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_pydict(
        cls,
        data: Mapping[str, Sequence[object]],
        kinds: Mapping[str, ContentsKind] | None = None,
        shard_id: str = "shard-0",
    ) -> "Table":
        """Build a table from ``{column: values}`` with kind inference."""
        kinds = kinds or {}
        columns = [
            column_from_values(name, values, kinds.get(name))
            for name, values in data.items()
        ]
        return cls(columns, shard_id=shard_id)

    @classmethod
    def concat(cls, tables: "Sequence[Table]", shard_id: str = "concat") -> "Table":
        """Materialize the concatenation of ``tables`` (test/tooling helper).

        Only member rows are kept; the result has full membership.
        """
        if not tables:
            raise SchemaError("cannot concatenate zero tables")
        schema = tables[0].schema
        for t in tables[1:]:
            if t.schema != schema:
                raise SchemaError("concatenated tables must share a schema")
        data: dict[str, list[object]] = {name: [] for name in schema.names}
        kinds = {desc.name: desc.kind for desc in schema}
        for t in tables:
            rows = t.members.indices()
            for name in schema.names:
                column = t.column(name)
                data[name].extend(column.value(int(r)) for r in rows)
        return cls.from_pydict(data, kinds, shard_id=shard_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return Schema(column.description for column in self._columns.values())

    @property
    def column_names(self) -> list[str]:
        return list(self._columns.keys())

    @property
    def num_rows(self) -> int:
        """Number of member rows (what queries observe)."""
        return self.members.size

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def num_cells(self) -> int:
        """Spreadsheet cells: rows x columns (the paper's headline metric)."""
        return self.num_rows * self.num_columns

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise MissingColumnError(name, self.column_names) from None

    def memory_bytes(self) -> int:
        """Heap bytes of the columns this table reads plus its membership.
        A derived table counts the columns it shares with its parent
        again: a table cannot tell which columns are its own."""
        columns = sum(column.memory_bytes() for column in self._columns.values())
        return columns + self.members.memory_bytes()

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, index: int) -> dict[str, object | None]:
        """The values of row ``index`` as ``{column: value}``."""
        return {name: col.value(index) for name, col in self._columns.items()}

    def rows(self, indices: Iterable[int]) -> list[dict[str, object | None]]:
        return [self.row(int(i)) for i in indices]

    def to_pydict(self) -> dict[str, list[object | None]]:
        """All member rows as ``{column: values}`` (materializes; for tests)."""
        rows = self.members.indices()
        return {
            name: [col.value(int(r)) for r in rows]
            for name, col in self._columns.items()
        }

    # ------------------------------------------------------------------
    # Derivation (immutable transforms)
    # ------------------------------------------------------------------
    def filter(self, predicate: Predicate) -> "Table":
        """Rows satisfying ``predicate``; shares column storage (§5.6)."""
        return self.filter_mask(predicate.evaluate(self, self.members.selection()))

    def filter_mask(self, member_mask: np.ndarray) -> "Table":
        """Keep the member rows whose aligned mask entry is True."""
        if len(member_mask) != self.num_rows:
            raise SchemaError("mask must align with member rows")
        members = self.members.subset(member_mask)
        return Table(list(self._columns.values()), members, shard_id=self.shard_id)

    def with_column(self, column: Column) -> "Table":
        if column.size != self.universe_size:
            raise SchemaError("new column size differs from table universe")
        if column.name in self._columns:
            raise SchemaError(f"column {column.name!r} already exists")
        return Table(
            list(self._columns.values()) + [column],
            self.members,
            shard_id=self.shard_id,
        )

    def derive(
        self,
        name: str,
        kind: ContentsKind,
        fn: Callable,
        vectorized: bool = False,
    ) -> "Table":
        """Append a user-defined map column (paper §5.6)."""
        return self.with_column(derive_column(self, name, kind, fn, vectorized))

    def select_columns(self, names: Sequence[str]) -> "Table":
        return Table(
            [self.column(name) for name in names],
            self.members,
            shard_id=self.shard_id,
        )

    # ------------------------------------------------------------------
    # Sharding (micropartitions, paper §5.3)
    # ------------------------------------------------------------------
    def split(self, parts: int) -> "list[Table]":
        """Split member rows into ``parts`` contiguous micropartitions.

        The returned tables share this table's column storage; only their
        membership (and shard id) differs.  Empty chunks are dropped.
        """
        if parts < 1:
            raise ValueError("parts must be >= 1")
        rows = self.members.indices()
        shards = []
        for i, chunk in enumerate(np.array_split(rows, parts)):
            if len(chunk) == 0:
                continue
            members = membership_from_indices(chunk, self.universe_size)
            shards.append(
                Table(
                    list(self._columns.values()),
                    members,
                    shard_id=f"{self.shard_id}/{i}",
                )
            )
        return shards

    def __repr__(self) -> str:
        return (
            f"<Table {self.shard_id!r} rows={self.num_rows} "
            f"cols={self.num_columns}>"
        )
