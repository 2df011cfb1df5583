"""Sort orders over table rows (paper §3.3: sort by a set of columns).

Two representations cooperate:

* within one shard, sorting is vectorized through per-column numeric
  *surrogates* (dictionary ranks for strings, -inf for missing values);
* across shards, rows are compared through :class:`RowKey`, built from the
  actual cell values, because surrogate ranks are only meaningful within a
  single shard's dictionary.

Missing values sort before present values in ascending order; a descending
orientation reverses the entire component, missing-ness included.

A key from elsewhere (a page's start position) is placed in a shard without
walking it: its leading cell maps into the shard's surrogate space
(:meth:`ColumnSortOrientation.surrogate_of`), which settles every row but
those tied with it there, and :meth:`RecordOrder.first_after` bisects the
ties with real :class:`RowKey` comparisons.

A float64 surrogate cannot tell int64 values beyond ±2**53 apart, nor ±inf
from the largest finite doubles.  Ordered views over such cells are not
supported: within a shard they group as one value, and a page that starts
among them may skip rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.serialization import Decoder, Encoder
from repro.core.wire import ROW, Kind
from repro.errors import ProtocolError, SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from repro.table.table import Table


@dataclass(frozen=True)
class ColumnSortOrientation:
    """One column of a sort order with its direction."""

    column: str
    ascending: bool = True

    def spec(self) -> str:
        return f"{self.column}:{'asc' if self.ascending else 'desc'}"

    def surrogate(self, table: "Table", rows: np.ndarray) -> np.ndarray:
        """This column's numeric sort key, aligned with ``rows``.

        Shard-local.  A descending column is negated (missing values, at
        -inf, thereby move to +inf, i.e. last — consistent with
        :class:`RowKey`).
        """
        surrogate = table.column(self.column).sort_surrogate(rows)
        return surrogate if self.ascending else -surrogate

    def surrogate_of(self, table: "Table", value: object | None) -> float:
        """Where a cell ``value`` (None = missing) falls in :meth:`surrogate`.

        The value need not occur in the shard: rows strictly below the
        result hold cells that sort before it here and rows strictly above
        hold cells that sort after it; only rows at it need comparing.
        """
        surrogate = table.column(self.column).surrogate_of(value)
        return surrogate if self.ascending else -surrogate


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


@functools.total_ordering
class RowKey:
    """A row's position in a :class:`RecordOrder`, comparable across shards.

    ``parts`` holds one ``(present, value)`` pair per sort column, where
    ``present`` is 0 for missing cells (so they sort first ascending) and
    ``value`` is the actual cell value.  ``directions`` holds +1/-1 per
    column.  Equality of keys defines row dedup-aggregation in tabular views.
    """

    __slots__ = ("parts", "directions")

    def __init__(self, parts: tuple, directions: tuple):
        self.parts = parts
        self.directions = directions

    def compare(self, other: "RowKey") -> int:
        for (p1, v1), (p2, v2), direction in zip(
            self.parts, other.parts, self.directions
        ):
            c = _cmp(p1, p2)
            if c == 0 and p1 == 1:
                c = _cmp(v1, v2)
            if c != 0:
                return c * direction
        return 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RowKey) and self.compare(other) == 0

    def __lt__(self, other: "RowKey") -> bool:
        return self.compare(other) < 0

    def __hash__(self) -> int:
        return hash(self.parts)

    def values(self) -> tuple:
        """The raw cell values (None for missing), in sort-column order."""
        return tuple(v if p else None for p, v in self.parts)

    def __repr__(self) -> str:
        return f"RowKey{self.values()!r}"


class RecordOrder:
    """An ordered list of column sort orientations."""

    def __init__(self, orientations: Iterable[ColumnSortOrientation]):
        self.orientations = list(orientations)
        if not self.orientations:
            raise SchemaError("a sort order needs at least one column")
        names = [o.column for o in self.orientations]
        if len(names) != len(set(names)):
            raise SchemaError("sort order repeats a column")

    @classmethod
    def of(cls, *columns: str, ascending: bool | Sequence[bool] = True) -> "RecordOrder":
        """Convenience constructor: ``RecordOrder.of("a", "b")``."""
        if isinstance(ascending, bool):
            flags = [ascending] * len(columns)
        else:
            flags = list(ascending)
            if len(flags) != len(columns):
                raise SchemaError("ascending flags must match column count")
        return cls(
            ColumnSortOrientation(c, a) for c, a in zip(columns, flags)
        )

    def reversed(self) -> "RecordOrder":
        """The same columns with every direction flipped.

        Traversing the reversed order is how the spreadsheet pages
        *backward* (§3.3): the rows preceding a key forward are exactly the
        rows following it in the reversed order.
        """
        return RecordOrder(
            ColumnSortOrientation(o.column, not o.ascending)
            for o in self.orientations
        )

    @property
    def columns(self) -> list[str]:
        return [o.column for o in self.orientations]

    @property
    def directions(self) -> tuple:
        return tuple(1 if o.ascending else -1 for o in self.orientations)

    def spec(self) -> str:
        return ",".join(o.spec() for o in self.orientations)

    def surrogate_keys(
        self, table: "Table", rows: np.ndarray
    ) -> list[np.ndarray]:
        """Per-column numeric keys aligned with ``rows`` (shard-local)."""
        return [o.surrogate(table, rows) for o in self.orientations]

    def argsort(self, table: "Table", rows: np.ndarray | None = None) -> np.ndarray:
        """``rows`` reordered by this order (stable; ties keep row order).

        Returns row *indexes* into the table's universe, sorted.
        """
        if rows is None:
            rows = table.members.indices()
        if len(rows) == 0:
            return rows
        keys = self.surrogate_keys(table, rows)
        # np.lexsort uses the *last* key as primary; append row order last
        # reversed so the first orientation dominates and ties stay stable.
        order = np.lexsort(list(reversed(keys)))
        return rows[order]

    def first_after(
        self,
        table: "Table",
        sorted_rows: np.ndarray,
        key: RowKey,
        inclusive: bool = False,
    ) -> int:
        """The first position in ``sorted_rows`` whose row sorts after ``key``.

        With ``inclusive``, the first whose row sorts at or after it.
        ``sorted_rows`` must be in this order, which makes the test
        monotone: a binary search builds O(log n) row keys instead of one
        per row.
        """
        lo, hi = 0, len(sorted_rows)
        while lo < hi:
            mid = (lo + hi) // 2
            probe = self.row_key(table, int(sorted_rows[mid]))
            if (not probe < key) if inclusive else (key < probe):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def row_key(self, table: "Table", row: int) -> RowKey:
        """The cross-shard comparable key of ``row``."""
        parts = []
        for orientation in self.orientations:
            column = table.column(orientation.column)
            value = column.value(row)
            parts.append((0, None) if value is None else (1, value))
        return RowKey(tuple(parts), self.directions)

    def key_from_values(self, values: Sequence[object]) -> RowKey:
        """A :class:`RowKey` from raw cell values (None = missing)."""
        parts = tuple((0, None) if v is None else (1, v) for v in values)
        return RowKey(parts, self.directions)

    def encode(self, enc: Encoder) -> None:
        enc.write_uvarint(len(self.orientations))
        for o in self.orientations:
            enc.write_str(o.column)
            enc.write_bool(o.ascending)

    @classmethod
    def decode(cls, dec: Decoder) -> "RecordOrder":
        count = dec.read_uvarint()
        return cls(
            ColumnSortOrientation(dec.read_str() or "", dec.read_bool())
            for _ in range(count)
        )

    def __repr__(self) -> str:
        return f"RecordOrder({self.spec()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RecordOrder) and self.orientations == other.orientations


def order_to_json(order: RecordOrder) -> list[dict]:
    return [
        {"column": o.column, "ascending": o.ascending} for o in order.orientations
    ]


def order_from_json(data: list) -> RecordOrder:
    if not isinstance(data, list) or not data:
        raise ProtocolError("sort order must be a non-empty list")
    columns = [str(item["column"]) for item in data]
    flags = [bool(item.get("ascending", True)) for item in data]
    return RecordOrder.of(*columns, ascending=flags)


#: The wire kind of a sort order.
ORDER = Kind(
    "sort order",
    order_to_json,
    order_from_json,
    lambda enc, order: order.encode(enc),
    RecordOrder.decode,
)

#: A start position in a sketch spec: the raw cell values of a row key,
#: rebuilt against the spec's already-parsed order (the field's context).
START_KEY = Kind(
    "row",
    lambda key: ROW.to_json(key.values()),
    lambda data, order: order.key_from_values(ROW.from_json(data)),
)
