"""Shared bucket-index computation for chart vizketches.

Histograms, CDFs, stacked histograms, heat maps and trellis plots all need
the same primitive: map each row of a shard to a bucket index (or -1 for
out-of-range, or "missing").  Numeric columns bin vectorized; string columns
bin their *dictionary* once and map codes, so cost is O(rows + distinct).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.buckets import Buckets
from repro.table.column import StringColumn
from repro.table.dictionary import MISSING_CODE

if TYPE_CHECKING:  # pragma: no cover
    from repro.table.membership import Selection
    from repro.table.table import Table


@dataclass
class BinnedRows:
    """Bucket indexes for a set of rows plus the missing count."""

    indexes: np.ndarray  # int64, -1 = missing or out of range
    missing: int  # rows whose cell is missing

    @property
    def out_of_range(self) -> int:
        """Non-missing rows falling outside the buckets."""
        return int(np.count_nonzero(self.indexes < 0)) - self.missing


def bin_rows(
    table: "Table", column_name: str, buckets: Buckets, rows: "Selection"
) -> BinnedRows:
    """Bucket index of ``column_name`` for each row ``rows`` selects.

    The returned ``indexes`` array is aligned with the selected rows and
    contains -1 for both missing and out-of-range rows; ``missing`` and
    ``out_of_range`` separate the two.
    """
    column = table.column(column_name)
    if column.kind.is_string:
        if not isinstance(column, StringColumn):  # pragma: no cover - invariant
            raise TypeError("string-kinded column with non-string storage")
        code_bucket = buckets.index_strings(list(column.dictionary.values))
        codes = column.codes_at(rows)
        # MISSING_CODE (-1) wraps to the final slot, which holds -1.
        indexes = np.append(code_bucket, -1)[codes]
        return BinnedRows(indexes, int(np.count_nonzero(codes == MISSING_CODE)))
    values = column.numeric_values(rows)
    indexes = buckets.index_numeric(values)
    return BinnedRows(indexes, int(np.count_nonzero(np.isnan(values))))


def bin_row_reference(
    table: "Table", column_name: str, row: int, buckets: Buckets
) -> int | None:
    """Per-row oracle twin of :func:`bin_rows` (differential tests).

    Returns None when the cell is missing, -1 when out of range, else the
    bucket index — using the same scalar arithmetic/comparisons as the
    vectorized pass.
    """
    column = table.column(column_name)
    if column.kind.is_string:
        value = column.value(int(row))
        return None if value is None else buckets.index_of(value)
    value = float(column.numeric_values(np.array([row], dtype=np.int64))[0])
    if np.isnan(value):
        return None
    return buckets.index_of(value)


def count_cells(indexes: "list[np.ndarray]", counts: "list[int]") -> np.ndarray:
    """Joint bucket counts of aligned index arrays, one axis per array.

    Each axis gets a leading sentinel slot for its -1 entries, so
    ``out[i + 1, j + 1]`` counts the rows in bucket ``i`` of the first
    array and ``j`` of the second, and ``out[0, j + 1]`` the rows unusable
    on the first axis: one ``np.bincount`` over all rows, nothing compacted.
    """
    shape = tuple(count + 1 for count in counts)
    flat = indexes[0] + 1
    for index, size in zip(indexes[1:], shape[1:]):
        flat *= size
        flat += index
        flat += 1
    cells = np.bincount(flat, minlength=int(np.prod(shape)))
    return cells.astype(np.int64, copy=False).reshape(shape)
