"""Column statistics sketch: range, counts and statistical moments (§B.3).

This sketch implements both the "Range" vizketch (used by the preparation
phase of every chart, Fig 9) and the "Moments" sketch that backs the column
summary view.  It collects, in one pass:

* present and missing row counts;
* minimum and maximum values;
* power sums ``sum(x^k)`` for k = 1..K (mean and variance are k <= 2).

For string columns the min/max are tracked over the strings themselves and
the moments stay empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.sketch import Sketch, Summary
from repro.core.wire import CELL, F64_LIST, INT, STR, UVARINT, Field, Wire
from repro.table.column import StringColumn
from repro.table.dictionary import MISSING_CODE
from repro.table.membership import Selection
from repro.table.table import Table


@dataclass
class ColumnStats(Summary):
    """Mergeable column statistics."""

    present_count: int = 0
    missing_count: int = 0
    min_value: object | None = None
    max_value: object | None = None
    #: power_sums[k-1] == sum of x**k over present rows (numeric columns).
    power_sums: list[float] = field(default_factory=list)

    wire = Wire(
        "columnStats",
        Field("present_count", "presentCount", UVARINT),
        Field("missing_count", "missingCount", UVARINT),
        Field("min_value", "min", CELL),
        Field("max_value", "max", CELL),
        Field("power_sums", "powerSums", F64_LIST),
    )

    @property
    def row_count(self) -> int:
        return self.present_count + self.missing_count

    @property
    def mean(self) -> float:
        if self.present_count == 0 or not self.power_sums:
            return float("nan")
        return self.power_sums[0] / self.present_count

    @property
    def variance(self) -> float:
        """Population variance from the first two moments."""
        if self.present_count == 0 or len(self.power_sums) < 2:
            return float("nan")
        mean = self.mean
        return max(0.0, self.power_sums[1] / self.present_count - mean * mean)

    @property
    def std_dev(self) -> float:
        return float(np.sqrt(self.variance))

    def moment(self, k: int) -> float:
        """The k-th raw moment ``E[x^k]``."""
        if self.present_count == 0 or len(self.power_sums) < k:
            return float("nan")
        return self.power_sums[k - 1] / self.present_count


class MomentsSketch(Sketch[ColumnStats]):
    """One-pass range + moments sketch over a single column.

    Deterministic, hence cacheable: the engine's computation cache reuses
    range results across charts on the same column (paper §5.4).
    """

    wire = Wire(
        "moments",
        Field("column", "column", STR),
        Field("moments", "moments", INT, 2),
    )

    def __init__(self, column: str, moments: int = 2):
        if moments < 0:
            raise ValueError("moments must be >= 0")
        self.column = column
        self.moments = moments

    def cache_key(self) -> str:
        return f"Moments({self.column!r},k={self.moments})"

    def zero(self) -> ColumnStats:
        return ColumnStats()

    def summarize(self, table: Table) -> ColumnStats:
        from repro.table.column import millis_to_datetime
        from repro.table.schema import ContentsKind

        column = table.column(self.column)
        rows = table.members.selection()
        if column.kind.is_string:
            return self._summarize_string(column, rows)
        values = column.numeric_values(rows)
        present = values[~np.isnan(values)]
        stats = ColumnStats(
            present_count=len(present),
            missing_count=len(values) - len(present),
        )
        if len(present):
            if column.kind is ContentsKind.DATE:
                # Dates report their natural values; moments stay in millis.
                stats.min_value = millis_to_datetime(int(present.min()))
                stats.max_value = millis_to_datetime(int(present.max()))
            else:
                stats.min_value = float(present.min())
                stats.max_value = float(present.max())
            stats.power_sums = [
                float(np.power(present, k).sum()) for k in range(1, self.moments + 1)
            ]
        else:
            stats.power_sums = [0.0] * self.moments
        return stats

    def _summarize_string(self, column, rows: Selection) -> ColumnStats:
        if not isinstance(column, StringColumn):  # pragma: no cover - invariant
            raise TypeError("string-kinded column with non-string storage")
        codes = column.codes_at(rows)
        present = codes[codes != MISSING_CODE]
        stats = ColumnStats(
            present_count=len(present), missing_count=len(codes) - len(present)
        )
        if len(present):
            used = {column.dictionary.value(int(c)) for c in np.unique(present)}
            stats.min_value = min(used)
            stats.max_value = max(used)
        return stats

    def merge(self, left: ColumnStats, right: ColumnStats) -> ColumnStats:
        merged = ColumnStats(
            present_count=left.present_count + right.present_count,
            missing_count=left.missing_count + right.missing_count,
        )
        mins = [v for v in (left.min_value, right.min_value) if v is not None]
        maxs = [v for v in (left.max_value, right.max_value) if v is not None]
        merged.min_value = min(mins) if mins else None
        merged.max_value = max(maxs) if maxs else None
        width = max(len(left.power_sums), len(right.power_sums))
        merged.power_sums = [
            (left.power_sums[k] if k < len(left.power_sums) else 0.0)
            + (right.power_sums[k] if k < len(right.power_sums) else 0.0)
            for k in range(width)
        ]
        return merged
