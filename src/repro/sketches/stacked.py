"""Stacked (and normalized stacked) histogram vizketch (Appendix B.1).

Involves two columns X and Y: bars bin X (like a histogram) and each bar is
subdivided by a small number of Y "colors" (<= ~20, the number of reliably
distinguishable colors).  The summarize function outputs ``Bx`` bar counts
plus a ``Bx x By`` matrix of subdivision counts; merge adds both.

The *normalized* stacked histogram renders each bar at full height; small
bars then need relatively higher accuracy, so it must not sample — the
spreadsheet layer uses ``rate=1.0`` for it (Appendix B.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.buckets import BUCKETS, Buckets
from repro.core.sketch import SampledSketch, Summary
from repro.core.wire import COUNTS, F64, INT, STR, UVARINT, Field, Wire
from repro.sketches.binning import bin_row_reference, bin_rows, count_cells
from repro.table.table import Table


@dataclass
class StackedHistogramSummary(Summary):
    """Bar counts for X and subdivision counts for (X, Y)."""

    bar_counts: np.ndarray  # int64[Bx]: rows in X-bucket with any Y
    cell_counts: np.ndarray  # int64[Bx, By]: rows in (X-bucket, Y-bucket)
    y_missing: np.ndarray  # int64[Bx]: X in range but Y missing/out-of-range
    missing: int = 0  # X missing
    out_of_range: int = 0  # X out of range
    sampled_rows: int = 0

    wire = Wire(
        "stacked",
        Field("bar_counts", "barCounts", COUNTS),
        Field("cell_counts", "cellCounts", COUNTS),
        Field("y_missing", "yMissing", COUNTS),
        Field("missing", "missing", UVARINT),
        Field("out_of_range", "outOfRange", UVARINT),
        Field("sampled_rows", "sampledRows", UVARINT),
    )

    @property
    def x_buckets(self) -> int:
        return len(self.bar_counts)

    @property
    def y_buckets(self) -> int:
        return self.cell_counts.shape[1]

    @property
    def total_in_range(self) -> int:
        return int(self.bar_counts.sum())


class StackedHistogramSketch(SampledSketch[StackedHistogramSummary]):
    """Two-column stacked histogram."""

    wire = Wire(
        "stacked",
        Field("x_column", "xColumn", STR),
        Field("x_buckets", "xBuckets", BUCKETS),
        Field("y_column", "yColumn", STR),
        Field("y_buckets", "yBuckets", BUCKETS),
        Field("rate", "rate", F64, 1.0),
        Field("seed", "seed", INT, 0),
    )

    def __init__(
        self,
        x_column: str,
        x_buckets: Buckets,
        y_column: str,
        y_buckets: Buckets,
        rate: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(rate, seed)
        self.x_column = x_column
        self.x_buckets = x_buckets
        self.y_column = y_column
        self.y_buckets = y_buckets
        self.deterministic = rate >= 1.0

    @property
    def name(self) -> str:
        return f"StackedHistogram({self.x_column},{self.y_column})"

    def cache_key(self) -> str | None:
        if not self.deterministic:
            return None
        return (
            f"Stacked({self.x_column!r},{self.x_buckets.spec()},"
            f"{self.y_column!r},{self.y_buckets.spec()})"
        )

    def zero(self) -> StackedHistogramSummary:
        bx, by = self.x_buckets.count, self.y_buckets.count
        return StackedHistogramSummary(
            bar_counts=np.zeros(bx, dtype=np.int64),
            cell_counts=np.zeros((bx, by), dtype=np.int64),
            y_missing=np.zeros(bx, dtype=np.int64),
        )

    def summarize(self, table: Table) -> StackedHistogramSummary:
        rows = self.sampled_rows(table)
        x_binned = bin_rows(table, self.x_column, self.x_buckets, rows)
        y_binned = bin_rows(table, self.y_column, self.y_buckets, rows)
        cells = count_cells(
            [x_binned.indexes, y_binned.indexes],
            [self.x_buckets.count, self.y_buckets.count],
        )
        return StackedHistogramSummary(
            bar_counts=cells[1:].sum(axis=1),
            cell_counts=cells[1:, 1:],
            y_missing=cells[1:, 0],
            missing=x_binned.missing,
            out_of_range=int(cells[0].sum()) - x_binned.missing,
            sampled_rows=len(x_binned.indexes),
        )

    def summarize_reference(self, table: Table) -> StackedHistogramSummary:
        """Per-row oracle for :meth:`summarize` (differential tests)."""
        rows = self.sampled_indices(table)
        bx, by = self.x_buckets.count, self.y_buckets.count
        bar_counts = np.zeros(bx, dtype=np.int64)
        cell_counts = np.zeros((bx, by), dtype=np.int64)
        y_missing = np.zeros(bx, dtype=np.int64)
        missing = out_of_range = 0
        for row in rows:
            xi = bin_row_reference(table, self.x_column, int(row), self.x_buckets)
            if xi is None:
                missing += 1
                continue
            if xi < 0:
                out_of_range += 1
                continue
            bar_counts[xi] += 1
            yi = bin_row_reference(table, self.y_column, int(row), self.y_buckets)
            if yi is None or yi < 0:
                y_missing[xi] += 1
            else:
                cell_counts[xi, yi] += 1
        return StackedHistogramSummary(
            bar_counts=bar_counts,
            cell_counts=cell_counts,
            y_missing=y_missing,
            missing=missing,
            out_of_range=out_of_range,
            sampled_rows=len(rows),
        )

    def merge(
        self, left: StackedHistogramSummary, right: StackedHistogramSummary
    ) -> StackedHistogramSummary:
        return StackedHistogramSummary(
            bar_counts=left.bar_counts + right.bar_counts,
            cell_counts=left.cell_counts + right.cell_counts,
            y_missing=left.y_missing + right.y_missing,
            missing=left.missing + right.missing,
            out_of_range=left.out_of_range + right.out_of_range,
            sampled_rows=left.sampled_rows + right.sampled_rows,
        )
