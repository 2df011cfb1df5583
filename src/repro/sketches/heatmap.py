"""Heat map vizketch (§4.3).

Bins two columns into a ``Bx x By`` grid where each bin is rendered as a
``b x b`` pixel block whose color encodes density.  With ~20 discernible
colors the required accuracy per bin is half a color shade, giving the
sample bound of :func:`repro.core.sampling.heatmap_sample_size`.

Sampling is only sound when the count-to-color map is linear; log-scale
color maps need exact counts (§4.3 footnote, Appendix C.2), so the
spreadsheet uses ``rate=1.0`` for log-scale heat maps.
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
class HeatmapSummary(Summary):
    """A matrix of bin counts; merge adds matrices."""

    counts: np.ndarray  # int64[Bx, By]
    x_missing: int = 0
    y_missing: int = 0
    out_of_range: int = 0
    sampled_rows: int = 0

    wire = Wire(
        "heatmap",
        Field("counts", "counts", COUNTS),
        Field("x_missing", "xMissing", UVARINT),
        Field("y_missing", "yMissing", UVARINT),
        Field("out_of_range", "outOfRange", UVARINT),
        Field("sampled_rows", "sampledRows", UVARINT),
    )

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape  # type: ignore[return-value]

    @property
    def total_in_range(self) -> int:
        return int(self.counts.sum())

    def proportions(self) -> np.ndarray:
        total = self.total_in_range
        if total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / total

    def transposed(self) -> "HeatmapSummary":
        """The same density with the axes swapped (§3.4: "swap axes").

        No recomputation is needed: the bin counts are symmetric in the two
        columns, so the UI can flip a heat map instantly from the summary it
        already holds.
        """
        return HeatmapSummary(
            counts=self.counts.T.copy(),
            x_missing=self.y_missing,
            y_missing=self.x_missing,
            out_of_range=self.out_of_range,
            sampled_rows=self.sampled_rows,
        )


class HeatmapSketch(SampledSketch[HeatmapSummary]):
    """Two-dimensional frequency sketch."""

    wire = Wire(
        "heatmap",
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
        return f"Heatmap({self.x_column},{self.y_column})"

    def cache_key(self) -> str | None:
        if not self.deterministic:
            return None
        return (
            f"Heatmap({self.x_column!r},{self.x_buckets.spec()},"
            f"{self.y_column!r},{self.y_buckets.spec()})"
        )

    def zero(self) -> HeatmapSummary:
        return HeatmapSummary(
            counts=np.zeros((self.x_buckets.count, self.y_buckets.count), dtype=np.int64)
        )

    def summarize(self, table: Table) -> HeatmapSummary:
        rows = self.sampled_rows(table)
        x_binned = bin_rows(table, self.x_column, self.x_buckets, rows)
        y_binned = bin_rows(table, self.y_column, self.y_buckets, rows)
        cells = count_cells(
            [x_binned.indexes, y_binned.indexes],
            [self.x_buckets.count, self.y_buckets.count],
        )
        counts = cells[1:, 1:]
        scanned = len(x_binned.indexes)
        out_of_range = scanned - int(counts.sum()) - x_binned.missing
        return HeatmapSummary(
            counts=counts,
            x_missing=x_binned.missing,
            y_missing=y_binned.missing,
            out_of_range=max(out_of_range, 0),
            sampled_rows=scanned,
        )

    def summarize_reference(self, table: Table) -> HeatmapSummary:
        """Per-row oracle for :meth:`summarize` (differential tests)."""
        rows = self.sampled_indices(table)
        counts = np.zeros((self.x_buckets.count, self.y_buckets.count), dtype=np.int64)
        x_missing = y_missing = not_both = 0
        for row in rows:
            xi = bin_row_reference(table, self.x_column, int(row), self.x_buckets)
            yi = bin_row_reference(table, self.y_column, int(row), self.y_buckets)
            if xi is None:
                x_missing += 1
            if yi is None:
                y_missing += 1
            if xi is None or xi < 0 or yi is None or yi < 0:
                not_both += 1
            else:
                counts[xi, yi] += 1
        return HeatmapSummary(
            counts=counts,
            x_missing=x_missing,
            y_missing=y_missing,
            out_of_range=max(not_both - x_missing, 0),
            sampled_rows=len(rows),
        )

    def merge(self, left: HeatmapSummary, right: HeatmapSummary) -> HeatmapSummary:
        return HeatmapSummary(
            counts=left.counts + right.counts,
            x_missing=left.x_missing + right.x_missing,
            y_missing=left.y_missing + right.y_missing,
            out_of_range=left.out_of_range + right.out_of_range,
            sampled_rows=left.sampled_rows + right.sampled_rows,
        )
