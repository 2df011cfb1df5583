"""Trellis plot vizketches: arrays of plots grouped by 1 or 2 columns (B.1).

A trellis of k panes renders each pane into a fraction of the display, so
the total number of bins — and therefore the sample size — does *not* grow
with k; it shrinks per pane (Appendix B.1).  The summary is one inner-plot
summary per group bucket; all panes are computed in one pass over the data.

Per Figure 2, trellis plots generalize to "arrays of the other plots
grouped by one or two variables": this module provides heat-map panes
(:class:`TrellisHeatmapSketch`) and histogram panes
(:class:`TrellisHistogramSketch`), each accepting an optional second group
column whose buckets form the minor axis of the pane grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.buckets import BUCKETS, Buckets
from repro.core.sketch import R, SampledSketch, Summary
from repro.core.wire import F64, INT, STR, UVARINT, Field, Wire, summaries_of
from repro.sketches.binning import bin_row_reference, bin_rows, count_cells
from repro.sketches.heatmap import HeatmapSummary
from repro.sketches.histogram import HistogramSummary
from repro.table.membership import Selection
from repro.table.table import Table


def _bin_groups(
    sketch: _TrellisSketch, table: Table, rows: Selection
) -> tuple[np.ndarray, int, int]:
    """Flat pane index per row ``rows`` selects (−1 for unusable rows).

    With a second group column, the flat index is
    ``g1 * group2_buckets.count + g2`` — the pane grid in row-major order.
    Returns ``(indexes, missing, out_of_range)`` where a row counts as
    missing/out-of-range if *any* of its group values is.
    """
    g1 = bin_rows(table, sketch.group_column, sketch.group_buckets, rows)
    if sketch.group2_column is None:
        return g1.indexes, g1.missing, g1.out_of_range
    g2 = bin_rows(table, sketch.group2_column, sketch.group2_buckets, rows)
    ok = (g1.indexes >= 0) & (g2.indexes >= 0)
    flat = np.where(ok, g1.indexes * sketch.group2_buckets.count + g2.indexes, -1)
    # A row is missing if either group cell is (counted once, so the
    # residuals stay exactly mergeable across partitions); the remaining
    # unusable rows are out of range.
    g1_missing = table.column(sketch.group_column).missing_mask(rows)
    missing_mask = g1_missing | table.column(sketch.group2_column).missing_mask(rows)
    missing = int(np.count_nonzero(missing_mask))
    out_of_range = int(np.count_nonzero(~ok & ~missing_mask))
    return flat, missing, out_of_range


def _pane_of_row_reference(
    sketch: _TrellisSketch, table: Table, row: int
) -> tuple[int, str]:
    """Per-row oracle twin of :func:`_bin_groups` (differential tests).

    Returns ``(flat_index, state)`` with state one of ``"ok"``,
    ``"missing"``, ``"out_of_range"``; the flat index is -1 unless ok.
    """
    g1 = bin_row_reference(table, sketch.group_column, row, sketch.group_buckets)
    if sketch.group2_column is None:
        if g1 is None:
            return -1, "missing"
        return (g1, "ok") if g1 >= 0 else (-1, "out_of_range")
    g2 = bin_row_reference(table, sketch.group2_column, row, sketch.group2_buckets)
    if g1 is None or g2 is None:
        return -1, "missing"
    if g1 < 0 or g2 < 0:
        return -1, "out_of_range"
    return g1 * sketch.group2_buckets.count + g2, "ok"


@dataclass
class TrellisSummary(Summary):
    """One heat-map summary per group bucket (pane grid in row-major order)."""

    panes: list[HeatmapSummary]
    group_missing: int = 0
    group_out_of_range: int = 0
    sampled_rows: int = 0

    wire = Wire(
        "trellisHeatmap",
        Field("panes", "panes", summaries_of(HeatmapSummary)),
        Field("group_missing", "groupMissing", UVARINT),
        Field("group_out_of_range", "groupOutOfRange", UVARINT),
        Field("sampled_rows", "sampledRows", UVARINT),
    )


@dataclass
class TrellisHistogramSummary(Summary):
    """One histogram summary per group bucket (pane grid, row-major)."""

    panes: list[HistogramSummary]
    group_missing: int = 0
    group_out_of_range: int = 0
    sampled_rows: int = 0

    wire = Wire(
        "trellisHistogram",
        Field("panes", "panes", summaries_of(HistogramSummary)),
        Field("group_missing", "groupMissing", UVARINT),
        Field("group_out_of_range", "groupOutOfRange", UVARINT),
        Field("sampled_rows", "sampledRows", UVARINT),
    )


class _TrellisSketch(SampledSketch[R]):
    """The group column(s) of a trellis: a pane per bucket (row-major pairs)."""

    def __init__(
        self,
        rate: float,
        seed: int,
        group_column: str,
        group_buckets: Buckets,
        group2_column: str | None,
        group2_buckets: Buckets | None,
    ):
        super().__init__(rate, seed)
        if (group2_column is None) != (group2_buckets is None):
            raise ValueError("group2_column and group2_buckets go together")
        self.group_column = group_column
        self.group_buckets = group_buckets
        self.group2_column = group2_column
        self.group2_buckets = group2_buckets
        self.deterministic = rate >= 1.0

    @property
    def pane_count(self) -> int:
        count = self.group_buckets.count
        if self.group2_buckets is not None:
            count *= self.group2_buckets.count
        return count

    def _groups_name(self) -> str:
        second = "" if self.group2_column is None else f"x{self.group2_column}"
        return self.group_column + second

    def _groups_key(self) -> str:
        key = f"{self.group_column!r},{self.group_buckets.spec()}"
        if self.group2_column is None:
            return key
        return f"{key},{self.group2_column!r},{self.group2_buckets.spec()}"


class TrellisHeatmapSketch(_TrellisSketch[TrellisSummary]):
    """A trellis of heat maps: group column(s) W, then (X, Y) per pane."""

    wire = Wire(
        "trellisHeatmap",
        Field("group_column", "groupColumn", STR),
        Field("group_buckets", "groupBuckets", BUCKETS),
        Field("x_column", "xColumn", STR),
        Field("x_buckets", "xBuckets", BUCKETS),
        Field("y_column", "yColumn", STR),
        Field("y_buckets", "yBuckets", BUCKETS),
        Field("rate", "rate", F64, 1.0),
        Field("seed", "seed", INT, 0),
        Field("group2_column", "group2Column", STR, None),
        Field("group2_buckets", "group2Buckets", BUCKETS, None),
    )

    def __init__(
        self,
        group_column: str,
        group_buckets: Buckets,
        x_column: str,
        x_buckets: Buckets,
        y_column: str,
        y_buckets: Buckets,
        rate: float = 1.0,
        seed: int = 0,
        group2_column: str | None = None,
        group2_buckets: Buckets | None = None,
    ):
        super().__init__(
            rate, seed, group_column, group_buckets, group2_column, group2_buckets
        )
        self.x_column = x_column
        self.x_buckets = x_buckets
        self.y_column = y_column
        self.y_buckets = y_buckets

    @property
    def name(self) -> str:
        return f"Trellis({self._groups_name()};{self.x_column},{self.y_column})"

    def cache_key(self) -> str | None:
        if not self.deterministic:
            return None
        return (
            f"Trellis({self._groups_key()},"
            f"{self.x_column!r},{self.x_buckets.spec()},"
            f"{self.y_column!r},{self.y_buckets.spec()})"
        )

    def zero(self) -> TrellisSummary:
        bx, by = self.x_buckets.count, self.y_buckets.count
        return TrellisSummary(
            panes=[
                HeatmapSummary(counts=np.zeros((bx, by), dtype=np.int64))
                for _ in range(self.pane_count)
            ]
        )

    def summarize(self, table: Table) -> TrellisSummary:
        rows = self.sampled_rows(table)
        g_flat, g_missing, g_oor = _bin_groups(self, table, rows)
        x_binned = bin_rows(table, self.x_column, self.x_buckets, rows)
        y_binned = bin_rows(table, self.y_column, self.y_buckets, rows)
        # A single bincount covers every pane at once.
        cube = count_cells(
            [g_flat, x_binned.indexes, y_binned.indexes],
            [self.pane_count, self.x_buckets.count, self.y_buckets.count],
        )[1:, 1:, 1:]
        panes = [
            HeatmapSummary(counts=cube[g], sampled_rows=int(cube[g].sum()))
            for g in range(self.pane_count)
        ]
        return TrellisSummary(
            panes=panes,
            group_missing=g_missing,
            group_out_of_range=g_oor,
            sampled_rows=len(g_flat),
        )

    def summarize_reference(self, table: Table) -> TrellisSummary:
        """Per-row oracle for :meth:`summarize` (differential tests)."""
        rows = self.sampled_indices(table)
        groups = self.pane_count
        bx, by = self.x_buckets.count, self.y_buckets.count
        cube = np.zeros((groups, bx, by), dtype=np.int64)
        g_missing = g_oor = 0
        for row in rows:
            flat, state = _pane_of_row_reference(self, table, int(row))
            if state == "missing":
                g_missing += 1
                continue
            if state == "out_of_range":
                g_oor += 1
                continue
            xi = bin_row_reference(table, self.x_column, int(row), self.x_buckets)
            yi = bin_row_reference(table, self.y_column, int(row), self.y_buckets)
            if xi is None or xi < 0 or yi is None or yi < 0:
                continue
            cube[flat, xi, yi] += 1
        panes = [
            HeatmapSummary(counts=cube[g], sampled_rows=int(cube[g].sum()))
            for g in range(groups)
        ]
        return TrellisSummary(
            panes=panes,
            group_missing=g_missing,
            group_out_of_range=g_oor,
            sampled_rows=len(rows),
        )

    def merge(self, left: TrellisSummary, right: TrellisSummary) -> TrellisSummary:
        panes = [
            HeatmapSummary(
                counts=a.counts + b.counts,
                x_missing=a.x_missing + b.x_missing,
                y_missing=a.y_missing + b.y_missing,
                out_of_range=a.out_of_range + b.out_of_range,
                sampled_rows=a.sampled_rows + b.sampled_rows,
            )
            for a, b in zip(left.panes, right.panes)
        ]
        return TrellisSummary(
            panes=panes,
            group_missing=left.group_missing + right.group_missing,
            group_out_of_range=left.group_out_of_range + right.group_out_of_range,
            sampled_rows=left.sampled_rows + right.sampled_rows,
        )


class TrellisHistogramSketch(_TrellisSketch[TrellisHistogramSummary]):
    """A trellis of histograms: group column(s) W, then X per pane."""

    wire = Wire(
        "trellisHistogram",
        Field("group_column", "groupColumn", STR),
        Field("group_buckets", "groupBuckets", BUCKETS),
        Field("x_column", "xColumn", STR),
        Field("x_buckets", "xBuckets", BUCKETS),
        Field("rate", "rate", F64, 1.0),
        Field("seed", "seed", INT, 0),
        Field("group2_column", "group2Column", STR, None),
        Field("group2_buckets", "group2Buckets", BUCKETS, None),
    )

    def __init__(
        self,
        group_column: str,
        group_buckets: Buckets,
        x_column: str,
        x_buckets: Buckets,
        rate: float = 1.0,
        seed: int = 0,
        group2_column: str | None = None,
        group2_buckets: Buckets | None = None,
    ):
        super().__init__(
            rate, seed, group_column, group_buckets, group2_column, group2_buckets
        )
        self.x_column = x_column
        self.x_buckets = x_buckets

    @property
    def name(self) -> str:
        return f"TrellisHistogram({self._groups_name()};{self.x_column})"

    def cache_key(self) -> str | None:
        if not self.deterministic:
            return None
        return (
            f"TrellisHistogram({self._groups_key()},"
            f"{self.x_column!r},{self.x_buckets.spec()})"
        )

    def zero(self) -> TrellisHistogramSummary:
        b = self.x_buckets.count
        return TrellisHistogramSummary(
            panes=[
                HistogramSummary(counts=np.zeros(b, dtype=np.int64))
                for _ in range(self.pane_count)
            ]
        )

    def summarize(self, table: Table) -> TrellisHistogramSummary:
        rows = self.sampled_rows(table)
        g_flat, g_missing, g_oor = _bin_groups(self, table, rows)
        x_binned = bin_rows(table, self.x_column, self.x_buckets, rows)
        cells = count_cells(
            [g_flat, x_binned.indexes], [self.pane_count, self.x_buckets.count]
        )
        # X residuals attributed per pane land in the X sentinel column:
        # rows whose group is known but X is missing or out of range.
        grid, residuals = cells[1:, 1:], cells[1:, 0]
        panes = [
            HistogramSummary(
                counts=grid[g],
                missing=int(residuals[g]),
                sampled_rows=int(grid[g].sum()) + int(residuals[g]),
            )
            for g in range(self.pane_count)
        ]
        return TrellisHistogramSummary(
            panes=panes,
            group_missing=g_missing,
            group_out_of_range=g_oor,
            sampled_rows=len(g_flat),
        )

    def summarize_reference(self, table: Table) -> TrellisHistogramSummary:
        """Per-row oracle for :meth:`summarize` (differential tests)."""
        rows = self.sampled_indices(table)
        groups = self.pane_count
        b = self.x_buckets.count
        grid = np.zeros((groups, b), dtype=np.int64)
        residuals = np.zeros(groups, dtype=np.int64)
        g_missing = g_oor = 0
        for row in rows:
            flat, state = _pane_of_row_reference(self, table, int(row))
            if state == "missing":
                g_missing += 1
                continue
            if state == "out_of_range":
                g_oor += 1
                continue
            xi = bin_row_reference(table, self.x_column, int(row), self.x_buckets)
            if xi is None or xi < 0:
                residuals[flat] += 1
            else:
                grid[flat, xi] += 1
        panes = [
            HistogramSummary(
                counts=grid[g],
                missing=int(residuals[g]),
                sampled_rows=int(grid[g].sum()) + int(residuals[g]),
            )
            for g in range(groups)
        ]
        return TrellisHistogramSummary(
            panes=panes,
            group_missing=g_missing,
            group_out_of_range=g_oor,
            sampled_rows=len(rows),
        )

    def merge(
        self, left: TrellisHistogramSummary, right: TrellisHistogramSummary
    ) -> TrellisHistogramSummary:
        panes = [
            HistogramSummary(
                counts=a.counts + b.counts,
                missing=a.missing + b.missing,
                out_of_range=a.out_of_range + b.out_of_range,
                sampled_rows=a.sampled_rows + b.sampled_rows,
            )
            for a, b in zip(left.panes, right.panes)
        ]
        return TrellisHistogramSummary(
            panes=panes,
            group_missing=left.group_missing + right.group_missing,
            group_out_of_range=left.group_out_of_range + right.group_out_of_range,
            sampled_rows=left.sampled_rows + right.sampled_rows,
        )
