"""Histogram vizketches: streaming (exact) and sampled (§4.3, B.1).

The summarize function outputs a vector of B bin counts; merge adds two
vectors.  The sampled variant draws a Bernoulli sample at a globally chosen
rate (from :mod:`repro.core.sampling`) and records how many rows it sampled,
so the renderer can scale estimates back to population counts.  At rate 1.0
the sampled sketch degenerates to the streaming sketch bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.buckets import BUCKETS, Buckets
from repro.core.sketch import SampledSketch, Summary
from repro.core.wire import COUNTS, F64, INT, STR, UVARINT, Field, Wire
from repro.sketches.binning import bin_row_reference, bin_rows, count_cells
from repro.table.table import Table


@dataclass
class HistogramSummary(Summary):
    """Bucket counts plus residual counts, over the rows examined."""

    counts: np.ndarray  # int64[B]
    missing: int = 0
    out_of_range: int = 0
    #: Rows examined by summarize (== population rows when rate is 1.0).
    sampled_rows: int = 0

    wire = Wire(
        "histogram",
        Field("counts", "counts", COUNTS),
        Field("missing", "missing", UVARINT),
        Field("out_of_range", "outOfRange", UVARINT),
        Field("sampled_rows", "sampledRows", UVARINT),
    )

    @property
    def buckets(self) -> int:
        return len(self.counts)

    @property
    def total_in_range(self) -> int:
        return int(self.counts.sum())

    def scaled_counts(self, rate: float) -> np.ndarray:
        """Estimated population counts given the global sampling rate."""
        if rate >= 1.0:
            return self.counts.astype(np.float64)
        return self.counts / rate

    def proportions(self) -> np.ndarray:
        """Bucket proportions among in-range rows (rate cancels out)."""
        total = self.total_in_range
        if total == 0:
            return np.zeros(self.buckets, dtype=np.float64)
        return self.counts / total


class HistogramSketch(SampledSketch[HistogramSummary]):
    """Histogram over one column (numeric, date, or bucketed strings).

    ``rate=1.0`` (the default) is the *streaming* histogram: an exact scan
    with no error, usable when users "want results precise to the last
    digit" (Appendix B.1).  A rate below 1.0 is the sampled vizketch with
    the pixel-accuracy guarantee of Theorem 3.
    """

    wire = Wire(
        "histogram",
        Field("column", "column", STR),
        Field("buckets", "buckets", BUCKETS),
        Field("rate", "rate", F64, 1.0),
        Field("seed", "seed", INT, 0),
    )

    def __init__(
        self,
        column: str,
        buckets: Buckets,
        rate: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(rate, seed)
        self.column = column
        self.buckets = buckets
        # An exact scan is deterministic and therefore cacheable.
        self.deterministic = rate >= 1.0

    @property
    def name(self) -> str:
        kind = "streaming" if self.rate >= 1.0 else "sampled"
        return f"Histogram[{kind}]({self.column})"

    def cache_key(self) -> str | None:
        if not self.deterministic:
            return None
        return f"Histogram({self.column!r},{self.buckets.spec()})"

    def zero(self) -> HistogramSummary:
        return HistogramSummary(counts=np.zeros(self.buckets.count, dtype=np.int64))

    def summarize(self, table: Table) -> HistogramSummary:
        binned = bin_rows(table, self.column, self.buckets, self.sampled_rows(table))
        cells = count_cells([binned.indexes], [self.buckets.count])
        return HistogramSummary(
            counts=cells[1:],
            missing=binned.missing,
            out_of_range=int(cells[0]) - binned.missing,
            sampled_rows=len(binned.indexes),
        )

    def summarize_reference(self, table: Table) -> HistogramSummary:
        """Per-row oracle for :meth:`summarize` (differential tests)."""
        rows = self.sampled_indices(table)
        counts = np.zeros(self.buckets.count, dtype=np.int64)
        missing = out_of_range = 0
        for row in rows:
            index = bin_row_reference(table, self.column, int(row), self.buckets)
            if index is None:
                missing += 1
            elif index < 0:
                out_of_range += 1
            else:
                counts[index] += 1
        return HistogramSummary(
            counts=counts,
            missing=missing,
            out_of_range=out_of_range,
            sampled_rows=len(rows),
        )

    def merge(
        self, left: HistogramSummary, right: HistogramSummary
    ) -> HistogramSummary:
        return HistogramSummary(
            counts=left.counts + right.counts,
            missing=left.missing + right.missing,
            out_of_range=left.out_of_range + right.out_of_range,
            sampled_rows=left.sampled_rows + right.sampled_rows,
        )
