"""Quantile vizketch for the scroll bar (§4.3, Appendix C.1).

When the user drags the scroll bar to pixel j of V, the spreadsheet must
jump to the row whose *rank* is approximately j/V under the current sort
order.  Theorem 2: a uniform sample of ``O(V^2 log(1/delta))`` rows contains
an element within ``epsilon = 1/(2V)`` of the requested rank w.h.p.; the
summary is simply that sample, kept sorted.

The summary size depends only on the display height — never the data size —
which is what makes this a vizketch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sketch import SampledSketch, Summary
from repro.core.wire import F64, INT, ROWS, UVARINT, Field, Wire
from repro.table.sort import ORDER, RecordOrder
from repro.table.table import Table


@dataclass
class QuantileSummary(Summary):
    """A sorted uniform sample of row keys (raw cell values per row)."""

    order: RecordOrder
    samples: list[tuple] = field(default_factory=list)
    scanned: int = 0

    wire = Wire(
        "quantile",
        Field("order", "order", ORDER),
        Field("samples", "samples", ROWS),
        Field("scanned", "scanned", UVARINT),
    )

    def quantile(self, fraction: float) -> tuple | None:
        """The sampled row whose relative rank is closest to ``fraction``."""
        if not self.samples:
            return None
        fraction = min(max(fraction, 0.0), 1.0)
        position = min(
            len(self.samples) - 1, int(round(fraction * (len(self.samples) - 1)))
        )
        return self.samples[position]


class SampleQuantileSketch(SampledSketch[QuantileSummary]):
    """Uniform row-key sample under a sort order.

    ``max_size`` bounds the summary during merges: when a merged sample
    exceeds ``2 * max_size`` it is decimated by keeping every other element
    of the *sorted* list, which preserves quantiles while halving the size.
    """

    wire = Wire(
        "quantile",
        Field("order", "order", ORDER),
        Field("rate", "rate", F64, 1.0),
        Field("seed", "seed", INT, 0),
    )

    def __init__(
        self,
        order: RecordOrder,
        rate: float,
        seed: int = 0,
        max_size: int = 2500,
    ):
        super().__init__(rate, seed)
        if max_size < 2:
            raise ValueError("max_size must be >= 2")
        self.order = order
        self.max_size = max_size

    @property
    def name(self) -> str:
        return f"Quantile({self.order.spec()})"

    def zero(self) -> QuantileSummary:
        return QuantileSummary(order=self.order)

    def summarize(self, table: Table) -> QuantileSummary:
        rows = self.sampled_indices(table)
        sorted_rows = self.order.argsort(table, rows)
        columns = [table.column(c) for c in self.order.columns]
        # One batched values_at pass per column, then a transpose into
        # per-row tuples — no per-row column.value calls.
        samples = list(
            zip(*(column.values_at(sorted_rows) for column in columns))
        ) if len(sorted_rows) else []
        summary = QuantileSummary(
            order=self.order, samples=samples, scanned=table.num_rows
        )
        return self._bounded(summary)

    def summarize_reference(self, table: Table) -> QuantileSummary:
        """Per-row oracle for :meth:`summarize` (differential tests)."""
        rows = self.sampled_indices(table)
        sorted_rows = self.order.argsort(table, rows)
        columns = [table.column(c) for c in self.order.columns]
        samples = [
            tuple(column.value(int(row)) for column in columns)
            for row in sorted_rows
        ]
        summary = QuantileSummary(
            order=self.order, samples=samples, scanned=table.num_rows
        )
        return self._bounded(summary)

    def merge(self, left: QuantileSummary, right: QuantileSummary) -> QuantileSummary:
        # Linear two-way merge of sorted sample lists.
        lkeys = [self.order.key_from_values(v) for v in left.samples]
        rkeys = [self.order.key_from_values(v) for v in right.samples]
        merged: list[tuple] = []
        li = ri = 0
        while li < len(lkeys) and ri < len(rkeys):
            if rkeys[ri] < lkeys[li]:
                merged.append(right.samples[ri])
                ri += 1
            else:
                merged.append(left.samples[li])
                li += 1
        merged.extend(left.samples[li:])
        merged.extend(right.samples[ri:])
        return self._bounded(
            QuantileSummary(
                order=self.order,
                samples=merged,
                scanned=left.scanned + right.scanned,
            )
        )

    def _bounded(self, summary: QuantileSummary) -> QuantileSummary:
        while len(summary.samples) > 2 * self.max_size:
            summary.samples = summary.samples[::2]
        return summary
