"""Exact distinct-values sketch.

Collects the set of distinct values of a column.  The summary grows with
the number of *distinct* values (not rows), so it is appropriate for
categorical columns — e.g., deciding whether a string column gets one
bucket per value (<= 50 distinct, Appendix B.1).  ``limit`` guards against
accidentally sketching a high-cardinality column; approximate counting for
those belongs to :class:`repro.sketches.hll.HyperLogLogSketch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.sketch import Sketch, Summary
from repro.core.wire import BOOL, CELL, UVARINT, Field, Wire, list_of, via
from repro.errors import EngineError
from repro.table.column import StringColumn
from repro.table.dictionary import MISSING_CODE
from repro.table.table import Table


def _sorted_values(values: set) -> list:
    return sorted(values, key=lambda v: (v is None, v))


@dataclass
class DistinctSetSummary(Summary):
    """The set of distinct values seen, plus a truncation flag."""

    values: set = field(default_factory=set)
    missing: int = 0
    #: True when the limit was hit and the set is no longer exhaustive.
    truncated: bool = False

    @property
    def count(self) -> int:
        return len(self.values)

    def sorted_values(self) -> list:
        return _sorted_values(self.values)

    # Tagged although no sketch spec reaches it: a cached result is held
    # in its tagged binary form (the set travels sorted, hence canonical).
    wire = Wire(
        "distinctSet",
        Field("values", "values", via(list_of(CELL), "cells", _sorted_values, set)),
        Field("missing", "missing", UVARINT),
        Field("truncated", "truncated", BOOL),
    )


class ExactDistinctSketch(Sketch[DistinctSetSummary]):
    """Exact distinct values of a column, bounded by ``limit``."""

    def __init__(self, column: str, limit: int = 100_000):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.column = column
        self.limit = limit

    @property
    def name(self) -> str:
        return f"Distinct({self.column})"

    def cache_key(self) -> str:
        return f"Distinct({self.column!r},limit={self.limit})"

    def zero(self) -> DistinctSetSummary:
        return DistinctSetSummary()

    def _bounded(self, summary: DistinctSetSummary) -> DistinctSetSummary:
        if len(summary.values) > self.limit:
            ordered = summary.sorted_values()[: self.limit]
            return DistinctSetSummary(
                values=set(ordered), missing=summary.missing, truncated=True
            )
        return summary

    def summarize(self, table: Table) -> DistinctSetSummary:
        rows = table.members.selection()
        column = table.column(self.column)
        if isinstance(column, StringColumn):
            codes = column.codes_at(rows)
            present = codes[codes != MISSING_CODE]
            missing = len(codes) - len(present)
            names = column.dictionary.values
            values = {names[int(c)] for c in np.unique(present)}
        else:
            numeric = column.numeric_values(rows)
            present_values = numeric[~np.isnan(numeric)]
            missing = len(numeric) - len(present_values)
            values = {float(v) for v in np.unique(present_values)}
        return self._bounded(DistinctSetSummary(values=values, missing=missing))

    def merge(
        self, left: DistinctSetSummary, right: DistinctSetSummary
    ) -> DistinctSetSummary:
        return self._bounded(
            DistinctSetSummary(
                values=left.values | right.values,
                missing=left.missing + right.missing,
                truncated=left.truncated or right.truncated,
            )
        )

    def require_exact(self, summary: DistinctSetSummary) -> DistinctSetSummary:
        """Raise if the summary was truncated (callers needing exactness)."""
        if summary.truncated:
            raise EngineError(
                f"column {self.column!r} exceeded the {self.limit} distinct-value"
                " limit; use HyperLogLogSketch for approximate counting"
            )
        return summary
