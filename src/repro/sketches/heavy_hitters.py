"""Heavy hitters vizketches (§4.3, B.2): streaming and sampling variants.

*Streaming* uses the Misra-Gries algorithm [Misra & Gries 1982] in its
mergeable-summaries form [Agarwal et al. 2012]: a summary is a set of at
most k counters; reduction subtracts the (k+1)-st largest counter from all
and drops non-positive ones, adding that amount to the error bound.  Every
element with frequency >= n/(k+1) survives, and reported counts undercount
by at most the error bound.

*Sampling* (Theorem 4) samples ~``K^2 log(K/delta)`` rows and reports
values occurring at least ``3n/(4K)`` times in the sample: all elements
above frequency 1/K are found and none below 1/(4K) are reported, w.h.p.
The paper notes sampling wins when K is small; the crossover is measured in
``benchmarks/bench_heavy_hitters.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.sketch import SampledSketch, Sketch, Summary
from repro.core.wire import (
    CELL,
    F64,
    INT,
    STR,
    UVARINT,
    Field,
    Wire,
    list_of,
    pair_of,
    via,
)
from repro.table.column import StringColumn
from repro.table.dictionary import MISSING_CODE
from repro.table.membership import Selection
from repro.table.table import Table


def _canonical_value_rank(value: object) -> int:
    if isinstance(value, (bool, int, np.integer)):
        return 0
    if isinstance(value, (float, np.floating)):
        return 1
    if isinstance(value, str):
        return 2
    return 3


def canonical_counts(counts: dict) -> list[tuple[object, int]]:
    """``counts.items()`` in canonical wire order.

    Sorted by value kind first, then string form: a bare ``str(value)``
    sort ties distinct values whose string forms collide (``3`` vs
    ``"3"``), letting dict insertion order leak into the encoding.  With
    the kind rank the key is injective over any legal counts dict, so
    identical summaries from different merge orders (or a redo-log
    replay, §5.8) encode bit-identically.
    """
    return sorted(
        counts.items(),
        key=lambda kv: (_canonical_value_rank(kv[0]), str(kv[0])),
    )


#: A value -> count dict, carried as [value, count] pairs in canonical
#: order: the wire must not depend on merge (dict insertion) order.
VALUE_COUNTS = via(
    list_of(pair_of(CELL, UVARINT)), "[cell, count] pairs", canonical_counts, dict
)


@dataclass
class FrequencySummary(Summary):
    """Approximate value counts with a global undercount bound."""

    counts: dict = field(default_factory=dict)
    #: Reported counts may undercount true counts by at most this much.
    error_bound: int = 0
    #: Rows examined (population rows for streaming; sample size for sampling).
    scanned: int = 0

    wire = Wire(
        "frequencies",
        Field("counts", "counts", VALUE_COUNTS),
        Field("error_bound", "errorBound", UVARINT),
        Field("scanned", "scanned", UVARINT),
    )

    def hitters(self, threshold_fraction: float) -> list[tuple[object, int]]:
        """Values whose estimated frequency is >= ``threshold_fraction``.

        Counts are corrected upward by the error bound before thresholding
        so no true heavy hitter is dropped; sorted by count descending.
        """
        if self.scanned == 0:
            return []
        cutoff = threshold_fraction * self.scanned
        found = [
            (value, count)
            for value, count in self.counts.items()
            if count + self.error_bound >= cutoff
        ]
        found.sort(key=lambda item: (-item[1], str(item[0])))
        return found


def _exact_value_counts(table: Table, column_name: str, rows: Selection) -> tuple:
    """Exact value -> count over the selected rows (missing values
    excluded), and how many rows ``rows`` selects.  ``-0.0`` counts as
    ``0.0``: equal keys read alike, whichever shard or merge order met
    them first."""
    column = table.column(column_name)
    if isinstance(column, StringColumn):
        codes = column.codes_at(rows)
        unique, counts = np.unique(codes[codes != MISSING_CODE], return_counts=True)
        values = column.dictionary.values
        return {values[int(c)]: int(n) for c, n in zip(unique, counts)}, len(codes)
    values = column.numeric_values(rows)
    unique, counts = np.unique(values[~np.isnan(values)], return_counts=True)
    return {float(v): int(n) for v, n in zip(unique + 0.0, counts)}, len(values)


def _exact_value_counts_reference(
    table: Table, column_name: str, rows: np.ndarray
) -> dict:
    """Per-row oracle twin of :func:`_exact_value_counts`.

    Coerces each value exactly as the vectorized pass does (one-row
    ``numeric_values`` call) so the differential harness compares bytes,
    not approximations.
    """
    column = table.column(column_name)
    counts: dict = {}
    for row in rows:
        if isinstance(column, StringColumn):
            value = column.value(int(row))
        else:
            scalar = float(
                column.numeric_values(np.array([row], dtype=np.int64))[0]
            )
            value = None if np.isnan(scalar) else scalar + 0.0
        if value is None:
            continue
        counts[value] = counts.get(value, 0) + 1
    return counts


def _misra_gries_reduce(summary: FrequencySummary, k: int) -> FrequencySummary:
    """Shrink to at most k counters (mergeable-summaries reduction)."""
    if len(summary.counts) <= k:
        return summary
    ordered = sorted(summary.counts.values(), reverse=True)
    subtract = ordered[k]
    reduced = {
        value: count - subtract
        for value, count in summary.counts.items()
        if count > subtract
    }
    return FrequencySummary(
        counts=reduced,
        error_bound=summary.error_bound + subtract,
        scanned=summary.scanned,
    )


class MisraGriesSketch(Sketch[FrequencySummary]):
    """Streaming heavy hitters with at most ``k`` counters."""

    wire = Wire(
        "heavyHitters",
        Field("column", "column", STR),
        Field("k", "k", INT),
        variant=("method", "streaming"),
    )

    def __init__(self, column: str, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.column = column
        self.k = k

    @property
    def name(self) -> str:
        return f"HeavyHitters[streaming]({self.column},k={self.k})"

    def cache_key(self) -> str:
        return f"MisraGries({self.column!r},{self.k})"

    def zero(self) -> FrequencySummary:
        return FrequencySummary()

    def summarize(self, table: Table) -> FrequencySummary:
        counts, scanned = _exact_value_counts(table, self.column, table.members.selection())
        summary = FrequencySummary(counts=counts, scanned=scanned)
        return _misra_gries_reduce(summary, self.k)

    def summarize_reference(self, table: Table) -> FrequencySummary:
        """Per-row oracle for :meth:`summarize` (differential tests)."""
        rows = table.members.indices()
        counts = _exact_value_counts_reference(table, self.column, rows)
        summary = FrequencySummary(counts=counts, scanned=len(rows))
        return _misra_gries_reduce(summary, self.k)

    def merge(
        self, left: FrequencySummary, right: FrequencySummary
    ) -> FrequencySummary:
        counts = dict(left.counts)
        # repro: ignore[D002] — addition is order-independent; mixed int/str keys only sort at encode time via canonical_counts()
        for value, count in right.counts.items():
            counts[value] = counts.get(value, 0) + count
        merged = FrequencySummary(
            counts=counts,
            error_bound=left.error_bound + right.error_bound,
            scanned=left.scanned + right.scanned,
        )
        return _misra_gries_reduce(merged, self.k)


class SampleHeavyHittersSketch(SampledSketch[FrequencySummary]):
    """Sampling heavy hitters (Theorem 4).

    Summaries count a Bernoulli sample exactly; the root thresholds at
    ``3/(4K)`` of the sample via :meth:`FrequencySummary.hitters`.
    """

    wire = Wire(
        "heavyHitters",
        Field("column", "column", STR),
        Field("k", "k", INT),
        Field("rate", "rate", F64, 1.0),
        Field("seed", "seed", INT, 0),
        variant=("method", "sampling"),
    )

    def __init__(self, column: str, k: int, rate: float, seed: int = 0):
        super().__init__(rate, seed)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.column = column
        self.k = k

    @property
    def name(self) -> str:
        return f"HeavyHitters[sampling]({self.column},k={self.k})"

    @property
    def report_threshold(self) -> float:
        """The paper's reporting threshold: 3/(4K) of the sampled rows."""
        return 3.0 / (4.0 * self.k)

    def zero(self) -> FrequencySummary:
        return FrequencySummary()

    def summarize(self, table: Table) -> FrequencySummary:
        counts, scanned = _exact_value_counts(table, self.column, self.sampled_rows(table))
        return FrequencySummary(counts=counts, scanned=scanned)

    def summarize_reference(self, table: Table) -> FrequencySummary:
        """Per-row oracle for :meth:`summarize` (differential tests)."""
        rows = self.sampled_indices(table)
        counts = _exact_value_counts_reference(table, self.column, rows)
        return FrequencySummary(counts=counts, scanned=len(rows))

    def merge(
        self, left: FrequencySummary, right: FrequencySummary
    ) -> FrequencySummary:
        counts = dict(left.counts)
        # repro: ignore[D002] — addition is order-independent; ordering is canonicalized at encode time via canonical_counts()
        for value, count in right.counts.items():
            counts[value] = counts.get(value, 0) + count
        return FrequencySummary(
            counts=counts,
            error_bound=0,
            scanned=left.scanned + right.scanned,
        )

    def hitters(self, summary: FrequencySummary) -> list[tuple[object, int]]:
        """Apply the 3n/(4K) selection rule to a merged summary."""
        return summary.hitters(self.report_threshold)
