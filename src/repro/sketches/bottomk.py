"""Bottom-k sampling over *distinct* strings (Appendix B.1).

To bucket an arbitrary string column without sorting it, Hillview computes
approximate quantiles over the **distinct** strings with a bottom-k sketch
[Cohen & Kaplan 2007; Thorup 2013]: every value is hashed, and the summary
keeps the k values with the smallest hashes.  Because the hash ignores
multiplicity, the surviving values are a uniform sample of the distinct
values; their order statistics estimate the distinct-quantiles used as
equi-depth bucket boundaries.

The k-th smallest hash also yields a distinct-count estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.rand import stable_hash64
from repro.core.sketch import Sketch, Summary
from repro.core.wire import INT, STR, UVARINT, Derived, Field, Wire, list_of, pair_of
from repro.errors import ColumnKindError
from repro.table.column import StringColumn
from repro.table.dictionary import MISSING_CODE
from repro.table.table import Table

_HASH_SPAN = float(1 << 64)


@dataclass
class BottomKSummary(Summary):
    """The k distinct values with the smallest hashes, sorted by hash."""

    k: int
    #: (hash, value) pairs sorted by hash ascending; len <= k.
    entries: list[tuple[int, str]] = field(default_factory=list)
    missing: int = 0

    @property
    def saturated(self) -> bool:
        """True when the sketch holds k entries (its estimate is valid)."""
        return len(self.entries) >= self.k

    def values_sorted(self) -> list[str]:
        """The sampled distinct values in alphabetical order."""
        return sorted(value for _, value in self.entries)

    def distinct_estimate(self) -> float:
        """Estimated number of distinct values (exact when unsaturated)."""
        if not self.saturated:
            return float(len(self.entries))
        kth_hash = self.entries[-1][0]
        if kth_hash == 0:
            return float(len(self.entries))
        return (self.k - 1) * _HASH_SPAN / kth_hash

    def quantile_boundaries(self, buckets: int, min_value: str | None = None) -> list[str]:
        """Equi-depth bucket boundaries over the distinct values.

        ``min_value`` (the true column minimum, from the range sketch)
        anchors the first boundary so no value falls below the first bucket.
        """
        values = self.values_sorted()
        if not values:
            return [min_value] if min_value is not None else []
        buckets = max(1, min(buckets, len(values)))
        boundaries = []
        for i in range(buckets):
            boundaries.append(values[(i * len(values)) // buckets])
        if min_value is not None:
            boundaries[0] = min(boundaries[0], min_value)
        # Deduplicate while preserving order (quantiles can repeat).
        seen: set[str] = set()
        unique = []
        for b in boundaries:
            if b not in seen:
                seen.add(b)
                unique.append(b)
        return unique

    # "values"/"saturated" feed the UI; "k"/"entries"/"missing" make the
    # payload lossless for root-side merging of worker partials.
    wire = Wire(
        "bottomK",
        Derived("values", values_sorted, "the sampled values, alphabetically"),
        Derived("saturated", saturated.fget, "whether the sketch holds k entries"),
        Field("k", "k", UVARINT),
        Field("entries", "entries", list_of(pair_of(UVARINT, STR))),
        Field("missing", "missing", UVARINT),
    )


class BottomKDistinctSketch(Sketch[BottomKSummary]):
    """Bottom-k sketch over the distinct strings of a column.

    Deterministic given its seed (value hashes depend only on content), so
    replay after failure reproduces identical boundaries (§5.8).
    """

    wire = Wire(
        "bottomK",
        Field("column", "column", STR),
        Field("k", "k", INT, 500),
        Field("seed", "seed", INT, 0),
    )

    def __init__(self, column: str, k: int = 500, seed: int = 0):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.column = column
        self.k = k
        self.seed = seed

    def with_seed(self, seed: int) -> "BottomKDistinctSketch":
        return BottomKDistinctSketch(self.column, self.k, seed)

    @property
    def name(self) -> str:
        return f"BottomK({self.column},k={self.k})"

    def cache_key(self) -> str:
        return f"BottomK({self.column!r},{self.k},seed={self.seed})"

    def zero(self) -> BottomKSummary:
        return BottomKSummary(k=self.k)

    def summarize(self, table: Table) -> BottomKSummary:
        column = table.column(self.column)
        if not isinstance(column, StringColumn):
            raise ColumnKindError(
                f"bottom-k distinct sampling needs a string column, got "
                f"{self.column!r} of kind {column.kind.value}"
            )
        codes = column.codes_at(table.members.selection())
        present = codes[codes != MISSING_CODE]
        missing = len(codes) - len(present)
        used = np.unique(present)
        entries = []
        for code in used:
            value = column.dictionary.value(int(code))
            entries.append((stable_hash64("bottomk", self.seed, value), value))
        entries.sort()
        return BottomKSummary(k=self.k, entries=entries[: self.k], missing=missing)

    def merge(self, left: BottomKSummary, right: BottomKSummary) -> BottomKSummary:
        combined: dict[str, int] = {}
        for hash_value, value in left.entries + right.entries:
            combined[value] = hash_value  # identical content -> identical hash
        entries = sorted((h, v) for v, h in combined.items())
        return BottomKSummary(
            k=self.k,
            entries=entries[: self.k],
            missing=left.missing + right.missing,
        )
