"""Bucket (bin) descriptions for charts.

A vizketch that draws a chart needs a finite set of buckets covering the data
range (paper §4.3):

* numeric and date columns use equi-width buckets over ``[x0, x1)``;
* string columns with at most 50 distinct values get one bucket per value;
* other string columns use contiguous alphabetical ranges whose boundaries
  come from the bottom-k distinct-quantile sketch (Appendix B.1).

Bucket objects are immutable, serializable (charts carry them), and provide
vectorized bucket-index computation.  Out-of-range values map to index -1 and
are counted separately by the sketches.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from dataclasses import replace

import numpy as np

from repro.core.wire import F64, STR_LIST, UVARINT, Field, TaggedUnion, Wire

#: Every bucket description, by its ``type``; its binary form is tagged
#: by the uvarint ``code`` each class declares.
BUCKET_TYPES = TaggedUnion("buckets", binary=True)


class Buckets(BUCKET_TYPES.Member, ABC):
    """A finite, ordered set of buckets over a column's value domain."""

    @property
    @abstractmethod
    def count(self) -> int:
        """Number of buckets."""

    @abstractmethod
    def label(self, index: int) -> str:
        """Human-readable label for bucket ``index`` (used by renderers)."""

    @abstractmethod
    def spec(self) -> str:
        """Deterministic string identifying these buckets (for cache keys)."""

    def index_numeric(self, values: np.ndarray) -> np.ndarray:
        """Bucket index for each numeric value; -1 when out of range/NaN."""
        raise TypeError(f"{type(self).__name__} does not bucket numeric values")

    def index_strings(self, values: list[str | None]) -> np.ndarray:
        """Bucket index for each string; -1 when out of range or None."""
        raise TypeError(f"{type(self).__name__} does not bucket strings")


class DoubleBuckets(Buckets):
    """Equi-width numeric buckets over ``[min_value, max_value]``.

    The right edge is closed (a value equal to ``max_value`` falls in the
    last bucket) so that a range produced by the preparation phase covers
    every row it counted.
    """

    wire = Wire(
        "double",
        Field("min_value", "min", F64),
        Field("max_value", "max", F64),
        Field("count", "count", UVARINT),
        code=0,
    )

    def __init__(self, min_value: float, max_value: float, count: int):
        if count < 1:
            raise ValueError("bucket count must be >= 1")
        if not np.isfinite(min_value) or not np.isfinite(max_value):
            raise ValueError("bucket range must be finite")
        if max_value < min_value:
            raise ValueError(
                f"max_value {max_value} must be >= min_value {min_value}"
            )
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self._count = int(count)
        span = self.max_value - self.min_value
        # A degenerate range (all values equal) still gets one usable bucket.
        self._width = span / self._count if span > 0 else 1.0

    @property
    def count(self) -> int:
        return self._count

    @property
    def width(self) -> float:
        """Width of one bucket in value units."""
        return self._width

    def bucket_range(self, index: int) -> tuple[float, float]:
        """Value range ``[lo, hi)`` covered by bucket ``index``."""
        if not 0 <= index < self._count:
            raise IndexError(f"bucket index {index} out of range")
        lo = self.min_value + index * self._width
        return lo, lo + self._width

    def label(self, index: int) -> str:
        lo, hi = self.bucket_range(index)
        return f"[{lo:g}, {hi:g})"

    def index_numeric(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        idx = values - self.min_value
        idx /= self._width
        np.floor(idx, out=idx)
        # Values exactly at max_value land past the last bucket; pull back.
        np.minimum(idx, self._count - 1, out=idx)
        with np.errstate(invalid="ignore"):
            # NaN fails both tests.  Outside rows are overwritten below,
            # so their (possibly non-finite) casts never show.
            inside = values >= self.min_value
            inside &= values <= self.max_value
            out = idx.astype(np.int64)
        # Scattering to the (few) outside rows beats a masked store.
        out[np.flatnonzero(np.logical_not(inside, out=inside))] = -1
        return out

    def index_of(self, value: float) -> int:
        """Scalar twin of :meth:`index_numeric` — same IEEE arithmetic,
        one value.  NaN and out-of-range values map to -1."""
        value = float(value)
        if not (self.min_value <= value <= self.max_value):
            return -1
        raw = int(np.floor((value - self.min_value) / self._width))
        return min(raw, self._count - 1)

    def spec(self) -> str:
        return f"DoubleBuckets({self.min_value!r},{self.max_value!r},{self._count})"

    def __repr__(self) -> str:
        return self.spec()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DoubleBuckets) and self.spec() == other.spec()

    def __hash__(self) -> int:
        return hash(self.spec())


class StringBuckets(Buckets):
    """Contiguous alphabetical string ranges (paper Appendix B.1).

    ``boundaries`` are the left endpoints of the buckets, sorted ascending;
    bucket ``i`` covers ``[boundaries[i], boundaries[i+1])`` and the last
    bucket is unbounded above, as in Hillview.  Strings below the first
    boundary are out of range (-1).
    """

    wire = Wire("string_ranges", Field("boundaries", "boundaries", STR_LIST), code=1)

    def __init__(self, boundaries: list[str]):
        if not boundaries:
            raise ValueError("at least one boundary is required")
        ordered = list(boundaries)
        if ordered != sorted(set(ordered)):
            raise ValueError("boundaries must be strictly increasing")
        self.boundaries = ordered

    @property
    def count(self) -> int:
        return len(self.boundaries)

    def label(self, index: int) -> str:
        if not 0 <= index < self.count:
            raise IndexError(f"bucket index {index} out of range")
        lo = self.boundaries[index]
        if index + 1 < self.count:
            return f"[{lo}, {self.boundaries[index + 1]})"
        return f"[{lo}, ...)"

    def index_of(self, value: str) -> int:
        """Bucket index of one string, or -1 when below the first boundary."""
        return bisect.bisect_right(self.boundaries, value) - 1

    def index_strings(self, values: list[str | None]) -> np.ndarray:
        # Object-dtype searchsorted keeps Python string ordering (numpy's
        # fixed-width unicode dtype would mis-order strings with embedded
        # NULs) while replacing the per-value bisect loop with one call.
        out = np.full(len(values), -1, dtype=np.int64)
        present = [i for i, value in enumerate(values) if value is not None]
        if not present:
            return out
        arr = np.array([values[i] for i in present], dtype=object)
        bounds = np.array(self.boundaries, dtype=object)
        out[present] = np.searchsorted(bounds, arr, side="right") - 1
        return out

    def index_strings_reference(self, values: list[str | None]) -> np.ndarray:
        """Per-value oracle for :meth:`index_strings` (differential tests)."""
        out = np.empty(len(values), dtype=np.int64)
        for i, value in enumerate(values):
            out[i] = -1 if value is None else self.index_of(value)
        return out

    def spec(self) -> str:
        return f"StringBuckets({self.boundaries!r})"

    def __repr__(self) -> str:
        return f"StringBuckets({len(self.boundaries)} ranges)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StringBuckets) and self.boundaries == other.boundaries

    def __hash__(self) -> int:
        return hash(tuple(self.boundaries))


class ExplicitStringBuckets(Buckets):
    """One bucket per distinct string value (<= 50 distinct values, B.1)."""

    wire = Wire("strings", Field("values", "values", STR_LIST), code=2)

    def __init__(self, values: list[str]):
        if not values:
            raise ValueError("at least one value is required")
        if len(values) != len(set(values)):
            raise ValueError("bucket values must be distinct")
        self.values = list(values)
        self._index = {value: i for i, value in enumerate(self.values)}

    @property
    def count(self) -> int:
        return len(self.values)

    def label(self, index: int) -> str:
        return self.values[index]

    def index_of(self, value: str) -> int:
        return self._index.get(value, -1)

    def index_strings(self, values: list[str | None]) -> np.ndarray:
        index = self._index
        return np.fromiter(
            (-1 if v is None else index.get(v, -1) for v in values),
            dtype=np.int64,
            count=len(values),
        )

    def index_strings_reference(self, values: list[str | None]) -> np.ndarray:
        """Per-value oracle for :meth:`index_strings` (differential tests)."""
        out = np.empty(len(values), dtype=np.int64)
        for i, value in enumerate(values):
            out[i] = -1 if value is None else self._index.get(value, -1)
        return out

    def spec(self) -> str:
        return f"ExplicitStringBuckets({self.values!r})"

    def __repr__(self) -> str:
        return f"ExplicitStringBuckets({len(self.values)} values)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExplicitStringBuckets) and self.values == other.values

    def __hash__(self) -> int:
        return hash(tuple(self.values))


#: The wire kind of a bucket description; each one multiplies the cells
#: of the summary its sketch allocates.
BUCKETS = replace(BUCKET_TYPES.kind, cells=lambda buckets: buckets.count)
