"""Registry of the hot sketch kernels and their canonical configurations.

``SKETCH_SPECS`` enumerates one entry per vectorized leaf kernel, each a
factory for a sketch over the canonical four-column test schema below.
The differential harness (``tests/test_kernel_equivalence.py``) runs every
entry's ``summarize`` against its preserved ``summarize_reference`` per-row
oracle and asserts byte-identical summaries; the ``leaf_kernels`` perf
suite runs the same entries at scale.  Adding a vectorized kernel means
adding it here, which enrolls it in both.

Canonical schema (used by generated tables):

=========  ========  ==============================================
column     kind      generated domain
=========  ========  ==============================================
``i``      INTEGER   [-60, 60] plus missing
``d``      DOUBLE    [-60.0, 60.0] plus NaN/missing
``t``      DATE      around 2020 (see DATE_LO/DATE_HI) plus missing
``s``      STRING    short lowercase strings plus missing
=========  ========  ==============================================

Bucket ranges deliberately cover less than the generated domains so
out-of-range paths are always exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable

from repro.core.buckets import (
    DoubleBuckets,
    ExplicitStringBuckets,
    StringBuckets,
)
from repro.core.sketch import Sketch
from repro.sketches.cdf import CdfSketch
from repro.sketches.find_text import FindTextSketch
from repro.sketches.heatmap import HeatmapSketch
from repro.sketches.heavy_hitters import MisraGriesSketch, SampleHeavyHittersSketch
from repro.sketches.histogram import HistogramSketch
from repro.sketches.hll import HyperLogLogSketch
from repro.sketches.next_items import NextKSketch
from repro.sketches.quantile import SampleQuantileSketch
from repro.sketches.stacked import StackedHistogramSketch
from repro.sketches.trellis import TrellisHeatmapSketch, TrellisHistogramSketch
from repro.table.column import datetime_to_millis
from repro.table.compute import StringMatchPredicate
from repro.table.schema import ContentsKind
from repro.table.sort import RecordOrder

#: The canonical test schema: column name -> kind.
CANONICAL_SCHEMA: dict[str, ContentsKind] = {
    "i": ContentsKind.INTEGER,
    "d": ContentsKind.DOUBLE,
    "t": ContentsKind.DATE,
    "s": ContentsKind.STRING,
}

DATE_LO = datetime(2019, 12, 1, tzinfo=timezone.utc)
DATE_HI = datetime(2021, 2, 1, tzinfo=timezone.utc)

_INT_BUCKETS = DoubleBuckets(-50.0, 50.0, 7)
_DOUBLE_BUCKETS = DoubleBuckets(-45.5, 48.25, 9)
_DATE_BUCKETS = DoubleBuckets(
    float(datetime_to_millis(datetime(2020, 1, 1, tzinfo=timezone.utc))),
    float(datetime_to_millis(datetime(2021, 1, 1, tzinfo=timezone.utc))),
    6,
)
# Strings below "b" are out of range; the last bucket is unbounded above.
_STRING_RANGE_BUCKETS = StringBuckets(["b", "f", "k", "p"])
_STRING_EXPLICIT_BUCKETS = ExplicitStringBuckets(["a", "cat", "dog", "k", "zz"])


# The table view's orders.  k stays small so that generated tables of a
# few dozen rows still take the pre-cut, and its widening, in next_k.*.
_BY_STRING = RecordOrder.of("s")
_BY_STRING_INT = RecordOrder.of("s", "i")
_BY_INT_DESC_DOUBLE = RecordOrder.of("i", "d", ascending=[False, True])
_BY_DATE_INT = RecordOrder.of("t", "i")
_BY_DOUBLE_INT = RecordOrder.of("d", "i")


@dataclass(frozen=True)
class SketchSpec:
    """One hot kernel: a name plus a factory for its canonical sketch."""

    name: str
    factory: Callable[[], Sketch]

    def sketch(self) -> Sketch:
        return self.factory()


SKETCH_SPECS: list[SketchSpec] = [
    SketchSpec(
        "histogram.int",
        lambda: HistogramSketch("i", _INT_BUCKETS),
    ),
    SketchSpec(
        "histogram.double",
        lambda: HistogramSketch("d", _DOUBLE_BUCKETS),
    ),
    SketchSpec(
        "histogram.date",
        lambda: HistogramSketch("t", _DATE_BUCKETS),
    ),
    SketchSpec(
        "histogram.string_ranges",
        lambda: HistogramSketch("s", _STRING_RANGE_BUCKETS),
    ),
    SketchSpec(
        "histogram.string_explicit",
        lambda: HistogramSketch("s", _STRING_EXPLICIT_BUCKETS),
    ),
    SketchSpec(
        "histogram.sampled",
        lambda: HistogramSketch("d", _DOUBLE_BUCKETS, rate=0.5, seed=7),
    ),
    SketchSpec(
        "cdf.double",
        lambda: CdfSketch("d", DoubleBuckets(-45.5, 48.25, 32)),
    ),
    SketchSpec(
        "stacked.double_string",
        lambda: StackedHistogramSketch(
            "d", _DOUBLE_BUCKETS, "s", _STRING_RANGE_BUCKETS
        ),
    ),
    SketchSpec(
        "heatmap.int_double",
        lambda: HeatmapSketch("i", _INT_BUCKETS, "d", _DOUBLE_BUCKETS),
    ),
    SketchSpec(
        "heatmap.string_date",
        lambda: HeatmapSketch("s", _STRING_RANGE_BUCKETS, "t", _DATE_BUCKETS),
    ),
    SketchSpec(
        "trellis_heatmap.1group",
        lambda: TrellisHeatmapSketch(
            "s", _STRING_EXPLICIT_BUCKETS,
            "i", _INT_BUCKETS,
            "d", _DOUBLE_BUCKETS,
        ),
    ),
    SketchSpec(
        "trellis_heatmap.2group",
        lambda: TrellisHeatmapSketch(
            "s", _STRING_RANGE_BUCKETS,
            "i", _INT_BUCKETS,
            "d", _DOUBLE_BUCKETS,
            group2_column="t",
            group2_buckets=_DATE_BUCKETS,
        ),
    ),
    SketchSpec(
        "trellis_histogram.1group",
        lambda: TrellisHistogramSketch(
            "s", _STRING_RANGE_BUCKETS, "d", _DOUBLE_BUCKETS
        ),
    ),
    SketchSpec(
        "trellis_histogram.2group",
        lambda: TrellisHistogramSketch(
            "i", _INT_BUCKETS,
            "d", _DOUBLE_BUCKETS,
            group2_column="s",
            group2_buckets=_STRING_EXPLICIT_BUCKETS,
        ),
    ),
    SketchSpec(
        "heavy_hitters.streaming_string",
        lambda: MisraGriesSketch("s", k=5),
    ),
    SketchSpec(
        "heavy_hitters.streaming_numeric",
        lambda: MisraGriesSketch("i", k=4),
    ),
    SketchSpec(
        # k above every canonical table's row count: no counter is ever
        # reduced away, so a -0.0/0.0 counter always reaches the merge.
        "heavy_hitters.streaming_double",
        lambda: MisraGriesSketch("d", k=1024),
    ),
    SketchSpec(
        "heavy_hitters.sampled",
        lambda: SampleHeavyHittersSketch("s", k=4, rate=0.5, seed=11),
    ),
    SketchSpec("distinct.int", lambda: HyperLogLogSketch("i", precision=12)),
    SketchSpec("distinct.double", lambda: HyperLogLogSketch("d", precision=12)),
    SketchSpec("distinct.string", lambda: HyperLogLogSketch("s", precision=12)),
    SketchSpec(
        # Below p = 11 the rank reads the word as two 32-bit halves.
        "distinct.split_rank",
        lambda: HyperLogLogSketch("d", precision=6, seed=5),
    ),
    SketchSpec(
        "quantile.asc",
        lambda: SampleQuantileSketch(
            RecordOrder.of("s", "i"), rate=1.0, max_size=64
        ),
    ),
    SketchSpec(
        "quantile.desc_sampled",
        lambda: SampleQuantileSketch(
            RecordOrder.of("d", "t", ascending=[False, True]),
            rate=0.5,
            seed=3,
            max_size=64,
        ),
    ),
    SketchSpec(
        "find_text.from_start",
        lambda: FindTextSketch(
            StringMatchPredicate("s", "a", mode="substring"),
            RecordOrder.of("s", "i"),
        ),
    ),
    SketchSpec(
        "find_text.after_key",
        lambda: FindTextSketch(
            StringMatchPredicate("s", "a", mode="substring"),
            RecordOrder.of("s", "i"),
            start_key=RecordOrder.of("s", "i").key_from_values(("da", 0)),
        ),
    ),
    SketchSpec(
        "next_k.top",
        lambda: NextKSketch(_BY_INT_DESC_DOUBLE, k=5),
    ),
    SketchSpec(
        "next_k.after_key",
        lambda: NextKSketch(
            _BY_INT_DESC_DOUBLE,
            k=5,
            start_key=_BY_INT_DESC_DOUBLE.key_from_values((7, -2.5)),
        ),
    ),
    SketchSpec(
        "next_k.inclusive",
        lambda: NextKSketch(
            _BY_STRING_INT,
            k=4,
            start_key=_BY_STRING_INT.key_from_values(("da", 0)),
            inclusive=True,
        ),
    ),
    SketchSpec(
        "next_k.desc_missing_start",
        lambda: NextKSketch(
            _BY_INT_DESC_DOUBLE,
            k=3,
            start_key=_BY_INT_DESC_DOUBLE.key_from_values((None, 0.5)),
        ),
    ),
    SketchSpec(
        # One low-cardinality column: a slab of k rows holds far fewer
        # than k groups, so the pre-cut must widen.
        "next_k.heavy_duplicates",
        lambda: NextKSketch(
            _BY_STRING, k=6, start_key=_BY_STRING.key_from_values(("a",))
        ),
    ),
    SketchSpec(
        "next_k.absent_string",
        lambda: NextKSketch(
            _BY_STRING_INT,
            k=5,
            start_key=_BY_STRING_INT.key_from_values(("cb?", 3)),
        ),
    ),
    SketchSpec(
        "next_k.past_the_end",
        lambda: NextKSketch(
            _BY_DATE_INT,
            k=5,
            start_key=_BY_DATE_INT.key_from_values((DATE_HI, 60)),
        ),
    ),
    SketchSpec(
        # Infinities are cell values like any other, and sort_surrogate
        # clamps them to keep -inf for the missing cells.
        "next_k.infinite_start",
        lambda: NextKSketch(
            _BY_DOUBLE_INT,
            k=4,
            start_key=_BY_DOUBLE_INT.key_from_values((float("inf"), 2)),
        ),
    ),
    SketchSpec(
        "next_k.desc_infinite_start",
        lambda: NextKSketch(
            _BY_DOUBLE_INT.reversed(),
            k=4,
            start_key=_BY_DOUBLE_INT.reversed().key_from_values(
                (float("inf"), 2)
            ),
        ),
    ),
    SketchSpec(
        "next_k.k_exceeds_groups",
        lambda: NextKSketch(_BY_DATE_INT, k=500),
    ),
    SketchSpec(
        "find_text.desc_missing_key",
        lambda: FindTextSketch(
            StringMatchPredicate("s", "b", mode="substring"),
            RecordOrder.of("s", ascending=False),
            start_key=RecordOrder.of("s", ascending=False).key_from_values(
                (None,)
            ),
        ),
    ),
]


def spec_by_name(name: str) -> SketchSpec:
    for spec in SKETCH_SPECS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown sketch spec {name!r}")
