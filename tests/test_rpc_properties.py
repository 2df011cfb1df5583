"""Property-based fuzzing of the RPC JSON codecs (hypothesis).

The web protocol must round-trip every value object the UI can construct:
arbitrary predicate trees, sort orders, bucket descriptions, and cell
values.  A codec that drops or reorders anything silently corrupts the
query a worker executes, so these invariants get fuzzed, not spot-checked.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buckets import DoubleBuckets, ExplicitStringBuckets, StringBuckets
from repro.core.wire import SKETCH_TYPES, SUMMARY_TYPES
from repro.engine.rpc import (
    NO_PAYLOAD,
    RpcReply,
    RpcRequest,
    buckets_from_json,
    buckets_to_json,
    cell_from_json,
    cell_to_json,
    lineage_from_json,
    lineage_to_json,
    order_from_json,
    order_to_json,
    predicate_from_json,
    predicate_to_json,
    sketch_from_json,
    sketch_to_json,
    source_to_json,
    summary_from_json,
    summary_to_json,
    table_map_from_json,
    table_map_to_json,
)
from repro.table.compute import (
    AndPredicate,
    ColumnPredicate,
    NotPredicate,
    OrPredicate,
    StringMatchPredicate,
)
from repro.table.sort import RecordOrder

column_names = st.sampled_from(["x", "y", "DepDelay", "Origin", "名前"])

scalar_values = st.one_of(
    st.integers(-10**9, 10**9),
    st.floats(-1e9, 1e9, allow_nan=False),
    st.text(max_size=12),
    # fold is DST disambiguation; it is meaningless for UTC stamps and not
    # part of the ISO format, so normalize it out.
    st.datetimes(
        min_value=datetime(1990, 1, 1),
        max_value=datetime(2030, 1, 1),
    ).map(lambda d: d.replace(tzinfo=timezone.utc, fold=0)),
)

column_predicates = st.one_of(
    st.builds(
        ColumnPredicate,
        column_names,
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        scalar_values,
    ),
    st.builds(
        lambda c, lo, hi: ColumnPredicate(c, "between", [lo, hi]),
        column_names,
        st.integers(-100, 0),
        st.integers(1, 100),
    ),
    st.builds(
        lambda c, vs: ColumnPredicate(c, "in", vs),
        column_names,
        st.lists(st.integers(-50, 50), min_size=1, max_size=5),
    ),
    st.builds(lambda c: ColumnPredicate(c, "is_missing"), column_names),
    st.builds(
        StringMatchPredicate,
        column_names,
        st.text(min_size=1, max_size=10),
        st.sampled_from(["exact", "substring", "regex"]),
        st.booleans(),
    ),
)

predicates = st.recursive(
    column_predicates,
    lambda inner: st.one_of(
        st.builds(lambda ps: AndPredicate(ps), st.lists(inner, min_size=1, max_size=3)),
        st.builds(lambda ps: OrPredicate(ps), st.lists(inner, min_size=1, max_size=3)),
        st.builds(NotPredicate, inner),
    ),
    max_leaves=6,
)

orders = st.builds(
    lambda cols, flags: RecordOrder.of(*cols, ascending=flags[: len(cols)]),
    st.lists(
        st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True
    ),
    st.lists(st.booleans(), min_size=4, max_size=4),
)

buckets = st.one_of(
    st.builds(
        lambda lo, span, count: DoubleBuckets(lo, lo + span, count),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(0.001, 1e6, allow_nan=False),
        # 40**4 cells (a two-group trellis of heat maps) stays under
        # MAX_SUMMARY_CELLS, which sketch_from_json enforces.
        st.integers(1, 40),
    ),
    st.builds(
        lambda values: StringBuckets(sorted(values)),
        st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=8, unique=True),
    ),
    st.builds(
        lambda values: ExplicitStringBuckets(sorted(values)),
        st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=8, unique=True),
    ),
)


class TestCodecRoundTrips:
    @given(predicate=predicates)
    @settings(max_examples=150, deadline=None)
    def test_predicates(self, predicate):
        encoded = predicate_to_json(predicate)
        json.dumps(encoded)  # must be pure JSON
        assert predicate_from_json(encoded).spec() == predicate.spec()

    @given(order=orders)
    @settings(max_examples=80, deadline=None)
    def test_orders(self, order):
        encoded = order_to_json(order)
        json.dumps(encoded)
        assert order_from_json(encoded).spec() == order.spec()

    @given(b=buckets)
    @settings(max_examples=80, deadline=None)
    def test_buckets(self, b):
        encoded = buckets_to_json(b)
        json.dumps(encoded)
        assert buckets_from_json(encoded).spec() == b.spec()

    @given(value=st.one_of(st.none(), scalar_values))
    @settings(max_examples=100, deadline=None)
    def test_cells(self, value):
        encoded = cell_to_json(value)
        json.dumps(encoded)
        assert cell_from_json(encoded) == value


# ---------------------------------------------------------------------------
# Sketch specs: from_json(to_json(x)) == x for every SKETCH_TYPES entry
# ---------------------------------------------------------------------------
rates = st.floats(0.01, 1.0, allow_nan=False)
seeds = st.integers(0, 2**31)
small_k = st.integers(1, 50)

_single_col_orders = st.builds(lambda c: RecordOrder.of(c), column_names)


def _with_xy(builder):
    return st.builds(
        builder, column_names, buckets, column_names, buckets, rates, seeds
    )


@st.composite
def _start_keys(draw, order):
    values = tuple(
        draw(st.one_of(st.none(), scalar_values))
        for _ in order.orientations
    )
    return order.key_from_values(values)


@st.composite
def _next_k_sketches(draw):
    from repro.sketches.next_items import NextKSketch

    order = draw(orders)
    start = draw(st.one_of(st.none(), _start_keys(order)))
    return NextKSketch(
        order, draw(small_k), start_key=start, inclusive=draw(st.booleans())
    )


@st.composite
def _find_sketches(draw):
    from repro.sketches.find_text import FindTextSketch

    order = draw(orders)
    predicate = StringMatchPredicate(
        draw(column_names),
        draw(st.text(min_size=1, max_size=10)),
        draw(st.sampled_from(["exact", "substring", "regex"])),
        draw(st.booleans()),
    )
    start = draw(st.one_of(st.none(), _start_keys(order)))
    return FindTextSketch(predicate, order, start_key=start)


@st.composite
def _trellis_sketches(draw, cls, with_y):
    args = [draw(column_names), draw(buckets), draw(column_names), draw(buckets)]
    if with_y:
        args += [draw(column_names), draw(buckets)]
    group2 = draw(st.booleans())
    kwargs = {"rate": draw(rates), "seed": draw(seeds)}
    if group2:
        kwargs["group2_column"] = draw(column_names)
        kwargs["group2_buckets"] = draw(buckets)
    return cls(*args, **kwargs)


def _sketch_strategies():
    from repro.service.slow import SlowdownSketch
    from repro.sketches.bottomk import BottomKDistinctSketch
    from repro.sketches.cdf import CdfSketch
    from repro.sketches.heatmap import HeatmapSketch
    from repro.sketches.heavy_hitters import (
        MisraGriesSketch,
        SampleHeavyHittersSketch,
    )
    from repro.sketches.histogram import HistogramSketch
    from repro.sketches.hll import HyperLogLogSketch
    from repro.sketches.moments import MomentsSketch
    from repro.sketches.pca import CorrelationSketch
    from repro.sketches.quantile import SampleQuantileSketch
    from repro.sketches.save import SaveTableSketch
    from repro.sketches.stacked import StackedHistogramSketch
    from repro.sketches.trellis import (
        TrellisHeatmapSketch,
        TrellisHistogramSketch,
    )

    histograms = st.builds(HistogramSketch, column_names, buckets, rates, seeds)
    return {
        "histogram": histograms,
        "cdf": st.builds(CdfSketch, column_names, buckets, rates, seeds),
        "heatmap": _with_xy(HeatmapSketch),
        "stacked": _with_xy(StackedHistogramSketch),
        "trellisHeatmap": _trellis_sketches(TrellisHeatmapSketch, True),
        "trellisHistogram": _trellis_sketches(TrellisHistogramSketch, False),
        "moments": st.builds(MomentsSketch, column_names, st.integers(0, 4)),
        "distinct": st.builds(
            HyperLogLogSketch, column_names, st.integers(4, 16), seeds
        ),
        "heavyHitters": st.one_of(
            st.builds(MisraGriesSketch, column_names, small_k),
            st.builds(
                SampleHeavyHittersSketch, column_names, small_k, rates, seeds
            ),
        ),
        "nextK": _next_k_sketches(),
        "quantile": st.builds(SampleQuantileSketch, orders, rates, seeds),
        "find": _find_sketches(),
        "bottomK": st.builds(
            BottomKDistinctSketch, column_names, st.integers(1, 500), seeds
        ),
        "correlation": st.builds(
            CorrelationSketch,
            st.lists(
                st.sampled_from(["a", "b", "c", "d"]),
                min_size=2,
                max_size=4,
                unique=True,
            ),
            rates,
            seeds,
        ),
        "save": st.builds(
            SaveTableSketch,
            st.text(min_size=1, max_size=12).filter(lambda s: "\x00" not in s),
            st.sampled_from(["hvc", "csv"]),
        ),
        "slow": st.builds(
            SlowdownSketch, histograms, st.floats(0.0, 0.5, allow_nan=False)
        ),
    }


class TestSketchSpecRoundTrips:
    """Every registered sketch type survives to_json -> from_json exactly."""

    def test_every_builder_is_fuzzed(self):
        import repro.service.slow  # noqa: F401 — registers "slow"

        assert set(_sketch_strategies()) == set(SKETCH_TYPES)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_sketches(self, data):
        strategies = _sketch_strategies()
        kind = data.draw(st.sampled_from(sorted(strategies)))
        sketch = data.draw(strategies[kind])
        spec = sketch_to_json(sketch)
        json.dumps(spec)  # must be pure JSON
        back = sketch_from_json(spec)
        assert type(back) is type(sketch)
        assert sketch_to_json(back) == spec
        assert back.cache_key() == sketch.cache_key()
        assert back.name == sketch.name


# ---------------------------------------------------------------------------
# Summary payloads: from_json(to_json(x)) == x for every SUMMARY_TYPES entry
# ---------------------------------------------------------------------------
counts_1d = st.lists(st.integers(0, 10**9), min_size=1, max_size=8).map(
    lambda v: np.asarray(v, dtype=np.int64)
)
small_ints = st.integers(0, 10**9)
finite_floats = st.floats(-1e12, 1e12, allow_nan=False)


@st.composite
def _counts_2d(draw):
    bx = draw(st.integers(1, 4))
    by = draw(st.integers(1, 4))
    flat = draw(
        st.lists(st.integers(0, 10**9), min_size=bx * by, max_size=bx * by)
    )
    return np.asarray(flat, dtype=np.int64).reshape(bx, by)


@st.composite
def _histogram_summaries(draw):
    from repro.sketches.histogram import HistogramSummary

    return HistogramSummary(
        counts=draw(counts_1d),
        missing=draw(small_ints),
        out_of_range=draw(small_ints),
        sampled_rows=draw(small_ints),
    )


@st.composite
def _heatmap_summaries(draw):
    from repro.sketches.heatmap import HeatmapSummary

    return HeatmapSummary(
        counts=draw(_counts_2d()),
        x_missing=draw(small_ints),
        y_missing=draw(small_ints),
        out_of_range=draw(small_ints),
        sampled_rows=draw(small_ints),
    )


@st.composite
def _stacked_summaries(draw):
    from repro.sketches.stacked import StackedHistogramSummary

    cells = draw(_counts_2d())
    bx = cells.shape[0]
    bars = st.lists(st.integers(0, 10**9), min_size=bx, max_size=bx)
    return StackedHistogramSummary(
        bar_counts=np.asarray(draw(bars), dtype=np.int64),
        cell_counts=cells,
        y_missing=np.asarray(draw(bars), dtype=np.int64),
        missing=draw(small_ints),
        out_of_range=draw(small_ints),
        sampled_rows=draw(small_ints),
    )


@st.composite
def _trellis_summaries(draw):
    from repro.sketches.trellis import TrellisSummary

    return TrellisSummary(
        panes=draw(st.lists(_heatmap_summaries(), min_size=1, max_size=3)),
        group_missing=draw(small_ints),
        group_out_of_range=draw(small_ints),
        sampled_rows=draw(small_ints),
    )


@st.composite
def _trellis_histogram_summaries(draw):
    from repro.sketches.trellis import TrellisHistogramSummary

    return TrellisHistogramSummary(
        panes=draw(st.lists(_histogram_summaries(), min_size=1, max_size=3)),
        group_missing=draw(small_ints),
        group_out_of_range=draw(small_ints),
        sampled_rows=draw(small_ints),
    )


@st.composite
def _column_stats(draw):
    from repro.sketches.moments import ColumnStats

    return ColumnStats(
        present_count=draw(small_ints),
        missing_count=draw(small_ints),
        min_value=draw(st.one_of(st.none(), scalar_values)),
        max_value=draw(st.one_of(st.none(), scalar_values)),
        power_sums=draw(st.lists(finite_floats, max_size=4)),
    )


@st.composite
def _row_tuples(draw, order):
    width = len(order.orientations)
    return tuple(
        draw(st.one_of(st.none(), scalar_values)) for _ in range(width)
    )


@st.composite
def _next_k_lists(draw):
    from repro.sketches.next_items import NextKList

    order = draw(orders)
    rows = draw(st.lists(_row_tuples(order), max_size=6))
    return NextKList(
        order=order,
        rows=rows,
        counts=draw(
            st.lists(
                st.integers(1, 10**6),
                min_size=len(rows),
                max_size=len(rows),
            )
        ),
        preceding=draw(small_ints),
        scanned=draw(small_ints),
    )


@st.composite
def _frequency_summaries(draw):
    from repro.sketches.heavy_hitters import FrequencySummary

    return FrequencySummary(
        counts=draw(
            st.dictionaries(
                st.one_of(st.text(max_size=8), st.integers(-1000, 1000)),
                st.integers(0, 10**9),
                max_size=8,
            )
        ),
        error_bound=draw(small_ints),
        scanned=draw(small_ints),
    )


@st.composite
def _hll_summaries(draw):
    from repro.sketches.hll import HllSummary

    registers = draw(
        st.lists(st.integers(0, 61), min_size=16, max_size=16)
    )
    return HllSummary(
        registers=np.asarray(registers, dtype=np.uint8),
        missing=draw(small_ints),
    )


@st.composite
def _distinct_sets(draw):
    from repro.sketches.distinct import DistinctSetSummary

    values = draw(
        st.one_of(
            st.sets(finite_floats, max_size=6),
            st.sets(st.text(max_size=8), max_size=6),
        )
    )
    return DistinctSetSummary(
        values=values, missing=draw(small_ints), truncated=draw(st.booleans())
    )


@st.composite
def _quantile_summaries(draw):
    from repro.sketches.quantile import QuantileSummary

    order = draw(orders)
    return QuantileSummary(
        order=order,
        samples=draw(st.lists(_row_tuples(order), max_size=6)),
        scanned=draw(small_ints),
    )


@st.composite
def _find_results(draw):
    from repro.sketches.find_text import FindResult

    order = draw(orders)
    return FindResult(
        order=order,
        first_match=draw(st.one_of(st.none(), _row_tuples(order))),
        matches_before=draw(small_ints),
        matches_after=draw(small_ints),
    )


@st.composite
def _bottom_k_summaries(draw):
    from repro.sketches.bottomk import BottomKSummary

    entries = sorted(
        (h, v)
        for h, v in draw(
            st.dictionaries(
                st.integers(0, 2**63), st.text(max_size=8), max_size=8
            )
        ).items()
    )
    return BottomKSummary(
        k=draw(st.integers(1, 10)),
        entries=entries,
        missing=draw(small_ints),
    )


@st.composite
def _correlation_summaries(draw):
    columns = draw(
        st.lists(
            st.sampled_from(["a", "b", "c", "d"]),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    from repro.sketches.pca import CorrelationSummary

    n = len(columns)
    sums = draw(st.lists(finite_floats, min_size=n, max_size=n))
    products = draw(
        st.lists(finite_floats, min_size=n * n, max_size=n * n)
    )
    return CorrelationSummary(
        columns=columns,
        count=draw(small_ints),
        sums=np.asarray(sums, dtype=np.float64),
        products=np.asarray(products, dtype=np.float64).reshape(n, n),
    )


@st.composite
def _save_statuses(draw):
    from repro.sketches.save import SaveStatus

    return SaveStatus(
        files=draw(st.lists(st.text(min_size=1, max_size=12), max_size=4)),
        rows_written=draw(small_ints),
        errors=draw(st.lists(st.text(min_size=1, max_size=12), max_size=2)),
    )


def _summary_strategies():
    return {
        "histogram": _histogram_summaries(),
        "heatmap": _heatmap_summaries(),
        "stacked": _stacked_summaries(),
        "trellisHeatmap": _trellis_summaries(),
        "trellisHistogram": _trellis_histogram_summaries(),
        "columnStats": _column_stats(),
        "nextK": _next_k_lists(),
        "frequencies": _frequency_summaries(),
        "distinct": _hll_summaries(),
        "distinctSet": _distinct_sets(),
        "quantile": _quantile_summaries(),
        "find": _find_results(),
        "bottomK": _bottom_k_summaries(),
        "correlation": _correlation_summaries(),
        "saveStatus": _save_statuses(),
    }


class TestSummaryPayloadRoundTrips:
    """Every summary payload has an exact inverse (worker-wire safety)."""

    def test_every_parser_is_fuzzed(self):
        assert set(_summary_strategies()) == set(SUMMARY_TYPES)

    @given(data=st.data())
    @settings(max_examples=250, deadline=None)
    def test_summaries(self, data):
        strategies = _summary_strategies()
        kind = data.draw(st.sampled_from(sorted(strategies)))
        summary = data.draw(strategies[kind])
        payload = summary_to_json(summary)
        json.dumps(payload)  # must be pure JSON
        assert payload["type"] == kind
        back = summary_from_json(payload)
        assert type(back) is type(summary)
        # The binary wire encoding is the engine's identity notion: equal
        # bytes means the root merges the rebuilt summary identically.
        assert back.to_bytes() == summary.to_bytes()
        assert summary_to_json(back) == payload


# ---------------------------------------------------------------------------
# Lineage unions: every registered tag has a strategy, and round-trips
# ---------------------------------------------------------------------------
_SQL_TABLES = ("events", "hosts")


@pytest.fixture(scope="module")
def sqlite_db(tmp_path_factory) -> str:
    """A database with the tables the SQL source strategy names."""
    import sqlite3

    path = str(tmp_path_factory.mktemp("sources") / "fuzz.db")
    with sqlite3.connect(path) as con:
        for table in _SQL_TABLES:
            con.execute(f"create table {table} (a integer)")
    return path


def _union_strategies(sqlite_db: str) -> dict:
    """Per union, one strategy per tag: the values each tag's class
    builds.  Predicates are composed from :data:`predicates`."""
    from repro.core.buckets import BUCKET_TYPES
    from repro.engine.dataset import (
        TABLE_MAPS,
        ExpressionMap,
        FilterMap,
        ProjectMap,
    )
    from repro.engine.redo_log import LINEAGE_OPS, LoadOp, MapOp
    from repro.storage.loader import (
        SOURCES,
        ColumnarDatasetSource,
        CsvSource,
        FlightsSource,
        JsonlSource,
        SqlSource,
        SyslogSource,
    )
    from repro.table.compute import PREDICATES

    paths = st.text(min_size=1, max_size=16)
    small = st.integers(0, 10**6)
    part_lists = st.lists(predicates, min_size=1, max_size=3)
    strategies = {
        PREDICATES: {
            "column": column_predicates.filter(
                lambda p: isinstance(p, ColumnPredicate)
            ),
            "match": column_predicates.filter(
                lambda p: isinstance(p, StringMatchPredicate)
            ),
            "and": st.builds(AndPredicate, part_lists),
            "or": st.builds(OrPredicate, part_lists),
            "not": st.builds(NotPredicate, predicates),
        },
        BUCKET_TYPES: {
            "double": buckets.filter(lambda b: isinstance(b, DoubleBuckets)),
            "string_ranges": buckets.filter(lambda b: isinstance(b, StringBuckets)),
            "strings": buckets.filter(
                lambda b: isinstance(b, ExplicitStringBuckets)
            ),
        },
        SOURCES: {
            "flights": st.builds(FlightsSource, small, st.integers(1, 64), small, small),
            "csv": st.builds(CsvSource, paths),
            "jsonl": st.builds(JsonlSource, paths),
            "syslog": st.builds(SyslogSource, paths),
            "sql": st.builds(
                lambda table, parts: SqlSource(sqlite_db, table, parts),
                st.sampled_from(_SQL_TABLES),
                st.integers(1, 16),
            ),
            "hvc": st.builds(ColumnarDatasetSource, paths),
        },
    }
    strategies[TABLE_MAPS] = {
        "filter": st.builds(FilterMap, predicates),
        "project": st.builds(
            ProjectMap, st.lists(column_names, min_size=1, max_size=4, unique=True)
        ),
        "expression": st.builds(
            ExpressionMap,
            column_names,
            st.sampled_from(["x + y", "DepDelay - ArrDelay", "sqrt(abs(x)) * 2"]),
        ),
    }
    dataset_ids = st.text(min_size=1, max_size=12)
    strategies[LINEAGE_OPS] = {
        "load": st.builds(LoadOp, dataset_ids, st.one_of(*strategies[SOURCES].values())),
        "map": st.builds(
            MapOp, dataset_ids, dataset_ids, st.one_of(*strategies[TABLE_MAPS].values())
        ),
    }
    return strategies


def _described(value) -> str:
    return value.describe() if hasattr(value, "describe") else value.spec()


class TestUnionRoundTrips:
    """A source, table map, lineage op, predicate or bucket type cannot
    ship without a round-trip property: each union's registered tags must
    be exactly the tags fuzzed here."""

    def test_every_registered_tag_is_fuzzed(self, sqlite_db):
        for union, strategies in _union_strategies(sqlite_db).items():
            assert set(strategies) == set(union.classes), union.name

    @given(data=st.data())
    @settings(max_examples=250, deadline=None)
    def test_union_values(self, sqlite_db, data):
        from repro.core.serialization import Decoder, Encoder

        unions = _union_strategies(sqlite_db)
        union = data.draw(st.sampled_from(list(unions)), label="union")
        tag = data.draw(st.sampled_from(sorted(unions[union])), label="tag")
        value = data.draw(unions[union][tag])
        encoded = union.to_json(value)
        assert encoded[union.key] == tag
        back = union.from_json(json.loads(json.dumps(encoded)))
        assert type(back) is type(value)
        assert union.to_json(back) == encoded
        assert _described(back) == _described(value)
        if union.kind.write is not None:
            enc = Encoder()
            union.write(enc, value)
            assert _described(union.read(Decoder(enc.to_bytes()))) == _described(value)


# ---------------------------------------------------------------------------
# Lineage: table maps and sources round-trip for worker-side replay
# ---------------------------------------------------------------------------
class TestLineageRoundTrips:
    @given(predicate=predicates)
    @settings(max_examples=60, deadline=None)
    def test_filter_maps(self, predicate):
        from repro.engine.dataset import FilterMap

        encoded = table_map_to_json(FilterMap(predicate))
        json.dumps(encoded)
        assert table_map_from_json(encoded).spec() == FilterMap(predicate).spec()

    @given(
        columns=st.lists(
            st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_project_maps(self, columns):
        from repro.engine.dataset import ProjectMap

        encoded = table_map_to_json(ProjectMap(columns))
        assert table_map_from_json(encoded).spec() == ProjectMap(columns).spec()

    def test_expression_maps(self):
        from repro.engine.dataset import ExpressionMap

        table_map = ExpressionMap("gain", "DepDelay - ArrDelay")
        encoded = table_map_to_json(table_map)
        json.dumps(encoded)
        assert table_map_from_json(encoded).spec() == table_map.spec()

    def test_derive_maps_are_rejected(self):
        from repro.engine.dataset import DeriveMap
        from repro.engine.rpc import ProtocolError
        from repro.table.schema import ContentsKind

        with pytest.raises(ProtocolError):
            table_map_to_json(DeriveMap("x", ContentsKind.DOUBLE, lambda v: v))

    def test_lineage_chain_round_trips(self):
        from repro.data.flights import FlightsSource
        from repro.engine.dataset import FilterMap, ProjectMap
        from repro.engine.redo_log import LoadOp, MapOp

        chain = [
            LoadOp("ds-0", FlightsSource(1000, partitions=4, seed=2)),
            MapOp("ds-1", "ds-0", FilterMap(ColumnPredicate("x", ">", 3))),
            MapOp("ds-2", "ds-1", ProjectMap(["x", "y"])),
        ]
        encoded = lineage_to_json(chain)
        json.dumps(encoded)
        back = lineage_from_json(encoded)
        assert [op.dataset_id for op in back] == ["ds-0", "ds-1", "ds-2"]
        assert back[0].source.spec() == chain[0].source.spec()
        assert back[1].table_map.spec() == chain[1].table_map.spec()
        assert back[2].table_map.spec() == chain[2].table_map.spec()

    def test_in_memory_sources_are_rejected(self):
        from repro.engine.rpc import ProtocolError
        from repro.storage.loader import TableSource
        from repro.table.table import Table

        table = Table.from_pydict({"x": [1, 2, 3]})
        with pytest.raises(ProtocolError):
            source_to_json(TableSource([table]))


class TestEnvelopeRoundTrips:
    @given(
        request_id=st.integers(0, 2**31),
        target=st.text(min_size=1, max_size=20),
        method=st.sampled_from(["sketch", "filter", "schema", "ping"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_requests(self, request_id, target, method):
        request = RpcRequest(request_id, target, method, {"k": [1, "two"]})
        assert RpcRequest.from_json(request.to_json()) == request

    @given(
        request_id=st.integers(0, 2**31),
        kind=st.sampled_from(["partial", "complete", "ack", "error"]),
        progress=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_replies(self, request_id, kind, progress):
        reply = RpcReply(request_id, kind, progress=progress, payload={"n": 1})
        back = RpcReply.from_json(reply.to_json())
        assert back.request_id == request_id
        assert back.kind == kind
        assert abs(back.progress - progress) < 1e-5
        assert back.payload == {"n": 1}

    @given(
        request_id=st.integers(0, 2**31),
        kind=st.sampled_from(["partial", "complete", "ack", "error"]),
        payload=st.one_of(
            st.just(NO_PAYLOAD), st.none(), st.dictionaries(st.text(), st.integers())
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_null_payload_survives_but_absent_payload_stays_absent(
        self, request_id, kind, payload
    ):
        """An explicit None payload and an absent payload are different
        envelopes and must stay different through the wire."""
        reply = RpcReply(request_id, kind, payload=payload)
        encoded = json.loads(reply.to_json())
        if payload is NO_PAYLOAD:
            assert "payload" not in encoded
        else:
            assert "payload" in encoded and encoded["payload"] == payload
        back = RpcReply.from_json(reply.to_json())
        assert (back.payload is NO_PAYLOAD) == (payload is NO_PAYLOAD)
        if payload is not NO_PAYLOAD:
            assert back.payload == payload


# ---------------------------------------------------------------------------
# Binary envelopes: the worker wire's attachment framing
# ---------------------------------------------------------------------------
class TestBinaryEnvelopes:
    """JSON frames and binary-attachment frames share one wire safely."""

    @given(
        header=st.dictionaries(st.text(max_size=8), st.integers(), max_size=4),
        attachment=st.one_of(st.none(), st.binary(max_size=256)),
    )
    @settings(max_examples=120, deadline=None)
    def test_envelope_round_trip(self, header, attachment):
        from repro.engine.rpc import encode_envelope, split_envelope

        text = json.dumps(header)
        frame = encode_envelope(text, attachment)
        if attachment is None:
            # No attachment -> the frame IS the JSON text (byte-identical
            # to the historical wire; nothing to strip on receive).
            assert frame == text.encode("utf-8")
        else:
            assert frame[0] == 0  # no JSON text can start with 0x00
        back_text, back_attachment = split_envelope(frame)
        assert back_text == text
        assert back_attachment == attachment

    @given(
        request_id=st.integers(0, 2**31),
        attachment=st.one_of(st.none(), st.binary(max_size=128)),
    )
    @settings(max_examples=60, deadline=None)
    def test_request_frames(self, request_id, attachment):
        request = RpcRequest(request_id, "t", "adoptShards", {"n": 3})
        request.attachment = attachment
        back = RpcRequest.from_frame(request.to_frame())
        assert back.request_id == request_id
        assert back.args == {"n": 3}
        assert back.attachment == attachment

    @given(
        request_id=st.integers(0, 2**31),
        payload=st.one_of(
            st.just(NO_PAYLOAD), st.none(), st.dictionaries(st.text(), st.integers())
        ),
        attachment=st.one_of(st.none(), st.binary(max_size=128)),
    )
    @settings(max_examples=80, deadline=None)
    def test_reply_frames_preserve_absent_vs_null_payload(
        self, request_id, payload, attachment
    ):
        reply = RpcReply(request_id, "partial", payload=payload)
        reply.attachment = attachment
        back = RpcReply.from_frame(reply.to_frame())
        assert back.attachment == attachment
        assert (back.payload is NO_PAYLOAD) == (payload is NO_PAYLOAD)
        if payload is not NO_PAYLOAD:
            assert back.payload == payload

    def test_mixed_frames_on_one_connection(self):
        """A reader must demux interleaved JSON and binary frames."""
        import io

        from repro.core.framing import (
            FrameError,
            read_frame_blocking,
            write_frame,
        )

        first = RpcReply(1, "ack", payload={"hello": True})
        second = RpcReply(2, "partial", payload={"shardsDone": 6, "bytes": 55})
        second.attachment = b"\x00\x01binary bytes, not JSON\xff"
        third = RpcReply(3, "complete", payload=None)
        buffer = io.BytesIO()
        for reply in (first, second, third):
            write_frame(buffer, reply.to_frame())
        buffer.seek(0)
        out = []
        while True:
            frame = read_frame_blocking(buffer, error=FrameError)
            if frame is None:
                break
            out.append(RpcReply.from_frame(frame))
        assert [r.request_id for r in out] == [1, 2, 3]
        assert out[0].attachment is None and out[0].payload == {"hello": True}
        assert out[1].attachment == second.attachment
        assert out[2].attachment is None and out[2].payload is None


class TestBinarySummaryCodec:
    """summary_to_bytes/summary_from_bytes: the hot-path partial codec."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_binary_round_trip_matches_json_round_trip(self, data):
        from repro.engine.rpc import (
            summary_from_bytes,
            summary_tag,
            summary_to_bytes,
        )

        strategies = _summary_strategies()
        kind = data.draw(st.sampled_from(sorted(strategies)))
        summary = data.draw(strategies[kind])
        assert summary_tag(summary) == kind
        blob = summary_to_bytes(summary)
        back = summary_from_bytes(blob)
        assert type(back) is type(summary)
        assert back.to_bytes() == summary.to_bytes()
        # Both wire modes must rebuild the same object: the JSON path is
        # the differential baseline for the binary one.
        via_json = summary_from_json(summary_to_json(summary))
        assert via_json.to_bytes() == back.to_bytes()

    def test_unknown_tag_is_a_protocol_error(self):
        from repro.core.serialization import Encoder
        from repro.engine.rpc import ProtocolError, summary_from_bytes

        enc = Encoder()
        enc.write_str("no-such-summary")
        with pytest.raises(ProtocolError):
            summary_from_bytes(enc.to_bytes())


class TestTablePayloadRoundTrips:
    """hvc table payloads (shard transfers) survive the wire exactly."""

    @given(
        ints=st.lists(st.one_of(st.none(), st.integers(-10**6, 10**6)), max_size=20),
        strs=st.lists(st.one_of(st.none(), st.text(max_size=6)), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_bytes_round_trip(self, ints, strs):
        from repro.storage.columnar import table_from_bytes, table_to_bytes
        from repro.table.column import column_from_values
        from repro.table.schema import ContentsKind
        from repro.table.table import Table

        n = min(len(ints), len(strs))
        table = Table(
            [
                column_from_values("i", ints[:n], ContentsKind.INTEGER),
                column_from_values("s", strs[:n], ContentsKind.STRING),
            ],
            shard_id="wire-shard",
        )
        payload = table_to_bytes(table)
        back = table_from_bytes(payload, shard_id="wire-shard")
        assert table_to_bytes(back) == payload
        assert back.num_rows == n

    def test_bad_magic_is_a_storage_error(self):
        from repro.errors import StorageError
        from repro.storage.columnar import table_from_bytes

        with pytest.raises(StorageError):
            table_from_bytes(b"not-an-hvc-payload")
