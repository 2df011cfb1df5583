"""Next-items, quantile and find-text sketch tests (the tabular view)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_kernel_equivalence import canonical_tables

from repro.core.serialization import Decoder, Encoder
from repro.engine.local import LocalDataSet
from repro.sketches.find_text import FindResult, FindTextSketch
from repro.sketches.next_items import NextKList, NextKSketch
from repro.sketches.quantile import QuantileSummary, SampleQuantileSketch
from repro.sketches.specs import CANONICAL_SCHEMA
from repro.table.column import DoubleColumn, IntColumn
from repro.table.compute import StringMatchPredicate
from repro.table.schema import ColumnDescription, ContentsKind
from repro.table.sort import RecordOrder
from repro.table.table import Table


def exact_groups(table, order):
    """Reference: distinct sort-column tuples with counts, in order."""
    rows = table.members.indices()
    columns = [table.column(c) for c in order.columns]
    tuples = [tuple(col.value(int(r)) for col in columns) for r in rows]
    counted: dict = {}
    for t in tuples:
        counted[t] = counted.get(t, 0) + 1
    keys = sorted(counted, key=lambda t: order.key_from_values(t))
    return [(k, counted[k]) for k in keys]


class TestNextK:
    def test_first_page_matches_reference(self, flights):
        order = RecordOrder.of("Airline", "DepDelay")
        sketch = NextKSketch(order, 10)
        result = sketch.summarize(flights)
        expected = exact_groups(flights, order)[:10]
        assert list(zip(result.rows, result.counts)) == expected

    @pytest.mark.parametrize("parts", [2, 5, 11])
    def test_partition_invariance(self, flights, parts):
        order = RecordOrder.of("Origin", "Dest")
        sketch = NextKSketch(order, 8)
        whole = sketch.summarize(flights)
        merged = sketch.merge_all(
            [sketch.summarize(s) for s in flights.split(parts)]
        )
        assert merged.rows == whole.rows
        assert merged.counts == whole.counts
        assert merged.scanned == whole.scanned

    def test_start_key_pages_forward(self, small_table):
        order = RecordOrder.of("x")
        first = NextKSketch(order, 3).summarize(small_table)
        start = order.key_from_values(first.rows[-1])
        second = NextKSketch(order, 3, start).summarize(small_table)
        assert second.rows[0][0] > first.rows[-1][0] or first.rows[-1][0] is None
        # preceding counts the rows on earlier pages
        assert second.preceding == sum(first.counts)

    def test_inclusive_start(self, small_table):
        order = RecordOrder.of("x")
        key = order.key_from_values((2,))
        exclusive = NextKSketch(order, 3, key).summarize(small_table)
        inclusive = NextKSketch(order, 3, key, inclusive=True).summarize(small_table)
        assert exclusive.rows[0] == (3,)
        assert inclusive.rows[0] == (2,)

    def test_duplicate_aggregation(self, small_table):
        order = RecordOrder.of("name")
        result = NextKSketch(order, 10).summarize(small_table)
        by_name = dict(zip([r[0] for r in result.rows], result.counts))
        assert by_name["alice"] == 3
        assert by_name["bob"] == 2
        assert by_name[None] == 1

    def test_descending_order(self, small_table):
        order = RecordOrder.of("x", ascending=False)
        result = NextKSketch(order, 3).summarize(small_table)
        assert [r[0] for r in result.rows] == [5, 4, 3]

    def test_missing_sorts_first_ascending(self, small_table):
        order = RecordOrder.of("x")
        result = NextKSketch(order, 1).summarize(small_table)
        assert result.rows[0] == (None,)

    def test_empty_shard(self, small_table):
        from repro.table.compute import ColumnPredicate

        empty = small_table.filter(ColumnPredicate("x", ">", 1000))
        order = RecordOrder.of("x")
        result = NextKSketch(order, 5).summarize(empty)
        assert result.rows == []
        merged = NextKSketch(order, 5).merge(
            result, NextKSketch(order, 5).summarize(small_table)
        )
        assert len(merged.rows) == 5

    def test_serialization(self, small_table):
        order = RecordOrder.of("name", "x")
        result = NextKSketch(order, 4).summarize(small_table)
        enc = Encoder()
        result.encode(enc)
        back = NextKList.decode(Decoder(enc.to_bytes()))
        assert back.rows == result.rows
        assert back.counts == result.counts
        assert back.order == order

    def test_negative_zero_groups_with_zero(self):
        # -0.0 == 0.0: one group, whichever shard or merge order it met.
        table = Table.from_pydict({"v": [-0.0, 0.0, 1.0, 0.0, -0.0]})
        sketch = NextKSketch(RecordOrder.of("v"), 2)
        shards = [sketch.summarize(s) for s in table.split(5)]
        for summary in (
            sketch.summarize(table),
            sketch.merge_all(shards),
            sketch.merge_all(shards[::-1]),
            sketch.summarize_reference(table),
        ):
            assert summary.to_bytes() == sketch.merge_all(shards).to_bytes()
            assert summary.counts == [4, 1]
            assert str(summary.rows[0][0]) == "0.0"

    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=60),
        st.integers(1, 8),
        st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_merge_equals_whole(self, values, k, parts):
        table = Table.from_pydict({"v": values})
        order = RecordOrder.of("v")
        sketch = NextKSketch(order, k)
        whole = sketch.summarize(table)
        merged = sketch.merge_all([sketch.summarize(s) for s in table.split(parts)])
        assert whole.rows == merged.rows
        assert whole.counts == merged.counts


@st.composite
def sort_orders(draw) -> RecordOrder:
    columns = draw(
        st.lists(st.sampled_from(sorted(CANONICAL_SCHEMA)), min_size=1, unique=True)
    )
    flags = draw(st.lists(st.booleans(), min_size=len(columns), max_size=len(columns)))
    return RecordOrder.of(*columns, ascending=flags)


class TestNextKPaging:
    """Scrolling the table view: each page starts at the previous page's
    last row (``Spreadsheet.next_page``), backward over the reversed order
    (``Spreadsheet.prev_page``)."""

    @staticmethod
    def pages(table, shards, order, k, start=None):
        """Every page from ``start`` on, each merged from ``shards`` and
        checked against the unsplit table."""
        whole = LocalDataSet(table)
        out = []
        while True:
            sketch = NextKSketch(order, k, start)
            page = sketch.merge_all([sketch.summarize(s) for s in shards])
            assert page.to_bytes() == whole.sketch(sketch).to_bytes()
            out.append(page)
            if len(page.rows) < k:
                return out
            start = order.key_from_values(page.rows[-1])

    @given(
        table=canonical_tables(min_rows=1),
        shards=st.integers(1, 8),
        order=sort_orders(),
        k=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_paging_visits_every_key_once_in_order(self, table, shards, order, k):
        groups = exact_groups(table, order)
        forward = self.pages(table, table.split(shards), order, k)
        visited = [row for page in forward for row in page.rows]
        assert visited == [values for values, _ in groups]
        counts = [count for page in forward for count in page.counts]
        assert counts == [count for _, count in groups]
        assert sum(counts) == table.num_rows
        shown = 0
        for page in forward:
            assert page.scanned == table.num_rows
            assert page.preceding == shown
            shown += sum(page.counts)
        # Backward from the last row, the reversed order walks every other
        # key back to the top.
        reverse = order.reversed()
        bottom = reverse.key_from_values(visited[-1])
        backward = self.pages(table, table.split(shards), reverse, k, bottom)
        assert [row for page in backward for row in page.rows] == visited[-2::-1]

    @pytest.mark.parametrize("ascending", [True, False])
    def test_pages_through_infinite_cells(self, ascending):
        """±inf are cell values (``read_csv`` parses 'inf'); the start key
        must land where ``sort_surrogate`` put the rows that hold them."""
        inf = float("inf")
        table = Table.from_pydict(
            {"d": [inf, inf, inf, 1.0, 2.0, -inf, None], "i": [1, 2, 3, 0, 0, 5, 6]},
            shard_id="inf",
        )
        order = RecordOrder.of("d", "i", ascending=ascending)
        pages = self.pages(table, [table], order, 2)
        visited = [row for page in pages for row in page.rows]
        assert visited == [values for values, _ in exact_groups(table, order)]
        assert [page.preceding for page in pages] == [0, 2, 4, 6]

    def test_builds_objects_only_for_the_rows_it_returns(self, monkeypatch):
        """A page over a large shard costs k groups' cells and the O(log n)
        keys of one bisect — no per-row, no per-group Python object."""
        rng = np.random.default_rng(5)
        n, k = 50_000, 50
        table = Table(
            [
                IntColumn(
                    ColumnDescription("i", ContentsKind.INTEGER),
                    rng.integers(-60, 61, n),
                    rng.random(n) < 0.02,
                ),
                DoubleColumn(
                    ColumnDescription("d", ContentsKind.DOUBLE),
                    rng.uniform(-60.0, 60.0, n),
                ),
            ],
            shard_id="large",
        )
        order = RecordOrder.of("i", "d", ascending=[False, True])
        first = NextKSketch(order, k).summarize(table)
        sketch = NextKSketch(order, k, order.key_from_values(first.rows[-1]))
        calls = []

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(IntColumn, "value")
        counted(DoubleColumn, "value")
        counted(RecordOrder, "row_key")
        counted(RecordOrder, "key_from_values")
        page = sketch.summarize(table)
        assert len(page.rows) == k and page.preceding == sum(first.counts)
        assert 0 < len(calls) <= k * len(order.columns) + 64
        calls.clear()
        sketch.summarize_reference(table)
        assert len(calls) > n // 2  # the oracle does pay per group


class TestQuantile:
    def test_exact_when_rate_one(self, medium_numeric):
        order = RecordOrder.of("value")
        sketch = SampleQuantileSketch(order, rate=1.0, max_size=200_000)
        summary = sketch.summarize(medium_numeric)
        median = summary.quantile(0.5)[0]
        true_median = float(np.median(medium_numeric.column("value").data))
        assert abs(median - true_median) < 1.0

    def test_sampled_quantiles_close(self, medium_numeric):
        order = RecordOrder.of("value")
        sketch = SampleQuantileSketch(order, rate=0.2, seed=4)
        summary = sketch.merge_all(
            [sketch.summarize(s) for s in medium_numeric.split(8)]
        )
        for fraction in (0.1, 0.5, 0.9):
            estimate = summary.quantile(fraction)[0]
            truth = float(
                np.quantile(medium_numeric.column("value").data, fraction)
            )
            assert abs(estimate - truth) < 2.5, fraction

    def test_samples_stay_sorted_through_merge(self, medium_numeric):
        order = RecordOrder.of("value")
        sketch = SampleQuantileSketch(order, rate=0.05, seed=1)
        summary = sketch.merge_all(
            [sketch.summarize(s) for s in medium_numeric.split(6)]
        )
        values = [s[0] for s in summary.samples]
        assert values == sorted(values)

    def test_size_bounded(self, medium_numeric):
        order = RecordOrder.of("value")
        sketch = SampleQuantileSketch(order, rate=1.0, max_size=100)
        summary = sketch.merge_all(
            [sketch.summarize(s) for s in medium_numeric.split(4)]
        )
        assert len(summary.samples) <= 200

    def test_quantile_edges(self):
        order = RecordOrder.of("v")
        summary = QuantileSummary(order=order, samples=[(1,), (2,), (3,)])
        assert summary.quantile(0.0) == (1,)
        assert summary.quantile(1.0) == (3,)
        assert summary.quantile(-5) == (1,)
        assert QuantileSummary(order=order).quantile(0.5) is None

    def test_serialization(self, small_table):
        order = RecordOrder.of("x")
        sketch = SampleQuantileSketch(order, rate=1.0)
        summary = sketch.summarize(small_table)
        enc = Encoder()
        summary.encode(enc)
        back = QuantileSummary.decode(Decoder(enc.to_bytes()))
        assert back.samples == summary.samples


class TestFindText:
    @pytest.fixture
    def table(self):
        return Table.from_pydict(
            {
                "s": ["gandalf", "frodo", "gimli", "Gandalf", "legolas", None],
                "n": [1, 2, 3, 4, 5, 6],
            }
        )

    def test_finds_first_in_order(self, table):
        predicate = StringMatchPredicate("s", "gandalf", case_sensitive=False)
        order = RecordOrder.of("n")
        result = FindTextSketch(predicate, order).summarize(table)
        assert result.first_match == (1,)
        assert result.matches_after == 2
        assert result.matches_before == 0

    def test_start_key_skips_earlier_matches(self, table):
        predicate = StringMatchPredicate("s", "gandalf", case_sensitive=False)
        order = RecordOrder.of("n")
        start = order.key_from_values((1,))
        result = FindTextSketch(predicate, order, start).summarize(table)
        assert result.first_match == (4,)
        assert result.matches_before == 1
        assert result.matches_after == 1

    def test_no_match(self, table):
        predicate = StringMatchPredicate("s", "sauron")
        order = RecordOrder.of("n")
        result = FindTextSketch(predicate, order).summarize(table)
        assert result.first_match is None
        assert result.total_matches == 0

    def test_merge_picks_smallest_key(self, table):
        predicate = StringMatchPredicate("s", "g")  # gandalf, gimli, legolas...
        order = RecordOrder.of("n")
        sketch = FindTextSketch(predicate, order)
        merged = sketch.merge_all([sketch.summarize(s) for s in table.split(3)])
        whole = sketch.summarize(table)
        assert merged.first_match == whole.first_match
        assert merged.total_matches == whole.total_matches

    def test_serialization(self, table):
        predicate = StringMatchPredicate("s", "frodo")
        order = RecordOrder.of("n")
        result = FindTextSketch(predicate, order).summarize(table)
        enc = Encoder()
        result.encode(enc)
        back = FindResult.decode(Decoder(enc.to_bytes()))
        assert back.first_match == result.first_match
        assert back.matches_after == result.matches_after
