"""Column storage tests: kinds, missing values, surrogates, inference."""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
import pytest

from repro.errors import ColumnKindError, SchemaError
from repro.table.column import (
    DateColumn,
    DoubleColumn,
    IntColumn,
    StringColumn,
    column_from_values,
    datetime_to_millis,
    millis_to_datetime,
)
from repro.table.dictionary import StringDictionary
from repro.table.schema import ColumnDescription, ContentsKind


def desc(name, kind):
    return ColumnDescription(name, kind)


class TestIntColumn:
    def test_values_and_missing(self):
        col = IntColumn(
            desc("a", ContentsKind.INTEGER),
            np.array([1, 2, 3]),
            np.array([False, True, False]),
        )
        assert col.value(0) == 1
        assert col.value(1) is None
        assert col.missing_mask().tolist() == [False, True, False]

    def test_numeric_values_nan_for_missing(self):
        col = IntColumn(
            desc("a", ContentsKind.INTEGER),
            np.array([1, 2]),
            np.array([False, True]),
        )
        values = col.numeric_values(np.array([0, 1]))
        assert values[0] == 1.0
        assert np.isnan(values[1])

    def test_all_false_mask_dropped(self):
        col = IntColumn(
            desc("a", ContentsKind.INTEGER),
            np.array([1, 2]),
            np.array([False, False]),
        )
        assert not col.missing_mask().any()

    def test_wrong_kind_rejected(self):
        with pytest.raises(SchemaError):
            IntColumn(desc("a", ContentsKind.DOUBLE), np.array([1]))

    def test_take_subset(self):
        col = IntColumn(
            desc("a", ContentsKind.INTEGER),
            np.array([10, 20, 30, 40]),
            np.array([False, True, False, False]),
        )
        sub = col.take(np.array([1, 3]))
        assert sub.size == 2
        assert sub.value(0) is None
        assert sub.value(1) == 40

    def test_string_access_raises(self):
        col = IntColumn(desc("a", ContentsKind.INTEGER), np.array([1]))
        with pytest.raises(ColumnKindError):
            col.string_values(np.array([0]))


class TestDoubleColumn:
    def test_nan_is_missing(self):
        col = DoubleColumn(
            desc("d", ContentsKind.DOUBLE), np.array([1.0, np.nan, 3.0])
        )
        assert col.value(1) is None
        assert col.missing_mask().tolist() == [False, True, False]

    def test_sort_surrogate_missing_first(self):
        col = DoubleColumn(desc("d", ContentsKind.DOUBLE), np.array([2.0, np.nan]))
        surrogate = col.sort_surrogate(np.array([0, 1]))
        assert surrogate[1] == -np.inf
        assert surrogate[0] == 2.0

    def test_memory_accounting(self):
        col = DoubleColumn(desc("d", ContentsKind.DOUBLE), np.zeros(100))
        assert col.memory_bytes() == 800


class TestDateColumn:
    def test_millis_roundtrip(self):
        moment = datetime(2019, 7, 10, 15, 30, tzinfo=timezone.utc)
        assert millis_to_datetime(datetime_to_millis(moment)) == moment

    def test_naive_datetime_taken_as_utc(self):
        naive = datetime(2019, 1, 1)
        aware = datetime(2019, 1, 1, tzinfo=timezone.utc)
        assert datetime_to_millis(naive) == datetime_to_millis(aware)

    def test_value_and_numeric(self):
        moment = datetime(2005, 6, 1, tzinfo=timezone.utc)
        col = DateColumn(
            desc("t", ContentsKind.DATE),
            np.array([datetime_to_millis(moment)]),
        )
        assert col.value(0) == moment
        assert col.numeric_values(np.array([0]))[0] == datetime_to_millis(moment)

    #: 2004-02-01T00:00:00.001Z: ``timestamp() * 1000`` in floating point
    #: lands one millisecond low here.
    SHIFTED = 1075593600001

    def test_exact_millis_round_trip(self):
        assert datetime_to_millis(millis_to_datetime(self.SHIFTED)) == self.SHIFTED

    def test_concat_keeps_the_millisecond(self):
        from repro.table.table import Table

        col = DateColumn(desc("t", ContentsKind.DATE), np.array([self.SHIFTED]))
        merged = Table.concat([Table([col]), Table([col])]).column("t").data
        assert merged.tolist() == [self.SHIFTED] * 2

    def test_next_k_date_row_survives_the_binary_codec(self):
        from repro.engine.rpc import summary_from_bytes, summary_to_bytes, summary_to_json
        from repro.sketches.next_items import NextKSketch
        from repro.table.sort import RecordOrder
        from repro.table.table import Table

        col = DateColumn(desc("t", ContentsKind.DATE), np.array([self.SHIFTED]))
        page = NextKSketch(RecordOrder.of("t"), 1).summarize(Table([col]))
        decoded = summary_from_bytes(summary_to_bytes(page))
        assert summary_to_json(decoded) == summary_to_json(page)


class TestStringColumn:
    def test_dictionary_encoding(self):
        col = StringColumn.from_values(
            desc("s", ContentsKind.STRING), ["b", "a", None, "b"]
        )
        assert col.value(0) == "b"
        assert col.value(2) is None
        assert len(col.dictionary) == 2  # only distinct strings stored
        assert col.string_values(np.array([0, 1, 2, 3])) == ["b", "a", None, "b"]

    def test_sort_surrogate_alphabetical(self):
        col = StringColumn.from_values(
            desc("s", ContentsKind.STRING), ["m", "a", "z", None]
        )
        surrogate = col.sort_surrogate(np.array([0, 1, 2, 3]))
        assert surrogate[1] < surrogate[0] < surrogate[2]
        assert surrogate[3] == -np.inf

    def test_take_reencodes_dictionary(self):
        col = StringColumn.from_values(
            desc("s", ContentsKind.STRING), ["a", "b", "c", "d"]
        )
        sub = col.take(np.array([0, 1]))
        assert isinstance(sub, StringColumn)
        assert len(sub.dictionary) == 2

    def test_rename_shares_storage(self):
        col = StringColumn.from_values(desc("s", ContentsKind.STRING), ["x"])
        renamed = col.rename("t")
        assert renamed.name == "t"
        assert renamed.value(0) == "x"
        assert col.name == "s"


class TestDictionary:
    def test_codes_dense_and_stable(self):
        d = StringDictionary()
        assert d.code_for("x") == 0
        assert d.code_for("y") == 1
        assert d.code_for("x") == 0
        assert d.code_of("z") == -1
        assert "y" in d

    def test_sorted_ranks(self):
        d = StringDictionary(["m", "a", "z"])
        ranks = d.sorted_ranks()
        # "a" < "m" < "z": codes 1, 0, 2 get ranks 0, 1, 2 respectively
        assert ranks.tolist() == [1, 0, 2]

    def test_ranks_refresh_after_growth(self):
        d = StringDictionary(["b"])
        assert d.sorted_ranks().tolist() == [0]
        d.code_for("a")
        assert d.sorted_ranks().tolist() == [1, 0]


class TestInference:
    def test_infer_integer(self):
        col = column_from_values("c", [1, 2, None])
        assert col.kind is ContentsKind.INTEGER

    def test_infer_double(self):
        assert column_from_values("c", [1, 2.5]).kind is ContentsKind.DOUBLE

    def test_infer_date(self):
        col = column_from_values("c", [datetime(2019, 1, 1)])
        assert col.kind is ContentsKind.DATE

    def test_infer_string_wins_over_mixed(self):
        assert column_from_values("c", [1, "x"]).kind is ContentsKind.STRING

    def test_all_none_is_string(self):
        assert column_from_values("c", [None, None]).kind is ContentsKind.STRING

    def test_explicit_kind_respected(self):
        col = column_from_values("c", [1, 2], ContentsKind.DOUBLE)
        assert col.kind is ContentsKind.DOUBLE
