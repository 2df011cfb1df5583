"""Predicate tests: column comparisons, text search, boolean composition."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from repro.engine.rpc import predicate_from_json
from repro.errors import ColumnKindError, SchemaError
from repro.table.compute import (
    AndPredicate,
    ColumnPredicate,
    NotPredicate,
    OrPredicate,
    StringMatchPredicate,
)
from repro.table.table import Table


@pytest.fixture
def table():
    return Table.from_pydict(
        {
            "n": [1, 2, 3, 4, 5, None],
            "s": ["Apple", "banana", "Cherry", "apple pie", None, "BANANA"],
        }
    )


def rows(table):
    return table.members.indices()


class TestColumnPredicate:
    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("==", 3, [False, False, True, False, False, False]),
            ("!=", 3, [True, True, False, True, True, False]),
            ("<", 3, [True, True, False, False, False, False]),
            ("<=", 3, [True, True, True, False, False, False]),
            (">", 3, [False, False, False, True, True, False]),
            (">=", 3, [False, False, True, True, True, False]),
        ],
    )
    def test_numeric_operators(self, table, op, value, expected):
        predicate = ColumnPredicate("n", op, value)
        assert predicate.evaluate(table, rows(table)).tolist() == expected

    def test_between_and_in(self, table):
        between = ColumnPredicate("n", "between", (2, 4))
        assert between.evaluate(table, rows(table)).tolist() == [
            False, True, True, True, False, False,
        ]
        contained = ColumnPredicate("n", "in", [1, 5])
        assert contained.evaluate(table, rows(table)).tolist() == [
            True, False, False, False, True, False,
        ]

    def test_is_missing(self, table):
        predicate = ColumnPredicate("n", "is_missing")
        assert predicate.evaluate(table, rows(table)).tolist() == [
            False, False, False, False, False, True,
        ]

    def test_string_equality_via_dictionary(self, table):
        predicate = ColumnPredicate("s", "==", "Apple")
        assert predicate.evaluate(table, rows(table)).tolist() == [
            True, False, False, False, False, False,
        ]

    def test_string_range(self, table):
        predicate = ColumnPredicate("s", "between", ("A", "C"))
        result = predicate.evaluate(table, rows(table))
        assert result.tolist() == [True, False, False, False, False, True]

    def test_unknown_operator(self):
        with pytest.raises(SchemaError):
            ColumnPredicate("n", "~~", 1)

    def test_spec_is_stable(self):
        assert (
            ColumnPredicate("n", ">", 3).spec()
            == ColumnPredicate("n", ">", 3).spec()
        )


class TestStringMatch:
    def test_substring_default(self, table):
        predicate = StringMatchPredicate("s", "an")
        assert predicate.evaluate(table, rows(table)).tolist() == [
            False, True, False, False, False, False,
        ]

    def test_case_insensitive(self, table):
        predicate = StringMatchPredicate("s", "banana", case_sensitive=False)
        assert predicate.evaluate(table, rows(table)).tolist() == [
            False, True, False, False, False, True,
        ]

    def test_exact(self, table):
        predicate = StringMatchPredicate("s", "Apple", mode="exact")
        assert predicate.evaluate(table, rows(table)).sum() == 1

    def test_regex(self, table):
        predicate = StringMatchPredicate("s", r"^[ab]", mode="regex")
        assert predicate.evaluate(table, rows(table)).tolist() == [
            False, True, False, True, False, False,
        ]

    def test_regex_case_insensitive(self, table):
        predicate = StringMatchPredicate(
            "s", r"^banana$", mode="regex", case_sensitive=False
        )
        assert predicate.evaluate(table, rows(table)).sum() == 2

    def test_invalid_mode(self):
        with pytest.raises(SchemaError):
            StringMatchPredicate("s", "x", mode="glob")

    def test_numeric_column_rejected(self, table):
        predicate = StringMatchPredicate("n", "1")
        with pytest.raises(ColumnKindError):
            predicate.evaluate(table, rows(table))


class TestComposition:
    def test_and_or_not(self, table):
        a = ColumnPredicate("n", ">", 1)
        b = ColumnPredicate("n", "<", 4)
        both = (a & b).evaluate(table, rows(table))
        assert both.tolist() == [False, True, True, False, False, False]
        either = (ColumnPredicate("n", "==", 1) | ColumnPredicate("n", "==", 5))
        assert either.evaluate(table, rows(table)).tolist() == [
            True, False, False, False, True, False,
        ]
        negated = (~a).evaluate(table, rows(table))
        assert negated.tolist() == [True, False, False, False, False, True]

    def test_and_short_circuits_structurally(self, table):
        # An AND whose first branch is empty must not fail on the second.
        bad = ColumnPredicate("n", ">", 100)
        composite = AndPredicate([bad, ColumnPredicate("n", ">", 0)])
        assert composite.evaluate(table, rows(table)).sum() == 0

    def test_empty_composites_rejected(self):
        with pytest.raises(SchemaError):
            AndPredicate([])
        with pytest.raises(SchemaError):
            OrPredicate([])

    def test_specs_compose(self, table):
        spec = NotPredicate(
            AndPredicate([ColumnPredicate("n", ">", 1), ColumnPredicate("n", "<", 3)])
        ).spec()
        assert spec.startswith("Not(And(")

    def test_filter_on_member_subset(self, table):
        filtered = table.filter(ColumnPredicate("n", ">", 2))
        result = ColumnPredicate("n", "<", 5).evaluate(
            filtered, filtered.members.indices()
        )
        assert result.tolist() == [True, True, False]


class TestDatePredicates:
    """Comparisons on a DATE column take datetimes, in and off the wire."""

    DAY = timedelta(days=1)
    START = datetime(2020, 3, 1, 12, 30, tzinfo=timezone.utc)

    @pytest.fixture
    def dates(self):
        values = [self.START + i * self.DAY for i in range(6)] + [None]
        values[4] = values[1]  # a repeat, so == keeps more than one row
        return Table.from_pydict({"t": values})

    def oracle(self, table, test):
        column = table.column("t")
        out = []
        for row in rows(table):
            value = column.value(int(row))
            out.append(value is not None and test(value))
        return out

    @pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
    @pytest.mark.parametrize("offset", [timedelta(0), timedelta(microseconds=500)])
    def test_comparisons_match_the_per_row_oracle(self, dates, op, offset):
        value = self.START + 2 * self.DAY + offset
        compare = {
            "==": lambda v: v == value, "!=": lambda v: v != value,
            "<": lambda v: v < value, "<=": lambda v: v <= value,
            ">": lambda v: v > value, ">=": lambda v: v >= value,
        }[op]
        got = ColumnPredicate("t", op, value).evaluate(dates, rows(dates))
        assert got.tolist() == self.oracle(dates, compare)

    def test_between_and_in(self, dates):
        lo, hi = self.START + self.DAY, self.START + 3 * self.DAY
        between = ColumnPredicate("t", "between", (lo, hi))
        assert between.evaluate(dates, rows(dates)).tolist() == self.oracle(
            dates, lambda v: lo <= v <= hi
        )
        wanted = [self.START, self.START + 4 * self.DAY]
        contained = ColumnPredicate("t", "in", wanted)
        assert contained.evaluate(dates, rows(dates)).tolist() == self.oracle(
            dates, lambda v: v in wanted
        )

    def test_naive_datetimes_are_utc(self, dates):
        naive = (self.START + self.DAY).replace(tzinfo=None)
        got = ColumnPredicate("t", "==", naive).evaluate(dates, rows(dates))
        assert got.tolist() == self.oracle(dates, lambda v: v == self.START + self.DAY)

    def test_wire_date_through_a_local_dataset(self, dates):
        from repro.engine.dataset import FilterMap
        from repro.engine.local import LocalDataSet

        predicate = predicate_from_json(
            {
                "type": "column",
                "column": "t",
                "op": "==",
                "value": {"$date": (self.START + self.DAY).isoformat()},
            }
        )
        filtered = LocalDataSet(dates).map(FilterMap(predicate))
        assert filtered.total_rows == 2
        assert filtered.table.members.indices().tolist() == [1, 4]
