"""Find-text vizketch (§4.3, B.2): free-form search in the tabular view.

Given a search criterion (exact / substring / regexp, case sensitivity), a
sort order and a start position, this sketch finds the next matching row in
the sort order, plus how many matches lie before/after — enough for the UI
to say "match 7 of 152" and jump to it.

It is the next-items vizketch restricted to matching rows (the paper
describes it exactly that way).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sketch import Sketch, Summary
from repro.core.wire import ROW, UVARINT, Field, Wire, optional
from repro.table.compute import STRING_MATCH, StringMatchPredicate
from repro.table.sort import ORDER, START_KEY, RecordOrder, RowKey
from repro.table.table import Table


@dataclass
class FindResult(Summary):
    """First match after the start position plus match counts."""

    order: RecordOrder
    first_match: tuple | None = None
    #: Matches at or before the start position.
    matches_before: int = 0
    #: Matches strictly after the start position (including first_match).
    matches_after: int = 0

    wire = Wire(
        "find",
        Field("order", "order", ORDER),
        Field("first_match", "firstMatch", optional(ROW)),
        Field("matches_before", "matchesBefore", UVARINT),
        Field("matches_after", "matchesAfter", UVARINT),
    )

    @property
    def total_matches(self) -> int:
        return self.matches_before + self.matches_after

    def first_key(self) -> RowKey | None:
        if self.first_match is None:
            return None
        return self.order.key_from_values(self.first_match)


class FindTextSketch(Sketch[FindResult]):
    """Locate the next row matching a text search (paper §3.3)."""

    wire = Wire(
        "find",
        Field("order", "order", ORDER),
        Field("predicate", "match", STRING_MATCH),
        Field("start_key", "start", START_KEY, None, context="order"),
    )

    def __init__(
        self,
        predicate: StringMatchPredicate,
        order: RecordOrder,
        start_key: RowKey | None = None,
    ):
        if not isinstance(predicate, StringMatchPredicate):
            raise TypeError("find requires a string-match predicate")
        self.predicate = predicate
        self.order = order
        self.start_key = start_key

    @property
    def name(self) -> str:
        return f"FindText({self.predicate.pattern!r} in {self.predicate.column})"

    def cache_key(self) -> str | None:
        start = None if self.start_key is None else self.start_key.values()
        return f"Find({self.predicate.spec()},{self.order.spec()!r},{start!r})"

    def zero(self) -> FindResult:
        return FindResult(order=self.order)

    def summarize(self, table: Table) -> FindResult:
        members = table.members
        keep = self.predicate.evaluate(table, members.selection())
        matching = members.rows_at(keep.nonzero()[0])
        if len(matching) == 0:
            return self.zero()
        sorted_rows = self.order.argsort(table, matching)
        total = len(sorted_rows)
        first = 0
        if self.start_key is not None:
            # The matches at or before the start form a prefix.
            first = self.order.first_after(table, sorted_rows, self.start_key)
        result = FindResult(
            order=self.order,
            matches_before=first,
            matches_after=total - first,
        )
        if first < total:
            result.first_match = self.order.row_key(
                table, int(sorted_rows[first])
            ).values()
        return result

    def summarize_reference(self, table: Table) -> FindResult:
        """Per-row oracle for :meth:`summarize` (differential tests)."""
        rows = table.members.indices()
        matching = rows[self.predicate.evaluate(table, rows)]
        if len(matching) == 0:
            return self.zero()
        sorted_rows = self.order.argsort(table, matching)
        columns = [table.column(c) for c in self.order.columns]
        result = FindResult(order=self.order)
        for row in sorted_rows:
            values = tuple(column.value(int(row)) for column in columns)
            key = self.order.key_from_values(values)
            if self.start_key is not None and not self.start_key < key:
                result.matches_before += 1
                continue
            if result.first_match is None:
                result.first_match = values
            result.matches_after += 1
        return result

    def merge(self, left: FindResult, right: FindResult) -> FindResult:
        merged = FindResult(
            order=self.order,
            matches_before=left.matches_before + right.matches_before,
            matches_after=left.matches_after + right.matches_after,
        )
        lkey, rkey = left.first_key(), right.first_key()
        if lkey is None:
            merged.first_match = right.first_match
        elif rkey is None:
            merged.first_match = left.first_match
        else:
            merged.first_match = (
                left.first_match if lkey.compare(rkey) <= 0 else right.first_match
            )
        return merged
