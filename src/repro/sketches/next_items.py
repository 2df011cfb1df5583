"""Next-items vizketch: the tabular view of the spreadsheet (§4.3).

Given a sort order, a start position R (a row key, or None for the top) and
a count K, this sketch returns the K distinct rows following R in the sort
order, each with its repetition count (paper §3.3 aggregates duplicates).

``summarize`` selects one shard's local next-K groups — it drops the rows
before R by their leading sort cell, cuts what follows to the few rows that
can hold K groups, and sorts only those; ``merge`` interleaves two sorted
lists, combining counts of equal keys and truncating to K — the classic
mergeable top-K structure.  The summary also carries how many rows precede
R, which positions the scroll bar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.sketch import Sketch, Summary
from repro.core.wire import (
    BOOL,
    INT,
    ROW,
    ROWS,
    UVARINT,
    Field,
    Kind,
    Wire,
    list_of,
    pair_of,
)
from repro.table.column import Column
from repro.table.schema import ContentsKind
from repro.table.sort import ORDER, START_KEY, RecordOrder, RowKey
from repro.table.table import Table


_COUNTED = list_of(pair_of(UVARINT, ROW))


def _canonical(column: Column, values: list) -> list:
    """Equal cells read alike (``-0.0`` reads ``0.0``), so the row that
    stands for a group does not depend on which of its rows came first."""
    if column.kind is not ContentsKind.DOUBLE:
        return values
    return [None if v is None else v + 0.0 for v in values]


def _read_counted_rows(dec) -> tuple[list, list]:
    records = _COUNTED.read(dec)
    return [row for _, row in records], [count for count, _ in records]


#: ``(rows, counts)`` together: two parallel lists in JSON, but one list of
#: (count, row) records in binary.
COUNTED_ROWS = Kind(
    "rows, and the repetition count of each",
    lambda value: (ROWS.to_json(value[0]), list(value[1])),
    lambda data: (ROWS.from_json(data[0]), [int(c) for c in data[1]]),
    lambda enc, value: _COUNTED.write(enc, list(zip(value[1], value[0]))),
    _read_counted_rows,
)


@dataclass
class NextKList(Summary):
    """K distinct row keys (as raw cell values) with repetition counts."""

    order: RecordOrder
    rows: list[tuple] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)
    #: Member rows at or before the start position (for the scroll bar).
    preceding: int = 0
    #: Total member rows examined (preceding + following).
    scanned: int = 0

    wire = Wire(
        "nextK",
        Field("order", "order", ORDER),
        Field(("rows", "counts"), ("rows", "counts"), COUNTED_ROWS),
        Field("preceding", "preceding", UVARINT),
        Field("scanned", "scanned", UVARINT),
    )

    def keys(self) -> list[RowKey]:
        return [self.order.key_from_values(values) for values in self.rows]

    @property
    def position_fraction(self) -> float:
        """Approximate scroll position of the first listed row."""
        if self.scanned == 0:
            return 0.0
        return self.preceding / self.scanned


class NextKSketch(Sketch[NextKList]):
    """The K distinct rows following ``start_key`` in ``order``.

    With ``inclusive`` the row equal to ``start_key`` is included at the top
    of the result — used when jumping to a found row or a quantile, so the
    target row is the first visible one.
    """

    wire = Wire(
        "nextK",
        Field("order", "order", ORDER),
        Field("k", "k", INT, 20),
        Field("inclusive", "inclusive", BOOL, False),
        Field("start_key", "start", START_KEY, None, context="order"),
    )

    def __init__(
        self,
        order: RecordOrder,
        k: int,
        start_key: RowKey | None = None,
        inclusive: bool = False,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.order = order
        self.k = k
        self.start_key = start_key
        self.inclusive = inclusive

    def _precedes(self, key: RowKey) -> bool:
        """Whether a row with ``key`` falls before the view window."""
        if self.start_key is None:
            return False
        if self.inclusive:
            return key < self.start_key
        return not self.start_key < key

    @property
    def name(self) -> str:
        return f"NextK({self.order.spec()},k={self.k})"

    def cache_key(self) -> str | None:
        start = None if self.start_key is None else self.start_key.values()
        return f"NextK({self.order.spec()!r},{self.k},{start!r},inc={self.inclusive})"

    def zero(self) -> NextKList:
        return NextKList(order=self.order)

    def summarize(self, table: Table) -> NextKList:
        members = table.members
        scanned = members.size
        if scanned == 0:
            return self.zero()
        leading = self.order.orientations[0]
        lead = leading.surrogate(table, members.selection())
        # Member positions: only the rows that reach a sort are named.
        positions = np.arange(scanned)
        preceding = ties = 0
        if self.start_key is not None:
            # A row whose leading cell sorts strictly before the start's
            # precedes the window whatever its other cells hold: counted,
            # never sorted.  Rows tied with it there are decided below.
            start = leading.surrogate_of(table, self.start_key.values()[0])
            kept = np.flatnonzero(lead >= start)
            preceding = scanned - len(kept)
            if preceding:
                positions, lead = kept, lead[kept]
            ties = int(np.count_nonzero(lead == start))
        # The tied rows may all precede the window, so the smallest cut
        # that can hold k groups is the ties plus k rows.
        take = ties + self.k
        inside = None
        if 2 * take < len(lead):
            # Whole leading-cell runs only: no group straddles the cut,
            # and every row left outside sorts after every row inside.
            inside = lead <= np.partition(lead, take - 1)[take - 1]
        cut = (positions, lead) if inside is None else (positions[inside], lead[inside])
        firsts, counts, skipped = self._groups(table, members.rows_at(cut[0]), cut[1], ties)
        if len(firsts) < self.k and inside is not None:
            # Duplicates left the cut short: sort all the rest, once.
            more_firsts, more_counts, _ = self._groups(
                table, members.rows_at(positions[~inside]), lead[~inside], ties=0
            )
            firsts = np.concatenate((firsts, more_firsts))
            counts = np.concatenate((counts, more_counts))
        shown = firsts[: self.k]
        columns = [table.column(c) for c in self.order.columns]
        return NextKList(
            order=self.order,
            rows=list(zip(*(_canonical(c, c.values_at(shown)) for c in columns))),
            counts=counts[: self.k].tolist(),
            preceding=preceding + skipped,
            scanned=scanned,
        )

    def _groups(
        self, table: Table, rows: np.ndarray, lead: np.ndarray, ties: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """``rows`` sorted and grouped, past the start position.

        ``lead`` is their leading sort key and ``ties`` how many of them
        equal the start's there.  Returns the first row of each group, the
        group sizes, and how many tied rows were dropped as at or before
        the start.
        """
        order = self.order
        keys = np.stack(
            [lead] + [o.surrogate(table, rows) for o in order.orientations[1:]]
        )
        # np.lexsort takes its primary key last; it is stable and ``rows``
        # is in row order, as in RecordOrder.argsort.
        by_order = np.lexsort(keys[::-1])
        rows, keys = rows[by_order], keys[:, by_order]
        # The tied rows sort first; those at or before the start form a
        # prefix of them.
        first = order.first_after(
            table, rows[:ties], self.start_key, self.inclusive
        )
        rows, keys = rows[first:], keys[:, first:]
        if len(rows) == 0:
            return rows, rows, first
        # Equal surrogate vectors imply equal cell values within one
        # shard, so a group ends where any surrogate changes.
        change = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
        bounds = np.concatenate(([0], np.flatnonzero(change) + 1, [len(rows)]))
        return rows[bounds[:-1]], np.diff(bounds), first

    def summarize_reference(self, table: Table) -> NextKList:
        """Per-group oracle for :meth:`summarize` (differential tests)."""
        rows = table.members.indices()
        if len(rows) == 0:
            return self.zero()
        sorted_rows = self.order.argsort(table, rows)
        # Group equal keys using the shard-local surrogates: equal surrogate
        # vectors imply equal cell values within one shard.
        keys = np.stack(self.order.surrogate_keys(table, sorted_rows))
        change = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
        starts = np.concatenate(([0], np.flatnonzero(change) + 1))
        ends = np.concatenate((starts[1:], [len(sorted_rows)]))

        result = NextKList(order=self.order, scanned=len(rows))
        preceding = 0
        columns = [table.column(c) for c in self.order.columns]
        for start, end in zip(starts, ends):
            row = int(sorted_rows[start])
            values = tuple(_canonical(c, [c.value(row)])[0] for c in columns)
            key = self.order.key_from_values(values)
            if self._precedes(key):
                preceding += int(end - start)
                continue
            if len(result.rows) < self.k:
                result.rows.append(values)
                result.counts.append(int(end - start))
        result.preceding = preceding
        return result

    def merge(self, left: NextKList, right: NextKList) -> NextKList:
        merged = NextKList(
            order=self.order,
            preceding=left.preceding + right.preceding,
            scanned=left.scanned + right.scanned,
        )
        li = ri = 0
        lkeys, rkeys = left.keys(), right.keys()
        while len(merged.rows) < self.k and (li < len(lkeys) or ri < len(rkeys)):
            if li >= len(lkeys):
                take_left, take_right = False, True
            elif ri >= len(rkeys):
                take_left, take_right = True, False
            else:
                cmp = lkeys[li].compare(rkeys[ri])
                take_left, take_right = cmp <= 0, cmp >= 0
            count = 0
            values: tuple = ()
            if take_left:
                values = left.rows[li]
                count += left.counts[li]
                li += 1
            if take_right:
                values = right.rows[ri]
                count += right.counts[ri]
                ri += 1
            merged.rows.append(values)
            merged.counts.append(count)
        return merged
