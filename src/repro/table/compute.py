"""Row predicates and derived columns (paper §5.6).

Selection (filtering) and user-defined maps are the two data transformations
Hillview supports.  Predicates are declarative value objects with a stable
``spec()`` so the engine's redo log can replay them deterministically after
a failure; user-defined maps carry a Python callable (the analogue of
Hillview's user-supplied JavaScript) and are replayed by re-invoking it.

String predicates evaluate against the column *dictionary* first and then
map codes, so a substring search over a billion rows touches each distinct
string once (paper §6: dictionary encoding).
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import replace
from datetime import datetime
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.core.wire import (
    BOOL,
    NULL,
    STR,
    Field,
    Kind,
    TaggedUnion,
    Wire,
    cell_from_json,
    cell_to_json,
    list_of,
)
from repro.errors import ColumnKindError, SchemaError
from repro.table.column import Column, StringColumn, column_from_values, datetime_to_millis
from repro.table.membership import Selection
from repro.table.schema import ContentsKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.table.table import Table


#: Every predicate, by its ``type``.
PREDICATES = TaggedUnion("predicate")
PREDICATE = PREDICATES.kind


def _cells_to_json(value: object) -> object:
    if isinstance(value, (list, tuple, set, frozenset)):
        return [cell_to_json(v) for v in value]
    return cell_to_json(value)


def _cells_from_json(data: object) -> object:
    if isinstance(data, list):
        return [cell_from_json(v) for v in data]
    return cell_from_json(data)


#: A comparison constant: a cell, or a list of cells (``between``, ``in``).
CELLS = Kind("cell or list of cells", _cells_to_json, _cells_from_json)


class Predicate(PREDICATES.Member, ABC):
    """A boolean condition over rows, evaluated vectorized per shard."""

    @abstractmethod
    def evaluate(self, table: "Table", rows: Selection) -> np.ndarray:
        """Boolean array aligned with the rows ``rows`` selects."""

    @abstractmethod
    def spec(self) -> str:
        """Deterministic description used for redo-log replay and caching."""

    def __and__(self, other: "Predicate") -> "Predicate":
        return AndPredicate([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return OrPredicate([self, other])

    def __invert__(self) -> "Predicate":
        return NotPredicate(self)

    def __repr__(self) -> str:
        return self.spec()


_NUMERIC_OPS: dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class ColumnPredicate(Predicate):
    """Compare one column against a constant (or range / value set).

    Supported operators: ``== != < <= > >= between in is_missing``.
    Missing cells never satisfy a comparison (SQL-like semantics), except
    for the ``is_missing`` operator.
    """

    wire = Wire(
        "column",
        Field("column", "column", STR),
        Field("op", "op", STR),
        Field("value", "value", CELLS, NULL),
    )

    def __init__(self, column: str, op: str, value: object = None):
        if op not in (*_NUMERIC_OPS, "between", "in", "is_missing"):
            raise SchemaError(f"unknown predicate operator {op!r}")
        self.column = column
        self.op = op
        self.value = value

    def spec(self) -> str:
        return f"ColumnPredicate({self.column!r},{self.op!r},{self.value!r})"

    def evaluate(self, table: "Table", rows: Selection) -> np.ndarray:
        column = table.column(self.column)
        if self.op == "is_missing":
            return column.missing_mask(rows)
        if column.kind.is_string:
            return self._evaluate_string(column, rows)
        return self._evaluate_numeric(column, rows)

    def _evaluate_numeric(self, column: Column, rows: Selection) -> np.ndarray:
        values = column.numeric_values(rows)
        with np.errstate(invalid="ignore"):
            if self.op == "between":
                lo, hi = self.value  # type: ignore[misc]
                result = values >= _number(lo)
                result &= values <= _number(hi)
            elif self.op == "in":
                wanted = [_number(v) for v in self.value]  # type: ignore[union-attr]
                result = np.isin(values, np.asarray(wanted, dtype=np.float64))
            else:
                result = _NUMERIC_OPS[self.op](values, _number(self.value))
        if self.op in ("!=", "in"):
            # Every other comparison is already False at NaN (missing).
            result &= ~np.isnan(values)
        return result

    def _evaluate_string(self, column: Column, rows: Selection) -> np.ndarray:
        if not isinstance(column, StringColumn):
            raise ColumnKindError(f"column {self.column!r} is not a string column")
        # Evaluate once per dictionary entry, then map through codes.
        dictionary = column.dictionary.values
        if self.op == "between":
            lo, hi = self.value  # type: ignore[misc]
            ok = np.array([lo <= v <= hi for v in dictionary], dtype=bool)
        elif self.op == "in":
            wanted = set(self.value)  # type: ignore[arg-type]
            ok = np.array([v in wanted for v in dictionary], dtype=bool)
        else:
            op, target = _NUMERIC_OPS[self.op], str(self.value)
            ok = np.array([bool(op(v, target)) for v in dictionary], dtype=bool)
        return _through_codes(column, ok, rows)


def _number(value: object) -> float:
    """A comparison constant on the numeric axis: a date is its epoch
    milliseconds, with any sub-millisecond part as a fraction so that
    comparing against whole-millisecond cells stays exact."""
    if isinstance(value, datetime):
        return datetime_to_millis(value) + value.microsecond % 1000 / 1000
    return float(value)  # type: ignore[arg-type]


def _through_codes(column: StringColumn, ok: np.ndarray, rows: Selection) -> np.ndarray:
    """``ok[code]`` for each selected row; missing cells are False."""
    # MISSING_CODE (-1) wraps to the final slot, which is False.
    return np.append(ok, False)[column.codes_at(rows)]


class StringMatchPredicate(Predicate):
    """Free-form text search (paper §3.3): exact, substring, or regexp.

    The pattern is evaluated against each *distinct* dictionary string once.
    """

    MODES = ("exact", "substring", "regex")
    wire = Wire(
        "match",
        Field("column", "column", STR),
        Field("pattern", "pattern", STR),
        Field("mode", "mode", STR, "substring"),
        Field("case_sensitive", "caseSensitive", BOOL, True),
    )

    def __init__(
        self,
        column: str,
        pattern: str,
        mode: str = "substring",
        case_sensitive: bool = True,
    ):
        if mode not in self.MODES:
            raise SchemaError(f"unknown match mode {mode!r}")
        self.column = column
        self.pattern = pattern
        self.mode = mode
        self.case_sensitive = case_sensitive

    def spec(self) -> str:
        return (
            f"StringMatchPredicate({self.column!r},{self.pattern!r},"
            f"{self.mode!r},cs={self.case_sensitive})"
        )

    def matcher(self) -> Callable[[str], bool]:
        """A predicate over a single string implementing this search."""
        pattern = self.pattern
        if self.mode == "regex":
            flags = 0 if self.case_sensitive else re.IGNORECASE
            compiled = re.compile(pattern, flags)
            return lambda s: compiled.search(s) is not None
        if not self.case_sensitive:
            pattern = pattern.lower()
            if self.mode == "exact":
                return lambda s: s.lower() == pattern
            return lambda s: pattern in s.lower()
        if self.mode == "exact":
            return lambda s: s == pattern
        return lambda s: pattern in s

    def evaluate(self, table: "Table", rows: Selection) -> np.ndarray:
        column = table.column(self.column)
        if not isinstance(column, StringColumn):
            raise ColumnKindError(
                f"text search requires a string column, got {self.column!r}"
            )
        match = self.matcher()
        ok = np.array([match(v) for v in column.dictionary.values], dtype=bool)
        return _through_codes(column, ok, rows)


class AndPredicate(Predicate):
    wire = Wire("and", Field("parts", "parts", list_of(PREDICATE)))

    def __init__(self, parts: Iterable[Predicate]):
        self.parts = list(parts)
        if not self.parts:
            raise SchemaError("AndPredicate needs at least one part")

    def spec(self) -> str:
        return "And(" + ",".join(p.spec() for p in self.parts) + ")"

    def evaluate(self, table: "Table", rows: Selection) -> np.ndarray:
        result = self.parts[0].evaluate(table, rows)
        for part in self.parts[1:]:
            # Short-circuit: only evaluate remaining parts where still true.
            if not result.any():
                break
            result = result & part.evaluate(table, rows)
        return result


class OrPredicate(Predicate):
    wire = Wire("or", Field("parts", "parts", list_of(PREDICATE)))

    def __init__(self, parts: Iterable[Predicate]):
        self.parts = list(parts)
        if not self.parts:
            raise SchemaError("OrPredicate needs at least one part")

    def spec(self) -> str:
        return "Or(" + ",".join(p.spec() for p in self.parts) + ")"

    def evaluate(self, table: "Table", rows: Selection) -> np.ndarray:
        result = self.parts[0].evaluate(table, rows)
        for part in self.parts[1:]:
            result = result | part.evaluate(table, rows)
        return result


class NotPredicate(Predicate):
    wire = Wire("not", Field("inner", "inner", PREDICATE))

    def __init__(self, inner: Predicate):
        self.inner = inner

    def spec(self) -> str:
        return f"Not({self.inner.spec()})"

    def evaluate(self, table: "Table", rows: Selection) -> np.ndarray:
        return ~self.inner.evaluate(table, rows)


#: The wire kind of a text-search criterion in a sketch spec.
STRING_MATCH = replace(PREDICATE, name="match predicate")


def derive_column(
    table: "Table",
    name: str,
    kind: ContentsKind,
    fn: Callable,
    vectorized: bool = False,
) -> Column:
    """Compute a new column from existing ones via a user-defined map (§5.6).

    ``fn`` receives a dict per row (``{column_name: value}``) and returns the
    new cell value, or — when ``vectorized`` — a dict of numpy arrays /
    string lists covering the member rows at once and returns an array.

    The column is materialized only for the table's member rows; other
    universe positions are missing, mirroring Hillview computing derived
    columns at the leaves for the current membership.
    """
    rows = table.members.indices()
    if vectorized:
        arrays: dict[str, object] = {}
        for desc in table.schema:
            column = table.column(desc.name)
            if desc.kind.is_string:
                arrays[desc.name] = column.string_values(rows)
            else:
                arrays[desc.name] = column.numeric_values(rows)
        values = list(fn(arrays))
    else:
        values = [fn(table.row(int(r))) for r in rows]
    if len(values) != len(rows):
        raise SchemaError(
            f"map function returned {len(values)} values for {len(rows)} rows"
        )
    # Scatter member-row values into a universe-sized column.
    universe = [None] * table.universe_size
    for row, value in zip(rows, values):
        universe[int(row)] = value
    return column_from_values(name, universe, kind)
