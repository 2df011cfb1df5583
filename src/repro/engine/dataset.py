"""The IDataSet abstraction and table-to-table map operations.

An ``IDataSet`` is a (possibly distributed) immutable dataset supporting two
operations, mirroring the Partitioned Data Set architecture Hillview
inherits from Sketch [14] (§5.7):

* ``map`` — apply a table-to-table transformation at every leaf, producing
  a *new* dataset (filtering, derived columns, projections);
* ``sketch`` — run a vizketch and stream progressively merged partials.

Maps are declarative value objects so the redo log can replay them after a
failure (§5.8); user-defined maps carry a Python callable, the analogue of
the JavaScript UDFs Hillview records in its log.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterator, Sequence, TypeVar

from repro.core.sketch import Sketch
from repro.core.wire import STR, STR_LIST, Field, TaggedUnion, Wire
from repro.engine.progress import CancellationToken, PartialResult, SketchRun, drain
from repro.errors import SchemaError
from repro.table.compute import PREDICATE, Predicate
from repro.table.schema import ContentsKind, Schema
from repro.table.table import Table

R = TypeVar("R")


#: Every declarative table map, by its ``type``: the maps a worker can
#: replay from a description (a :class:`DeriveMap` carries a callable).
TABLE_MAPS = TaggedUnion(
    "table map",
    refusal=(
        "carries a Python callable and cannot cross a process boundary; "
        "use an expression map instead"
    ),
)


class TableMap(TABLE_MAPS.Member, ABC):
    """A deterministic table-to-table transformation applied at leaves."""

    @abstractmethod
    def apply(self, table: Table) -> Table:
        """Transform one shard (pure; single-threaded)."""

    @abstractmethod
    def spec(self) -> str:
        """Stable description for the redo log and cache keys."""

    def __repr__(self) -> str:
        return self.spec()


class FilterMap(TableMap):
    """Keep the rows satisfying a predicate (§5.6 selection)."""

    wire = Wire("filter", Field("predicate", "predicate", PREDICATE))

    def __init__(self, predicate: Predicate):
        self.predicate = predicate

    def apply(self, table: Table) -> Table:
        return table.filter(self.predicate)

    def spec(self) -> str:
        return f"Filter({self.predicate.spec()})"


class DeriveMap(TableMap):
    """Append a user-defined map column (§5.6)."""

    def __init__(
        self,
        name: str,
        kind: ContentsKind,
        fn: Callable,
        vectorized: bool = False,
    ):
        self.name = name
        self.kind = kind
        self.fn = fn
        self.vectorized = vectorized

    def apply(self, table: Table) -> Table:
        return table.derive(self.name, self.kind, self.fn, self.vectorized)

    def spec(self) -> str:
        fn_name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Derive({self.name!r},{self.kind.value},{fn_name})"


class ExpressionMap(TableMap):
    """Append a column computed from an expression string (§5.6).

    The Python analogue of Hillview's user-defined JavaScript maps: the
    *source text* is the serializable artifact — it travels over RPC, is
    recorded in the redo log, and re-validates/re-compiles identically on
    replay, so a recovered worker derives the same column.
    """

    wire = Wire(
        "expression",
        Field("name", "name", STR),
        Field("expression", "expression", STR),
    )

    def __init__(self, name: str, expression: str):
        from repro.table.udf import ColumnExpression

        self.name = name
        self.compiled = ColumnExpression(expression)

    @property
    def expression(self) -> str:
        return self.compiled.expression

    def apply(self, table: Table) -> Table:
        return table.derive(
            self.name,
            ContentsKind.DOUBLE,
            self.compiled.evaluate,
            vectorized=True,
        )

    def spec(self) -> str:
        return f"Expression({self.name!r},{self.expression!r})"


class ProjectMap(TableMap):
    """Keep only the named columns (§3.3: select columns to show)."""

    wire = Wire("project", Field("columns", "columns", STR_LIST))

    def __init__(self, columns: Sequence[str]):
        self.columns = list(columns)
        if not self.columns:
            raise SchemaError("a projection needs at least one column")

    def apply(self, table: Table) -> Table:
        return table.select_columns(self.columns)

    def spec(self) -> str:
        return f"Project({self.columns!r})"


class IDataSet(ABC):
    """A dataset the engine can map over and sketch."""

    @abstractmethod
    def map(self, table_map: TableMap) -> "IDataSet":
        """Apply ``table_map`` at every leaf; returns a new dataset."""

    @abstractmethod
    def sketch_stream(
        self,
        sketch: Sketch[R],
        token: CancellationToken | None = None,
    ) -> Iterator[PartialResult[R]]:
        """Execute ``sketch`` and yield cumulative partial results."""

    @property
    @abstractmethod
    def total_rows(self) -> int:
        """Total member rows across all leaves (preparation-phase input)."""

    @property
    @abstractmethod
    def schema(self) -> "Schema":
        """The shared schema of every leaf table."""

    def release(self) -> None:
        """Let a server drop what it holds for this dataset (§5.7 soft state)."""

    def sketch(self, sketch: Sketch[R], token: CancellationToken | None = None) -> R:
        """Execute ``sketch`` to completion and return the final summary."""
        return self.run(sketch, token).value

    def run(
        self, sketch: Sketch[R], token: CancellationToken | None = None
    ) -> SketchRun[R]:
        """Execute ``sketch`` to completion, returning result + statistics."""
        return drain(self.sketch_stream(sketch, token))
