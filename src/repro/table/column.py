"""Column storage: typed arrays of base values with missing-value masks.

Columns use numpy arrays of base types to keep memory pressure low, exactly
as Hillview uses Java base-type arrays (paper §6).  Strings are dictionary
encoded.  Every column exposes:

* ``numeric_values(rows)`` — float64 values used by numeric sketches (dates
  convert to epoch milliseconds, as the paper converts dates to reals §4.3);
* ``string_values(rows)`` — Python strings for text sketches;
* ``sort_surrogate(rows)`` — a float64 array whose ordering matches the
  column's sort order *within one shard* (strings map to dictionary ranks),
  with missing values at negative infinity so they sort first.

``rows`` is a :data:`~repro.table.membership.Selection` and results align
with the rows it selects.  A slice reads storage with no copy, so results
are read-only.
"""

from __future__ import annotations

import mmap
from abc import ABC, abstractmethod
from datetime import datetime, timedelta, timezone
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ColumnKindError, SchemaError
from repro.table.dictionary import MISSING_CODE, StringDictionary
from repro.table.membership import Selection
from repro.table.schema import ColumnDescription, ContentsKind


def heap_nbytes(array: np.ndarray) -> int:
    """``array.nbytes``, or 0 when its storage is a memory-mapped file: a
    mapped hvc column lives in the page cache, not on the heap, and the
    kernel reclaims it once an eviction drops the last view."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview):
        base = base.obj
    return 0 if isinstance(base, mmap.mmap) else array.nbytes


def _selector(rows: Selection | Sequence[int]) -> Selection:
    """``rows`` as a numpy indexer: selections pass, sequences become int64."""
    if isinstance(rows, (slice, np.ndarray)):
        return rows
    return np.asarray(rows, dtype=np.int64)


def _read(stored: np.ndarray, rows: Selection | Sequence[int]) -> np.ndarray:
    """``stored`` at ``rows``; a slice's view of the storage is read-only."""
    rows = _selector(rows)
    out = stored[rows]
    if isinstance(rows, slice):
        out.flags.writeable = False
    return out


class Column(ABC):
    """A named, typed column over a fixed universe of rows."""

    def __init__(self, description: ColumnDescription, size: int):
        self.description = description
        self._size = int(size)

    @property
    def name(self) -> str:
        return self.description.name

    @property
    def kind(self) -> ContentsKind:
        return self.description.kind

    @property
    def size(self) -> int:
        """Number of rows in the column's universe (before any filtering)."""
        return self._size

    @abstractmethod
    def missing_mask(self, rows: Selection = slice(None)) -> np.ndarray:
        """Boolean array marking which of ``rows`` are missing."""

    def is_missing(self, row: int) -> bool:
        return bool(self.missing_mask()[row])

    @abstractmethod
    def value(self, row: int) -> object | None:
        """The Python value at ``row`` (None when missing)."""

    def numeric_values(self, rows: Selection | Sequence[int]) -> np.ndarray:
        """float64 values at ``rows`` with NaN for missing entries."""
        raise ColumnKindError(
            f"column {self.name!r} of kind {self.kind.value} is not numeric"
        )

    def string_values(self, rows: Selection | Sequence[int]) -> list[str | None]:
        """String values at ``rows`` with None for missing entries."""
        raise ColumnKindError(
            f"column {self.name!r} of kind {self.kind.value} is not string-valued"
        )

    def values_at(self, rows: Selection | Sequence[int]) -> list:
        """Python values at ``rows`` (None for missing), as one batch.

        Equivalent to ``[self.value(int(r)) for r in rows]``; subclasses
        override with a vectorized pass.
        """
        return [self.value(int(row)) for row in rows]

    @abstractmethod
    def sort_surrogate(self, rows: Selection | Sequence[int]) -> np.ndarray:
        """float64 array ordered like the column's values; missing -> -inf."""

    @abstractmethod
    def surrogate_of(self, value: object | None) -> float:
        """Where ``value`` falls among :meth:`sort_surrogate`'s numbers.

        ``value`` need not occur in the column.  Rows whose surrogate is
        strictly below the result hold values strictly before ``value``,
        rows strictly above hold values strictly after; rows *at* it are
        undecided (a float64 cannot tell every value apart).  None -> -inf.
        """

    @abstractmethod
    def take(self, rows: Selection | Sequence[int]) -> "Column":
        """A new column containing only ``rows`` (materializes a copy)."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Approximate heap footprint, for the data cache (§5.4); arrays
        viewing a mapped file count 0 (see :func:`heap_nbytes`)."""

    def rename(self, name: str) -> "Column":
        """The same storage under a different name."""
        import copy

        clone = copy.copy(self)
        clone.description = ColumnDescription(name, self.kind)
        return clone

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} size={self._size}>"


class _NumericColumn(Column):
    """Shared implementation for int/double/date columns."""

    _data: np.ndarray
    _missing: np.ndarray | None

    def __init__(
        self,
        description: ColumnDescription,
        data: np.ndarray,
        missing: np.ndarray | None,
    ):
        super().__init__(description, len(data))
        self._data = data
        if missing is not None:
            missing = np.asarray(missing, dtype=bool)
            if len(missing) != len(data):
                raise SchemaError("missing mask length differs from data length")
            if not missing.any():
                missing = None
        self._missing = missing

    def missing_mask(self, rows: Selection = slice(None)) -> np.ndarray:
        if self._missing is None:
            return np.zeros(self._size, dtype=bool)[rows]
        return _read(self._missing, rows)

    @property
    def data(self) -> np.ndarray:
        """The raw storage array (do not mutate)."""
        return self._data

    def numeric_values(self, rows: Selection | Sequence[int]) -> np.ndarray:
        rows = _selector(rows)
        out = self._data[rows].astype(np.float64)
        if self._missing is not None:
            out[self._missing[rows]] = np.nan
        return out

    def _pythonize(self, data: np.ndarray) -> list:
        return data.tolist()

    def values_at(self, rows: Selection | Sequence[int]) -> list:
        rows = _selector(rows)
        out = self._pythonize(self._data[rows])
        if self._missing is not None:
            for i in np.flatnonzero(self._missing[rows]):
                out[i] = None
        return out

    def sort_surrogate(self, rows: Selection | Sequence[int]) -> np.ndarray:
        values = self.numeric_values(rows)
        # A fresh array is clamped in place; a view of storage is copied.
        return np.nan_to_num(values, copy=not values.flags.writeable, nan=-np.inf)

    def surrogate_of(self, value: object | None) -> float:
        if value is None:
            return -np.inf
        # Clamped as sort_surrogate clamps: -inf is the missing cells' alone.
        return float(np.nan_to_num(float(value)))

    def take(self, rows: Selection | Sequence[int]) -> "Column":
        rows = _selector(rows)
        missing = None if self._missing is None else self._missing[rows]
        return type(self)(self.description, self._data[rows].copy(), missing)

    def memory_bytes(self) -> int:
        total = heap_nbytes(self._data)
        if self._missing is not None:
            total += heap_nbytes(self._missing)
        return total


class IntColumn(_NumericColumn):
    """64-bit integer column."""

    def __init__(
        self,
        description: ColumnDescription,
        data: np.ndarray,
        missing: np.ndarray | None = None,
    ):
        if description.kind is not ContentsKind.INTEGER:
            raise SchemaError(f"IntColumn needs INTEGER kind, got {description.kind}")
        super().__init__(description, np.asarray(data, dtype=np.int64), missing)

    def value(self, row: int) -> int | None:
        if self._missing is not None and self._missing[row]:
            return None
        return int(self._data[row])


class DoubleColumn(_NumericColumn):
    """float64 column; NaN values are treated as missing."""

    def __init__(
        self,
        description: ColumnDescription,
        data: np.ndarray,
        missing: np.ndarray | None = None,
    ):
        if description.kind is not ContentsKind.DOUBLE:
            raise SchemaError(f"DoubleColumn needs DOUBLE kind, got {description.kind}")
        data = np.asarray(data, dtype=np.float64)
        nan_mask = np.isnan(data)
        if missing is not None and len(missing) == len(data):
            missing = nan_mask | missing
            if (missing != nan_mask).any():
                # Missing rows hold NaN, so numeric_values reads storage as is.
                data = np.where(missing, np.nan, data)
        super().__init__(description, data, nan_mask if missing is None else missing)

    def numeric_values(self, rows: Selection | Sequence[int]) -> np.ndarray:
        return _read(self._data, rows)

    def value(self, row: int) -> float | None:
        if self._missing is not None and self._missing[row]:
            return None
        return float(self._data[row])


EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def datetime_to_millis(value: datetime) -> int:
    """Epoch milliseconds for ``value``, floored (naive datetimes are
    taken as UTC).  Integer arithmetic: ``value.timestamp() * 1000`` goes
    through a float and lands a millisecond low for some instants."""
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return (value - EPOCH) // timedelta(milliseconds=1)


def millis_to_datetime(millis: int) -> datetime:
    return datetime.fromtimestamp(millis / 1000.0, tz=timezone.utc)


class DateColumn(_NumericColumn):
    """Dates stored as int64 epoch milliseconds.

    Dates "can be readily converted to a real number" (paper §4.3), so all
    numeric sketches work on date columns through ``numeric_values``.
    """

    def __init__(
        self,
        description: ColumnDescription,
        data: np.ndarray,
        missing: np.ndarray | None = None,
    ):
        if description.kind is not ContentsKind.DATE:
            raise SchemaError(f"DateColumn needs DATE kind, got {description.kind}")
        super().__init__(description, np.asarray(data, dtype=np.int64), missing)

    def value(self, row: int) -> datetime | None:
        if self._missing is not None and self._missing[row]:
            return None
        return millis_to_datetime(int(self._data[row]))

    def _pythonize(self, data: np.ndarray) -> list:
        return [millis_to_datetime(millis) for millis in data.tolist()]

    def surrogate_of(self, value: datetime | None) -> float:
        if value is None:
            return -np.inf
        return float(datetime_to_millis(value))


class StringColumn(Column):
    """Dictionary-encoded string column (STRING or CATEGORY kind)."""

    def __init__(
        self,
        description: ColumnDescription,
        codes: np.ndarray,
        dictionary: StringDictionary,
    ):
        if not description.kind.is_string:
            raise SchemaError(
                f"StringColumn needs a string kind, got {description.kind}"
            )
        codes = np.asarray(codes, dtype=np.int32)
        super().__init__(description, len(codes))
        self.codes = codes
        self.dictionary = dictionary

    @classmethod
    def from_values(
        cls, description: ColumnDescription, values: Iterable[str | None]
    ) -> "StringColumn":
        dictionary = StringDictionary()
        codes = dictionary.encode_values(values)
        return cls(description, codes, dictionary)

    def missing_mask(self, rows: Selection = slice(None)) -> np.ndarray:
        return self.codes[rows] == MISSING_CODE

    def is_missing(self, row: int) -> bool:
        return self.codes[row] == MISSING_CODE

    def value(self, row: int) -> str | None:
        code = self.codes[row]
        if code == MISSING_CODE:
            return None
        return self.dictionary.value(int(code))

    def string_values(self, rows: Selection | Sequence[int]) -> list[str | None]:
        values = self.dictionary.values
        # One fancy-indexed take instead of a per-row loop.  MISSING_CODE
        # is -1, which wraps to the final lookup slot holding None.
        lookup = np.empty(len(values) + 1, dtype=object)
        lookup[: len(values)] = values
        lookup[len(values)] = None
        return lookup[self.codes_at(rows)].tolist()

    def values_at(self, rows: Selection | Sequence[int]) -> list:
        return self.string_values(rows)

    def codes_at(self, rows: Selection | Sequence[int]) -> np.ndarray:
        """Dictionary codes at ``rows`` (:data:`MISSING_CODE` for missing)."""
        return _read(self.codes, rows)

    def sort_surrogate(self, rows: Selection | Sequence[int]) -> np.ndarray:
        # MISSING_CODE (-1) wraps to the final slot, which holds -inf.
        lookup = np.append(self.dictionary.sorted_ranks().astype(np.float64), -np.inf)
        return lookup[self.codes_at(rows)]

    def surrogate_of(self, value: str | None) -> float:
        return -np.inf if value is None else self.dictionary.rank_of(value)

    def take(self, rows: Selection | Sequence[int]) -> "StringColumn":
        # Re-encode so the new column's dictionary only holds used strings.
        return StringColumn.from_values(self.description, self.string_values(rows))

    def memory_bytes(self) -> int:
        return heap_nbytes(self.codes) + self.dictionary.memory_bytes()


def column_from_values(
    name: str,
    values: Sequence[object],
    kind: ContentsKind | None = None,
) -> Column:
    """Build a column from Python values, inferring the kind when omitted.

    Inference prefers INTEGER, then DOUBLE, then DATE, then STRING, matching
    the storage layer's CSV inference order.
    """
    if kind is None:
        kind = _infer_kind(values)
    desc = ColumnDescription(name, kind)
    if kind is ContentsKind.INTEGER:
        data = np.array([0 if v is None else int(v) for v in values], dtype=np.int64)
        missing = np.array([v is None for v in values], dtype=bool)
        return IntColumn(desc, data, missing)
    if kind is ContentsKind.DOUBLE:
        data = np.array(
            [np.nan if v is None else float(v) for v in values], dtype=np.float64
        )
        return DoubleColumn(desc, data)
    if kind is ContentsKind.DATE:
        data = np.array(
            [0 if v is None else datetime_to_millis(v) for v in values],
            dtype=np.int64,
        )
        missing = np.array([v is None for v in values], dtype=bool)
        return DateColumn(desc, data, missing)
    return StringColumn.from_values(
        desc, [None if v is None else str(v) for v in values]
    )


def _infer_kind(values: Sequence[object]) -> ContentsKind:
    saw_float = saw_int = saw_date = saw_str = False
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            saw_int = True
        elif isinstance(value, (int, np.integer)):
            saw_int = True
        elif isinstance(value, (float, np.floating)):
            saw_float = True
        elif isinstance(value, datetime):
            saw_date = True
        else:
            saw_str = True
    if saw_str:
        return ContentsKind.STRING
    if saw_date:
        if saw_int or saw_float:
            return ContentsKind.STRING
        return ContentsKind.DATE
    if saw_float:
        return ContentsKind.DOUBLE
    if saw_int:
        return ContentsKind.INTEGER
    return ContentsKind.STRING
