"""Dictionary encoding for string columns (paper §6).

String columns store an ``int32`` code per row plus a small dictionary of
distinct strings.  This compresses categorical data dramatically and lets
sketches bin or compare strings through the dictionary instead of touching
per-row string objects.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator

import numpy as np

#: Code used for missing (null) string values.
MISSING_CODE = -1


class StringDictionary:
    """An append-only mapping between strings and dense integer codes."""

    def __init__(self, values: Iterable[str] = ()):
        self._values: list[str] = []
        self._codes: dict[str, int] = {}
        # Lazily computed rank of each code in sorted-string order, and
        # its inverse (the codes in sorted-string order).
        self._ranks: np.ndarray | None = None
        self._sorted_codes: np.ndarray | None = None
        for value in values:
            self.code_for(value)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __contains__(self, value: str) -> bool:
        return value in self._codes

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StringDictionary) and self._values == other._values

    def value(self, code: int) -> str:
        """The string for ``code`` (codes are dense, starting at zero)."""
        return self._values[code]

    def code_for(self, value: str) -> int:
        """The code for ``value``, allocating a new one if needed."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
            self._ranks = None
        return code

    def code_of(self, value: str) -> int:
        """The existing code for ``value``, or :data:`MISSING_CODE`."""
        return self._codes.get(value, MISSING_CODE)

    def encode_values(self, values: Iterable[str | None]) -> np.ndarray:
        """Codes for ``values`` (allocating), None -> :data:`MISSING_CODE`."""
        return np.fromiter(
            (MISSING_CODE if v is None else self.code_for(v) for v in values),
            dtype=np.int32,
        )

    @property
    def values(self) -> list[str]:
        """The dictionary contents in code order (do not mutate)."""
        return self._values

    def sorted_ranks(self) -> np.ndarray:
        """``ranks[code]`` = position of that string in sorted order.

        Sorting and binning string columns uses these ranks as a numeric
        surrogate, valid within one dictionary (i.e., one shard's storage).
        """
        if self._ranks is None or len(self._ranks) != len(self._values):
            order = np.argsort(np.array(self._values, dtype=object), kind="stable")
            ranks = np.empty(len(self._values), dtype=np.int64)
            ranks[order] = np.arange(len(self._values))
            # Published before the ranks, which readers test for.
            self._sorted_codes = order
            self._ranks = ranks
        return self._ranks

    def rank_of(self, value: str) -> float:
        """Where ``value`` falls among :meth:`sorted_ranks`.

        Its rank when the dictionary holds it; otherwise the half-rank
        between its two neighbours in sorted order, so every held string
        is strictly on one side of it.
        """
        ranks = self.sorted_ranks()
        code = self._codes.get(value)
        if code is not None:
            return float(ranks[code])
        position = bisect_left(
            self._sorted_codes, value, key=self._values.__getitem__
        )
        return position - 0.5

    def memory_bytes(self) -> int:
        """Approximate heap footprint of the dictionary strings."""
        return sum(len(v) for v in self._values) + 64 * len(self._values)
