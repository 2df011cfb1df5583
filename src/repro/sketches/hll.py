"""HyperLogLog distinct-count sketch (§B.3, Flajolet et al. 2007).

Hillview computes the number of distinct elements approximately with a
HyperLogLog sketch.  The summary is ``m = 2^p`` one-byte registers; merge
takes the element-wise maximum.  The standard estimator with the small- and
large-range corrections gives ~1.04/sqrt(m) relative error.

Value hashing is vectorized: numeric values hash their 64-bit bit patterns
(``-0.0`` folded into ``0.0``, the one pair of equal values with different
bits); string columns hash each *dictionary* entry once and map codes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.core.rand import stable_hash64
from repro.core.sketch import Sketch, Summary
from repro.core.wire import INT, STR, UINT8_ARRAY, UVARINT, Derived, Field, Wire
from repro.table.column import StringColumn
from repro.table.dictionary import MISSING_CODE
from repro.table.table import Table


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _rank(hashes: np.ndarray, precision: int) -> np.ndarray:
    """One-based position of the first set bit after the ``precision``
    index bits of each uint64 hash (``65 - precision`` when none is set).

    The low ``64 - p`` bits of a hash with ``e`` as their float64 exponent
    rank ``65 - p - e``; zero has exponent 0.  A float64 holds 53 bits
    exactly, so below p = 11 the word is split into 32-bit halves.
    """
    low = hashes & np.uint64((1 << (64 - precision)) - 1)
    if precision >= 11:
        exponent = np.frexp(low.astype(np.float64))[1]
    else:
        high = np.frexp((low >> np.uint64(32)).astype(np.float64))[1]
        exponent = np.where(
            high > 0,
            high + 32,
            np.frexp((low & np.uint64(0xFFFFFFFF)).astype(np.float64))[1],
        )
    return (65 - precision - exponent).astype(np.uint8)


def _mix_key(seed: int) -> int:
    return stable_hash64("hll-mix", seed) | 1


def _mix64(x: np.ndarray, seed: int) -> np.ndarray:
    """splitmix64 finalizer over uint64 values, in place."""
    x += np.uint64(_mix_key(seed))
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _splitmix64_reference(x: int, key: int) -> int:
    """:func:`_mix64` on one Python int."""
    mask = (1 << 64) - 1
    x = (x + key) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


@dataclass
class HllSummary(Summary):
    """HyperLogLog registers plus the exact missing-row count."""

    registers: np.ndarray  # uint8[m]
    missing: int = 0

    @property
    def precision(self) -> int:
        return int(np.log2(len(self.registers)))

    def estimate(self) -> float:
        """Estimated number of distinct values."""
        m = len(self.registers)
        raw = _alpha(m) * m * m / np.sum(np.exp2(-self.registers.astype(np.float64)))
        zeros = int((self.registers == 0).sum())
        if raw <= 2.5 * m and zeros > 0:
            return m * np.log(m / zeros)  # small-range correction
        two64 = float(2**64)
        if raw > two64 / 30.0:  # pragma: no cover - astronomically large sets
            return -two64 * np.log1p(-raw / two64)
        return float(raw)

    # The UI reads "estimate"; "registers" makes the payload lossless so a
    # root can merge summaries received from worker processes.
    wire = Wire(
        "distinct",
        Derived("estimate", estimate, "estimated number of distinct values"),
        Field("registers", "registers", UINT8_ARRAY),
        Field("missing", "missing", UVARINT),
    )


class HyperLogLogSketch(Sketch[HllSummary]):
    """Approximate distinct count of one column.

    ``precision`` p gives ``2^p`` registers and ~``1.04 / 2^(p/2)`` relative
    standard error (p=12 -> ~1.6%).  The hash seed participates in the cache
    key: the sketch is deterministic *given its seed*, exactly what the redo
    log requires (§5.8).
    """

    wire = Wire(
        "distinct",
        Field("column", "column", STR),
        Field("precision", "precision", INT, 12),
        Field("seed", "seed", INT, 0),
    )

    def __init__(self, column: str, precision: int = 12, seed: int = 0):
        if not 4 <= precision <= 16:
            raise ValueError("precision must be in [4, 16]")
        self.column = column
        self.precision = precision
        self.seed = seed

    def with_seed(self, seed: int) -> "HyperLogLogSketch":
        return HyperLogLogSketch(self.column, self.precision, seed)

    @property
    def name(self) -> str:
        return f"HyperLogLog({self.column})"

    def cache_key(self) -> str:
        return f"Hll({self.column!r},p={self.precision},seed={self.seed})"

    def zero(self) -> HllSummary:
        return HllSummary(registers=np.zeros(1 << self.precision, dtype=np.uint8))

    def _value_hashes(self, table: Table) -> tuple[np.ndarray, int]:
        """64-bit hashes of present cell values, plus the missing count."""
        rows = table.members.selection()
        column = table.column(self.column)
        if isinstance(column, StringColumn):
            codes = column.codes_at(rows)
            present = codes[codes != MISSING_CODE]
            missing = len(codes) - len(present)
            # Hash every distinct string once; map through codes.
            table_hash = np.array(
                [
                    stable_hash64("hll-str", self.seed, value)
                    for value in column.dictionary.values
                ],
                dtype=np.uint64,
            )
            return table_hash[present], missing
        values = column.numeric_values(rows)
        present_mask = ~np.isnan(values)
        missing = int((~present_mask).sum())
        present = values[present_mask]  # a fresh array, mixed in place
        present += 0.0  # -0.0 + 0.0 is 0.0: equal values hash alike
        return _mix64(present.view(np.uint64), self.seed), missing

    def summarize(self, table: Table) -> HllSummary:
        hashes, missing = self._value_hashes(table)
        summary = self.zero()
        if len(hashes):
            indexes = (hashes >> np.uint64(64 - self.precision)).astype(np.intp)
            np.maximum.at(
                summary.registers, indexes, _rank(hashes, self.precision)
            )
        summary.missing = missing
        return summary

    def summarize_reference(self, table: Table) -> HllSummary:
        """Per-row oracle for :meth:`summarize` (differential tests):
        splitmix64 on Python ints, rank from ``int.bit_length``."""
        column = table.column(self.column)
        key = _mix_key(self.seed)
        shift = 64 - self.precision
        summary = self.zero()
        for row in table.members.indices():
            if isinstance(column, StringColumn):
                value = column.value(int(row))
                if value is None:
                    summary.missing += 1
                    continue
                word = stable_hash64("hll-str", self.seed, value)
            else:
                scalar = float(
                    column.numeric_values(np.array([row], dtype=np.int64))[0]
                )
                if scalar != scalar:  # NaN: missing
                    summary.missing += 1
                    continue
                bits = struct.unpack("<Q", struct.pack("<d", scalar + 0.0))[0]
                word = _splitmix64_reference(bits, key)
            index = word >> shift
            rank = shift + 1 - (word & ((1 << shift) - 1)).bit_length()
            summary.registers[index] = max(int(summary.registers[index]), rank)
        return summary

    def merge(self, left: HllSummary, right: HllSummary) -> HllSummary:
        return HllSummary(
            registers=np.maximum(left.registers, right.registers),
            missing=left.missing + right.missing,
        )
