"""HyperLogLog distinct-count sketch (§B.3, Flajolet et al. 2007).

Hillview computes the number of distinct elements approximately with a
HyperLogLog sketch.  The summary is ``m = 2^p`` one-byte registers; merge
takes the element-wise maximum.  The standard estimator with the small- and
large-range corrections gives ~1.04/sqrt(m) relative error.

Value hashing is vectorized: numeric values hash their 64-bit bit patterns;
string columns hash each *dictionary* entry once and map codes.
"""

from __future__ import annotations

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


def _high_bit(x: np.ndarray) -> np.ndarray:
    """Position of the highest set bit of each (nonzero) uint64."""
    x = x.copy()
    result = np.zeros(x.shape, dtype=np.uint64)
    for shift in (32, 16, 8, 4, 2, 1):
        step = np.uint64(shift)
        mask = x >= (np.uint64(1) << step)
        result[mask] += step
        x[mask] >>= step
    return result


def _mix64(x: np.ndarray, seed: int) -> np.ndarray:
    """splitmix64 finalizer over uint64 values."""
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(stable_hash64("hll-mix", seed) | 1)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


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
        bits = values[present_mask].view(np.uint64)
        return _mix64(bits, self.seed), missing

    def summarize(self, table: Table) -> HllSummary:
        hashes, missing = self._value_hashes(table)
        summary = self.zero()
        if len(hashes):
            p = np.uint64(self.precision)
            indexes = (hashes >> (np.uint64(64) - p)).astype(np.int64)
            w = hashes << p  # remaining 64-p bits, left aligned
            rho = np.where(
                w == 0,
                np.uint64(64 - self.precision + 1),
                np.uint64(63) - _high_bit(w) + np.uint64(1),
            ).astype(np.uint8)
            np.maximum.at(summary.registers, indexes, rho)
        summary.missing = missing
        return summary

    def merge(self, left: HllSummary, right: HllSummary) -> HllSummary:
        return HllSummary(
            registers=np.maximum(left.registers, right.registers),
            missing=left.missing + right.missing,
        )
