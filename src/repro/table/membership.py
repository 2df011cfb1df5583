"""Membership sets: which rows of a shared universe belong to a table.

Filtering in Hillview never copies column data.  A derived (filtered) table
shares its parent's columns and stores a *membership set* (paper §5.6):

* dense tables that contain most rows store a bitmap;
* sparse tables store the set of row indexes.

Scans read the member rows through the set's *selection*, the numpy
indexer its shape makes cheapest (§6): a ``slice`` for a contiguous run
(no copy), the bitmap when nearly every row is a member (a compress), the
index array otherwise (a gather): cost follows members, not the universe.
A filter scatters its verdicts back into a mask (:meth:`subset`).

Sampling must be efficient (not read every row) yet uniform.  Following the
paper:

* sparse sets sample by returning elements in sorted order of their *hash
  values* (bottom-k / hash-threshold sampling);
* dense sets "walk randomly the bitmap in increasing index order"
  (geometric skip sampling).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.rand import hash_indices

#: Below this member density a filtered set is stored sparsely.
SPARSE_DENSITY_THRESHOLD = 1.0 / 8.0

#: From this density up a scattered set is read by compressing its bitmap.
#: On a fresh set that beats building the index array and gathering by ~1
#: ns/member at 97-99 %; at 95 % it is a wash, at 50 % it loses by ~12.
COMPRESS_DENSITY = 0.97

#: A slice, a universe-sized boolean mask or a sorted int64 index array.
Selection = slice | np.ndarray

_HASH_SPAN = float(1 << 64)


def _skip_walk_positions(size: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Positions of a Bernoulli(rate) sample of ``range(size)``.

    Implemented as the paper's increasing-index random walk: successive gaps
    are geometric, so only the selected positions are touched.
    """
    if rate >= 1.0:
        return np.arange(size, dtype=np.int64)
    expected = int(size * rate)
    chunks: list[np.ndarray] = []
    position = -1
    # Draw geometric gaps in batches until the walk leaves the range.
    batch = max(64, int(expected * 1.2) + 16)
    while position < size:
        gaps = rng.geometric(rate, size=batch).astype(np.int64)
        steps = np.cumsum(gaps) + position
        inside = steps[steps < size]
        chunks.append(inside)
        if len(inside) < len(steps):
            break
        position = int(steps[-1])
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


class MembershipSet(ABC):
    """An immutable subset of ``range(universe_size)``."""

    def __init__(self, universe_size: int):
        if universe_size < 0:
            raise ValueError("universe size must be >= 0")
        self.universe_size = int(universe_size)

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of member rows."""

    @property
    def density(self) -> float:
        if self.universe_size == 0:
            return 0.0
        return self.size / self.universe_size

    @abstractmethod
    def indices(self) -> np.ndarray:
        """Sorted int64 array of member row indexes (do not mutate)."""

    @abstractmethod
    def mask(self) -> np.ndarray:
        """Boolean membership mask over the universe."""

    @abstractmethod
    def selection(self) -> Selection:
        """The cheapest numpy indexer reading exactly the member rows."""

    @abstractmethod
    def contains(self, row: int) -> bool:
        """Whether ``row`` belongs to this set."""

    @abstractmethod
    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """``k`` distinct member rows, uniformly at random, sorted.

        Returns all members when ``k >= size``.
        """

    @abstractmethod
    def sample_rate(self, rate: float, rng: np.random.Generator) -> np.ndarray:
        """A Bernoulli(rate) sample of the member rows, sorted."""

    def intersect_mask(self, mask: np.ndarray) -> "MembershipSet":
        """Members for which ``mask`` (a universe-sized bool array) holds."""
        return membership_from_mask(self.mask() & mask)

    def subset(self, keep: np.ndarray) -> "MembershipSet":
        """The members whose entry in ``keep`` (one per member) holds."""
        mask = np.zeros(self.universe_size, dtype=bool)
        mask[self.selection()] = keep
        return membership_from_mask(mask)

    def memory_bytes(self) -> int:
        """Heap bytes of the arrays this set holds (the data cache, §5.4)."""
        return 0

    def rows_at(self, positions: np.ndarray) -> np.ndarray:
        """Row numbers of the members at ``positions`` (in member order)."""
        selection = self.selection()
        if isinstance(selection, slice):
            return positions + selection.start
        return self.indices()[positions]

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.size}/{self.universe_size} rows>"
        )


class FullMembership(MembershipSet):
    """Every row of the universe is a member (an unfiltered table)."""

    @property
    def size(self) -> int:
        return self.universe_size

    def indices(self) -> np.ndarray:
        return np.arange(self.universe_size, dtype=np.int64)

    def mask(self) -> np.ndarray:
        return np.ones(self.universe_size, dtype=bool)

    def selection(self) -> Selection:
        return slice(0, self.universe_size)

    def contains(self, row: int) -> bool:
        return 0 <= row < self.universe_size

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        if k >= self.universe_size:
            return self.indices()
        return np.sort(rng.choice(self.universe_size, size=k, replace=False))

    def sample_rate(self, rate: float, rng: np.random.Generator) -> np.ndarray:
        return _skip_walk_positions(self.universe_size, rate, rng)


class DenseMembership(MembershipSet):
    """Bitmap-backed membership for sets containing most rows (§5.6)."""

    def __init__(self, bitmap: np.ndarray):
        bitmap = np.asarray(bitmap, dtype=bool)
        super().__init__(len(bitmap))
        self._bitmap = bitmap
        self._indices: np.ndarray | None = None
        self._size = int(np.count_nonzero(bitmap))
        # A contiguous run (a Table.split chunk) is read, and numbered, as
        # a slice; argmax stops at the first member.
        first = int(np.argmax(bitmap))
        end = first + self._size
        self._run = slice(first, end) if bitmap[first:end].all() else None

    @property
    def size(self) -> int:
        return self._size

    def indices(self) -> np.ndarray:
        if self._indices is None:
            if self._run is not None:
                self._indices = np.arange(self._run.start, self._run.stop, dtype=np.int64)
            else:
                self._indices = np.flatnonzero(self._bitmap).astype(np.int64)
        return self._indices

    def mask(self) -> np.ndarray:
        return self._bitmap

    def memory_bytes(self) -> int:
        cached = 0 if self._indices is None else self._indices.nbytes
        return self._bitmap.nbytes + cached

    def selection(self) -> Selection:
        if self._run is not None:
            return self._run
        return self._bitmap if self.density >= COMPRESS_DENSITY else self.indices()

    def contains(self, row: int) -> bool:
        return 0 <= row < self.universe_size and bool(self._bitmap[row])

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        members = self.indices()
        if k >= self._size:
            return members
        return np.sort(members[rng.choice(self._size, size=k, replace=False)])

    def sample_rate(self, rate: float, rng: np.random.Generator) -> np.ndarray:
        # Random walk over member positions in increasing index order.
        return self.rows_at(_skip_walk_positions(self._size, rate, rng))


class SparseMembership(MembershipSet):
    """Index-set membership for sparse filtered tables (§5.6).

    Sampling uses per-row hash values: a Bernoulli(rate) sample keeps the
    rows whose 64-bit hash falls below ``rate * 2**64``, and a fixed-size
    sample keeps the ``k`` smallest hashes (bottom-k), both uniform.
    """

    def __init__(self, indices: np.ndarray, universe_size: int):
        indices = np.asarray(indices, dtype=np.int64)
        super().__init__(universe_size)
        if len(indices) and (indices.min() < 0 or indices.max() >= universe_size):
            raise ValueError("membership index out of universe range")
        self._indices = np.unique(indices)

    @property
    def size(self) -> int:
        return len(self._indices)

    def indices(self) -> np.ndarray:
        return self._indices

    def memory_bytes(self) -> int:
        return self._indices.nbytes

    def mask(self) -> np.ndarray:
        out = np.zeros(self.universe_size, dtype=bool)
        out[self._indices] = True
        return out

    def selection(self) -> Selection:
        rows = self._indices
        if len(rows) == 0:
            return slice(0, 0)
        first, last = int(rows[0]), int(rows[-1])
        return slice(first, last + 1) if last - first + 1 == len(rows) else rows

    def contains(self, row: int) -> bool:
        pos = np.searchsorted(self._indices, row)
        return pos < len(self._indices) and self._indices[pos] == row

    def _hashes(self, rng: np.random.Generator) -> np.ndarray:
        seed = int(rng.integers(1 << 62))
        return hash_indices(self._indices, seed)

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        if k >= self.size:
            return self._indices
        hashes = self._hashes(rng)
        smallest = np.argpartition(hashes, k)[:k]
        return np.sort(self._indices[smallest])

    def sample_rate(self, rate: float, rng: np.random.Generator) -> np.ndarray:
        if rate >= 1.0:
            return self._indices
        hashes = self._hashes(rng)
        threshold = np.uint64(min(rate * _HASH_SPAN, _HASH_SPAN - 1))
        return self._indices[hashes < threshold]


def membership_from_mask(mask: np.ndarray) -> MembershipSet:
    """The appropriate representation for ``mask`` (paper §5.6).

    Full masks become :class:`FullMembership`; low-density masks become
    :class:`SparseMembership`; everything else keeps the bitmap.
    """
    mask = np.asarray(mask, dtype=bool)
    count = int(np.count_nonzero(mask))
    if count == len(mask):
        return FullMembership(len(mask))
    if len(mask) == 0 or count / len(mask) < SPARSE_DENSITY_THRESHOLD:
        return SparseMembership(np.flatnonzero(mask), len(mask))
    return DenseMembership(mask)


def membership_from_indices(indices: np.ndarray, universe_size: int) -> MembershipSet:
    """The appropriate representation for an explicit index set."""
    indices = np.unique(np.asarray(indices, dtype=np.int64))
    if len(indices) == universe_size:
        return FullMembership(universe_size)
    if universe_size == 0 or len(indices) / universe_size < SPARSE_DENSITY_THRESHOLD:
        return SparseMembership(indices, universe_size)
    mask = np.zeros(universe_size, dtype=bool)
    mask[indices] = True
    return DenseMembership(mask)
