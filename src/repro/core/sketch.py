"""The mergeable-summary (vizketch) abstraction (paper §4.1–§4.2).

A vizketch method consists of two pure, single-threaded functions::

    summarize(shard)  -> summary
    merge(s1, s2)     -> summary

subject to the mergeability law

    summarize(D1 ⊎ D2) == merge(summarize(D1), summarize(D2))

(exactly for deterministic sketches; in distribution for sampled ones).
Everything else — distribution over servers, threading, partial-result
streaming, caching, fault tolerance — is provided uniformly by the engine
(paper §5.5), so a sketch author never deals with concurrency.

Summaries must be serializable so the engine can account network bytes and
ship them between tree nodes.  A summary or sketch class that travels the
wire declares one :class:`~repro.core.wire.Wire` field table; every codec
(binary and JSON) is derived from it, and defining the class registers it.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Generic, TypeVar

import numpy as np

from repro.core.rand import rng_for
from repro.core.serialization import Decoder, Encoder
from repro.core.wire import (
    decode_summary,
    encode_summary,
    register_sketch,
    register_summary,
    registering,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.table.membership import Selection
    from repro.table.table import Table

R = TypeVar("R", bound="Summary")


class Summary(registering(register_summary)):
    """Base class for vizketch summaries.

    A summary is small — its size depends on the display resolution, never
    on the dataset size (paper §4.2).  Subclasses are plain value objects
    declaring a ``wire`` field table, from which :meth:`encode`,
    :meth:`decode` and the JSON payload are derived; the engine uses the
    encoded size for bandwidth accounting (Figure 5, bottom).
    """

    def encode(self, enc: Encoder) -> None:
        """Append the wire representation of this summary to ``enc``."""
        encode_summary(self, enc)

    @classmethod
    def decode(cls, dec: Decoder):
        """Inverse of :meth:`encode`."""
        return decode_summary(cls, dec)

    def serialized_size(self) -> int:
        """Size of this summary on the wire, in bytes."""
        enc = Encoder()
        self.encode(enc)
        return enc.size

    def to_bytes(self) -> bytes:
        enc = Encoder()
        self.encode(enc)
        return enc.to_bytes()


class Sketch(registering(register_sketch), ABC, Generic[R]):
    """A mergeable summarization method (vizketch without the rendering).

    Subclasses implement :meth:`summarize`, :meth:`zero` and :meth:`merge`.
    ``merge`` must be associative with ``zero()`` as its identity (paper
    §5.3).  The engine always folds partials in a fixed order — shard
    order at the worker, worker-index order at the root — so merges that
    are only *approximately* commutative (Misra-Gries at capacity) still
    produce byte-identical results run over run.
    """

    #: Whether repeated execution yields identical results.  Deterministic
    #: sketch results may be stored in the computation cache (paper §5.4).
    deterministic: bool = True

    @property
    def name(self) -> str:
        """Human-readable sketch name (used in logs and progress bars)."""
        return type(self).__name__

    @abstractmethod
    def summarize(self, table: "Table") -> R:
        """Compute the summary of one data shard.

        Implementations are single-threaded and purely local: they may scan
        or sample ``table`` but must not touch global state (paper §5.5).
        """

    @abstractmethod
    def zero(self) -> R:
        """The identity summary: ``merge(zero(), s) == s``."""

    @abstractmethod
    def merge(self, left: R, right: R) -> R:
        """Combine two summaries of disjoint data into one.

        Must not mutate its arguments: the engine may merge the same partial
        result into several accumulation paths during progressive updates.
        """

    def cache_key(self) -> str | None:
        """Key identifying this computation in the computation cache.

        Only deterministic sketches are cacheable; randomized sketches
        return None and are always re-executed (paper §5.4).
        """
        return None

    def with_seed(self, seed: int) -> "Sketch[R]":
        """A copy of this sketch re-keyed to ``seed``.

        The engine's redo log stores seeds so a replayed (post-failure)
        execution reproduces identical summaries (paper §5.8).  Deterministic
        sketches ignore the seed and may return ``self``.
        """
        return self

    def merge_all(self, summaries: "list[R]") -> R:
        """Fold ``summaries`` left-to-right starting from :meth:`zero`."""
        result = self.zero()
        for summary in summaries:
            result = self.merge(result, summary)
        return result

    def __repr__(self) -> str:
        key = self.cache_key()
        return key if key is not None else f"<{self.name}>"


class SampledSketch(Sketch[R]):
    """Base class for sketches whose ``summarize`` samples rows.

    The sampling rate is global — computed once from the preparation phase's
    row count — and each shard draws its own deterministic stream keyed by
    ``(seed, shard_id)``, so results are reproducible under redo-log replay
    while remaining independent across shards (paper §5.6, §5.8).
    """

    deterministic = False

    def __init__(self, rate: float, seed: int):
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"sampling rate must be in (0, 1], got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)

    def with_seed(self, seed: int) -> "SampledSketch[R]":
        clone = copy.copy(self)
        clone.seed = int(seed)
        return clone

    def sampled_rows(self, table: "Table") -> "Selection":
        """This shard's Bernoulli sample at ``self.rate``, as a selection.

        A rate of 1.0 short-circuits to a full scan (no RNG consumed), so a
        sketch configured to scan is bit-identical to its streaming variant;
        the scan reads through the membership's own selection.  A lower
        rate returns the sorted row indices of the sample.
        """
        if self.rate >= 1.0:
            return table.members.selection()
        return self.sampled_indices(table)

    def sampled_indices(self, table: "Table") -> np.ndarray:
        """The rows of :meth:`sampled_rows` as sorted indices."""
        if self.rate >= 1.0:
            return table.members.indices()
        rng = rng_for(self.seed, "shard-sample", table.shard_id)
        return table.members.sample_rate(self.rate, rng)
