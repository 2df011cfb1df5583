"""A throttled sketch wrapper for load-testing the service layer.

Real deployments summarize millions of rows per micropartition; the
in-process reproduction summarizes thousands in microseconds, which makes
concurrency behavior (streaming partials, newest-query-wins preemption,
fair-share queueing) impossible to observe.  :class:`SlowdownSketch`
wraps any registered sketch and sleeps a configurable interval per shard,
restoring a realistic per-micropartition cost.  It registers under the
``slow`` wire type::

    {"type": "slow", "perShardSeconds": 0.01, "inner": {...any sketch...}}

It is never cached (marked non-deterministic) so every run exercises the
full execution tree.
"""

from __future__ import annotations

import time

from repro.core.sketch import Sketch
from repro.core.wire import F64, SKETCH, Field, Wire


class SlowdownSketch(Sketch):
    """Delegates to ``inner``, adding ``per_shard_seconds`` of work per shard."""

    deterministic = False  # keep it out of the computation cache

    wire = Wire(
        "slow",
        Field("per_shard_seconds", "perShardSeconds", F64, 0.01),
        Field("inner", "inner", SKETCH),
    )

    def __init__(self, inner: Sketch, per_shard_seconds: float = 0.01):
        if per_shard_seconds < 0:
            raise ValueError("per_shard_seconds must be >= 0")
        self.inner = inner
        self.per_shard_seconds = float(per_shard_seconds)

    @property
    def name(self) -> str:
        return f"slow({self.inner.name})"

    def summarize(self, table):
        time.sleep(self.per_shard_seconds)
        return self.inner.summarize(table)

    def zero(self):
        return self.inner.zero()

    def merge(self, left, right):
        return self.inner.merge(left, right)

    def merge_all(self, summaries):
        return self.inner.merge_all(summaries)

    def cache_key(self) -> str | None:
        return None

    def with_seed(self, seed: int) -> "SlowdownSketch":
        return SlowdownSketch(self.inner.with_seed(seed), self.per_shard_seconds)
