"""Chaos tests: worker processes die mid-query; the engine stays exact.

These are the tier-2 distributed-correctness tests (also selected by the
scheduled CI job): they spawn real subprocess workers, SIGKILL them in the
middle of a streaming sketch, and require the root to converge to the same
final summary a single-process run computes on the same data (§5.7–5.8).
"""

from __future__ import annotations

import pytest

from harness import ChaosRunner
from repro.core.buckets import DoubleBuckets, ExplicitStringBuckets
from repro.sketches.histogram import HistogramSketch
from repro.sketches.stacked import StackedHistogramSketch

pytestmark = pytest.mark.tier2

DISTANCE = DoubleBuckets(0, 3000, 12)


class TestSigkillMidSketch:
    def test_histogram_survives_worker_sigkill(self):
        """SIGKILL one worker after the first streamed partial: the root
        respawns it, lineage replays its shards, and the final summary is
        byte-identical to the single-process ground truth."""
        sketch = HistogramSketch("Distance", DISTANCE)
        with ChaosRunner() as chaos:
            outcome = chaos.run_with_kill(sketch, kill_workers=(0,))
        assert outcome.partials >= 1
        assert len(outcome.killed_pids) == 1
        assert outcome.respawned, "the dead worker was not respawned"
        assert outcome.converged, (
            "root result diverged from the single-process reference after "
            f"killing pid {outcome.killed_pids}"
        )

    def test_two_column_sketch_survives_worker_sigkill(self):
        """Same fault, richer summary type (matrix counts cross the wire)."""
        sketch = StackedHistogramSketch(
            "Distance",
            DISTANCE,
            "Airline",
            ExplicitStringBuckets(["AA", "DL", "UA", "WN"]),
        )
        with ChaosRunner(rows=16_000, partitions=9) as chaos:
            outcome = chaos.run_with_kill(sketch, kill_workers=(0,))
        assert outcome.respawned
        assert outcome.converged
