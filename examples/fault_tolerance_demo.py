#!/usr/bin/env python3
"""Soft state, redo log, and failure recovery (paper §5.7-5.8).

Everything a worker holds is disposable.  This demo derives a filtered
table, then repeatedly crashes workers and evicts datasets while asserting
that every query keeps returning *identical* results — the root's redo log
replays lineage (reload from the source, re-apply maps) whenever soft state
is missing, and a randomized sketch carries its own seed.

Run:  python examples/fault_tolerance_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.core.buckets import DoubleBuckets
from repro.data.flights import FlightsSource
from repro.engine.cluster import Cluster
from repro.engine.dataset import FilterMap
from repro.engine.faults import FaultInjector
from repro.sketches.histogram import HistogramSketch
from repro.table.compute import ColumnPredicate


def main() -> None:
    cluster = Cluster(num_workers=4, cores_per_worker=2)
    flights = cluster.load(FlightsSource(120_000, partitions=16, seed=3))
    delayed = flights.map(
        FilterMap(ColumnPredicate("DepDelay", ">=", 30.0))
    )

    exact = HistogramSketch("DepDelay", DoubleBuckets(30, 200, 40))
    sampled = HistogramSketch(
        "DepDelay", DoubleBuckets(30, 200, 40), rate=0.25, seed=99
    )
    baseline_exact = delayed.sketch(exact)
    baseline_sampled = delayed.sketch(sampled)
    print(f"baseline: {baseline_exact.total_in_range:,} delayed flights, "
          f"{baseline_sampled.sampled_rows:,} sampled\n")

    injector = FaultInjector(cluster, seed=42)
    for round_number in range(1, 6):
        events = injector.chaos([flights.dataset_id, delayed.dataset_id], rounds=2)
        cluster.computation_cache.clear()  # force real re-execution
        after_exact = delayed.sketch(exact)
        after_sampled = delayed.sketch(sampled)
        same_exact = np.array_equal(after_exact.counts, baseline_exact.counts)
        same_sampled = np.array_equal(
            after_sampled.counts, baseline_sampled.counts
        )
        print(
            f"round {round_number}: injected "
            f"[{'; '.join(e.describe() for e in events)}]"
        )
        print(
            f"          exact identical: {same_exact}   "
            f"sampled identical (same seed): {same_sampled}"
        )
        assert same_exact and same_sampled

    print("\nredo log (what replay executes, §5.7):")
    for line in cluster.redo_log.describe()[:4]:
        print("   ", line)
    print("    ...")
    crashes = sum(w.crashes for w in cluster.workers)
    print(
        f"\nsurvived {crashes} worker crash-restarts and "
        f"{len(injector.events) - crashes} evictions with identical results."
    )


if __name__ == "__main__":
    main()
