"""Multi-tier memoization benchmark: cold vs warm vs cross-root-warm.

The cache story of §5.4, measured end to end on a shared worker fleet:

* **cold** — the fleet has never seen the sketch: every worker scans its
  shards, the root merges streamed partials;
* **warm (same root)** — the root's own computation cache answers whole,
  no worker round-trip at all;
* **cross-root warm** — a *different* root (cold root tier) asks the same
  fleet: worker daemons serve their memoized partials, zero shard scans.

Each mode reports p50/p95 time-to-first-partial and time-to-complete over
``RUNS`` distinct sketches (distinct bucketings, so every cold run is
genuinely cold).  The warm rows should sit far below cold, with
cross-root warm paying only one worker RPC round-trip more than
same-root warm.  Results land in ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import subprocess

from _harness import Root, format_table, human_seconds, load, timed_sketch
from conftest import add_report

from repro.engine.remote import ProcessCluster, spawn_worker
from repro.service.director import dial

#: Quick mode (REPRO_BENCH_QUICK=1): the nightly CI perf-smoke job wants
#: the same shape in a fraction of the time — smaller dataset, fewer
#: distinct bucketings, the same three tiers.
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
ROWS = 10_000 if QUICK else 30_000
PARTITIONS = 24
FLEET_SIZE = 3
RUNS = 6 if QUICK else 12
FLIGHTS_SPEC = {"kind": "flights", "rows": ROWS, "partitions": PARTITIONS, "seed": 23}


def sketch_spec(buckets: int) -> dict:
    # The throttled "slow" wrapper is non-deterministic by design (never
    # cached), so the measured sketch is the plain deterministic
    # histogram; each run varies the bucket count to mint a fresh cache
    # key, making every cold run genuinely cold.
    return {
        "type": "histogram",
        "column": "Distance",
        "buckets": {"type": "double", "min": 0, "max": 6000, "count": buckets},
    }


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def spawn_fleet(size: int):
    daemons, addresses = [], []
    for i in range(size):
        proc, address = spawn_worker(f"cache-bench-{i}", cores=2)
        daemons.append(proc)
        addresses.append(address)
    return daemons, addresses


def collect() -> tuple[dict, dict]:
    """Measure the three cache tiers; returns (results, hits) where
    ``results`` maps mode -> [(first, total), ...].  Shared by the pytest
    benchmark below and the nightly CI perf-smoke runner."""
    daemons, addresses = spawn_fleet(FLEET_SIZE)
    roots, clusters = [], []
    try:
        for _ in range(2):
            cluster = ProcessCluster(addresses=addresses, aggregation_interval=0.02)
            clusters.append(cluster)
            roots.append(Root(cluster))
        (root_a, root_b) = roots

        results: dict[str, list[tuple[float, float]]] = {
            "cold": [],
            "warm same-root": [],
            "cross-root warm": [],
        }
        hits = {"warm same-root": 0, "cross-root warm": 0}
        with dial(*root_a.address, timeout=300) as client_a, dial(
            *root_b.address, timeout=300
        ) as client_b:
            handle_a = load(client_a, FLIGHTS_SPEC)
            handle_b = load(client_b, FLIGHTS_SPEC)
            for run in range(RUNS):
                buckets = 10 + run  # distinct cache key per run
                spec = sketch_spec(buckets)
                results["cold"].append(
                    timed_sketch(client_a, handle_a, spec)[:2]
                )
                first, total, replies = timed_sketch(client_a, handle_a, spec)
                results["warm same-root"].append((first, total))
                cache = replies[-1].get("cache")
                hits["warm same-root"] += bool(cache and cache["hit"])
                first, total, replies = timed_sketch(client_b, handle_b, spec)
                results["cross-root warm"].append((first, total))
                cache = replies[-1].get("cache")
                hits["cross-root warm"] += bool(cache and cache["workerHits"])
        return results, hits
    finally:
        for root in roots:
            root.close()
        for cluster in clusters:
            cluster.close()
        for proc in daemons:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()


def test_cache_tier_latencies():
    results, hits = collect()
    rows = []
    for mode, samples in results.items():
        firsts = [s[0] for s in samples]
        totals = [s[1] for s in samples]
        rows.append(
            [
                mode,
                len(samples),
                human_seconds(percentile(firsts, 0.50)),
                human_seconds(percentile(firsts, 0.95)),
                human_seconds(percentile(totals, 0.50)),
                human_seconds(percentile(totals, 0.95)),
            ]
        )
    table = format_table(
        ["mode", "runs", "first p50", "first p95", "complete p50", "complete p95"],
        rows,
    )
    body = (
        f"{ROWS:,} flight rows x {PARTITIONS} partitions on a shared "
        f"fleet of {FLEET_SIZE} worker daemons; {RUNS} distinct "
        f"bucketings per mode.\n"
        f"root-tier hits: {hits['warm same-root']}/{RUNS}; "
        f"cross-root worker-tier warm runs: "
        f"{hits['cross-root warm']}/{RUNS}.\n\n" + table
    )
    add_report("Cache tiers: cold vs warm vs cross-root warm (§5.4)", body)
    print(body)

    # The benchmark doubles as a regression check: warm must beat cold.
    cold_p50 = percentile([s[0] for s in results["cold"]], 0.50)
    cross_p50 = percentile([s[0] for s in results["cross-root warm"]], 0.50)
    assert hits["warm same-root"] == RUNS
    assert hits["cross-root warm"] == RUNS
    assert cross_p50 < cold_p50, (
        f"cross-root warm p50 {cross_p50} not below cold p50 {cold_p50}"
    )


if __name__ == "__main__":
    test_cache_tier_latencies()
