"""Service-layer concurrency benchmark: time-to-first-partial under load.

Hillview's promise is *interactivity at any scale* — the first
rendering-capable partial must arrive quickly even when many sessions
query at once (§2, §5.3).  This benchmark drives the real service stack
(gateway WebSocket, session manager, fair-share scheduler) with 1/8/32
concurrent sessions, each streaming a throttled histogram over the
flights dataset, and reports p50/p95 time-to-first-partial and
time-to-complete per concurrency level.

The throttled (``slow``) sketch pins per-shard cost at 5 ms, so the
numbers measure *scheduling and transport* behavior, not how fast numpy
sums this machine's tiny shards.
"""

from __future__ import annotations

import threading
import time

from _harness import Root, format_table, human_seconds, load, timed_sketch
from conftest import add_report

from repro.data.flights import FlightsSource
from repro.engine.cluster import Cluster
from repro.service.director import dial

ROWS = 30_000
PARTITIONS = 24
PER_SHARD_SECONDS = 0.005
CONCURRENCY_LEVELS = (1, 8, 32)
MAX_CONCURRENT = 4  # scheduler query slots (fair-shared across sessions)


def sketch_spec() -> dict:
    return {
        "type": "slow",
        "perShardSeconds": PER_SHARD_SECONDS,
        "inner": {
            "type": "histogram",
            "column": "Distance",
            "buckets": {"type": "double", "min": 0, "max": 6000, "count": 25},
        },
    }


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def run_session(address, results: list, errors: list) -> None:
    try:
        with dial(*address, timeout=120) as client:
            first, total, replies = timed_sketch(client, load(client), sketch_spec())
            results.append((first, total, len(replies) - 1))
    except Exception as exc:  # surfaced by the caller
        errors.append(exc)


def measure(address, sessions: int) -> dict:
    results: list = []
    errors: list = []
    threads = [
        threading.Thread(target=run_session, args=(address, results, errors))
        for _ in range(sessions)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    wall = time.perf_counter() - wall_start
    assert not errors, errors[0]
    assert len(results) == sessions
    firsts = [r[0] for r in results]
    totals = [r[1] for r in results]
    return {
        "sessions": sessions,
        "p50_first": percentile(firsts, 0.50),
        "p95_first": percentile(firsts, 0.95),
        "p50_total": percentile(totals, 0.50),
        "p95_total": percentile(totals, 0.95),
        "wall": wall,
        "partials": sum(r[2] for r in results) / sessions,
    }


def test_time_to_first_partial_under_concurrency():
    root = Root(
        Cluster(num_workers=2, cores_per_worker=2, aggregation_interval=0.02),
        default_source=FlightsSource(ROWS, partitions=PARTITIONS, seed=17),
        max_concurrent=MAX_CONCURRENT,
    )
    try:
        # Load the dataset once so measurements exclude generation.
        with dial(*root.address) as warmup:
            warmup.call("rowCount", load(warmup))
        measurements = [measure(root.address, n) for n in CONCURRENCY_LEVELS]
    finally:
        root.close()

    # Interactivity shape: even at 32 sessions over 4 query slots, the
    # p95 first partial stays within interactive bounds (well under the
    # paper's "a few seconds" bar for its 100x larger deployment).
    by_sessions = {m["sessions"]: m for m in measurements}
    assert by_sessions[32]["p95_first"] < 10.0
    assert by_sessions[1]["p50_first"] <= by_sessions[32]["p95_first"]

    rows = [
        [
            m["sessions"],
            human_seconds(m["p50_first"]),
            human_seconds(m["p95_first"]),
            human_seconds(m["p50_total"]),
            human_seconds(m["p95_total"]),
            human_seconds(m["wall"]),
            f"{m['partials']:.1f}",
        ]
        for m in measurements
    ]
    body = format_table(
        [
            "sessions",
            "p50 first",
            "p95 first",
            "p50 done",
            "p95 done",
            "wall",
            "partials/q",
        ],
        rows,
    )
    body += (
        f"\n\n{ROWS:,} flight rows x {PARTITIONS} partitions, "
        f"{PER_SHARD_SECONDS * 1000:.0f}ms/shard throttle, "
        f"{MAX_CONCURRENT} scheduler slots, 2 workers x 2 cores"
    )
    add_report("service layer: time-to-first-partial under concurrency", body)
