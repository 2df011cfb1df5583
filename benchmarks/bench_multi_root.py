"""Multi-root benchmark: time-to-first-partial as the root tier widens.

The horizontal service tier's pitch (§5.2: "the web server is stateless")
is that front-end capacity scales by adding roots over one worker fleet.
This benchmark spawns a fixed fleet of 4 ``repro worker --listen``
daemons, then serves 8 concurrent sessions through 1, 2, and 4
roots (dealt round-robin by the connection director),
reporting p50/p95 time-to-first-partial and time-to-complete per tier
width.  Results land in ``benchmarks/results/`` for EXPERIMENTS.md.

The per-shard throttle (5 ms) pins leaf cost, so the delta across tier
widths isolates what the root tier itself contributes: scheduler slots,
the gateway, and root-side merging — the worker fleet is identical in
every row.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time

from _harness import Root, format_table, human_seconds, load, timed_sketch
from conftest import add_report

from repro.engine.remote import ProcessCluster, spawn_worker
from repro.service import ConnectionDirector

#: Quick mode (REPRO_BENCH_QUICK=1) for the nightly CI perf-smoke job:
#: same topology, smaller dataset, fewer tier widths.
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
ROWS = 10_000 if QUICK else 30_000
PARTITIONS = 24
PER_SHARD_SECONDS = 0.005
ROOT_COUNTS = (1, 2) if QUICK else (1, 2, 4)
SESSIONS = 4 if QUICK else 8
MAX_CONCURRENT = 2  # per-root scheduler slots: the tier widens capacity
FLEET_SIZE = 2 if QUICK else 4
FLIGHTS_SPEC = {"kind": "flights", "rows": ROWS, "partitions": PARTITIONS, "seed": 17}


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


def spawn_fleet(size: int):
    daemons, addresses = [], []
    for i in range(size):
        proc, address = spawn_worker(f"bench-{i}", cores=2)
        daemons.append(proc)
        addresses.append(address)
    return daemons, addresses


def run_session(director: ConnectionDirector, results: list, errors: list) -> None:
    try:
        with director.connect(timeout=300) as client:
            handle = load(client, FLIGHTS_SPEC)
            results.append(timed_sketch(client, handle, sketch_spec())[:2])
    except Exception as exc:  # surfaced by the caller
        errors.append(exc)


def measure(fleet_addresses, roots: int) -> dict:
    servers = []
    clusters = []
    try:
        for _ in range(roots):
            cluster = ProcessCluster(
                addresses=fleet_addresses, aggregation_interval=0.02
            )
            clusters.append(cluster)
            servers.append(Root(cluster, max_concurrent=MAX_CONCURRENT))
        director = ConnectionDirector([s.address for s in servers])
        # Warm the fleet's shard stores once (content-addressed ids make
        # every root reuse the same worker-side shards afterwards).
        with director.connect() as warmup:
            warmup.call("rowCount", load(warmup, FLIGHTS_SPEC))
        results: list = []
        errors: list = []
        threads = [
            threading.Thread(target=run_session, args=(director, results, errors))
            for _ in range(SESSIONS)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        wall = time.perf_counter() - wall_start
        assert not errors, errors[0]
        assert len(results) == SESSIONS
    finally:
        for server in servers:
            server.close()
        for cluster in clusters:
            cluster.close()
    firsts = [r[0] for r in results]
    totals = [r[1] for r in results]
    return {
        "roots": roots,
        "p50_first": percentile(firsts, 0.50),
        "p95_first": percentile(firsts, 0.95),
        "p50_total": percentile(totals, 0.50),
        "p95_total": percentile(totals, 0.95),
        "wall": wall,
    }


def test_multi_root_time_to_first_partial():
    daemons, addresses = spawn_fleet(FLEET_SIZE)
    try:
        measurements = [measure(addresses, roots) for roots in ROOT_COUNTS]
    finally:
        for proc in daemons:
            proc.terminate()
        for proc in daemons:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()

    # Interactivity shape: the tier must stay interactive at every width,
    # and widening the tier must not make the p95 first partial worse.
    by_roots = {m["roots"]: m for m in measurements}
    for m in measurements:
        assert m["p95_first"] < 10.0, m
    widest = max(ROOT_COUNTS)
    assert by_roots[widest]["p95_first"] <= by_roots[1]["p95_first"] * 1.5

    rows = [
        [
            m["roots"],
            SESSIONS,
            human_seconds(m["p50_first"]),
            human_seconds(m["p95_first"]),
            human_seconds(m["p50_total"]),
            human_seconds(m["p95_total"]),
            human_seconds(m["wall"]),
        ]
        for m in measurements
    ]
    body = format_table(
        [
            "roots",
            "sessions",
            "p50 first",
            "p95 first",
            "p50 done",
            "p95 done",
            "wall",
        ],
        rows,
    )
    body += (
        f"\n\n{ROWS:,} flight rows x {PARTITIONS} partitions, "
        f"{PER_SHARD_SECONDS * 1000:.0f}ms/shard throttle, shared fleet of "
        f"{FLEET_SIZE} `repro worker` daemons x 2 cores, "
        f"{MAX_CONCURRENT} scheduler slots per root, sessions dealt "
        "round-robin by the connection director"
    )
    add_report(
        "multi-root tier: time-to-first-partial at 1/2/4 roots", body
    )
