"""Elastic fleet benchmark: interactivity before/during/after a grow.

The tier-operations pitch: a placed worker fleet can change size under
live load without breaking interactivity.  This benchmark runs a steady
8-session workload through one ``ServiceServer`` root over a 2-daemon
fleet, then — mid-workload — has an administrative root grow the fleet
to 4 daemons (streaming the moved shard slices) and later shrink it
back, measuring:

* **time-to-rebalance** — wall clock of each ``grow``/``shrink`` call
  (dial + inventory + shard transfer + versioned commit);
* **first-partial latency** p50/p95 bucketed into *before* (steady
  state, 2 daemons), *during* (queries overlapping a rebalance window —
  these drain on the old placement or restart on the new one), and
  *after* (steady state again).

The regression gate mirrors the acceptance criterion: during-rebalance
p50 time-to-first-partial must stay within 2x of steady state, i.e. the
rebalance barrier and stale-placement retries cost a bounded amount of
interactivity, never a stall.  Results land in ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time

from _harness import Root, format_table, human_seconds, load, timed_sketch
from conftest import add_report

from repro.engine.remote import ProcessCluster, spawn_worker
from repro.service.director import dial

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
ROWS = 10_000 if QUICK else 30_000
PARTITIONS = 24
PER_SHARD_SECONDS = 0.004
SESSIONS = 4 if QUICK else 8
STEADY_SECONDS = 1.5 if QUICK else 3.0
FLIGHTS_SPEC = {"kind": "flights", "rows": ROWS, "partitions": PARTITIONS, "seed": 31}
SKETCH = {
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
        proc, address = spawn_worker(f"elastic-bench-{i}", cores=2)
        daemons.append(proc)
        addresses.append(address)
    return daemons, addresses


def session_loop(address, samples: list, errors: list, stop: threading.Event):
    """One session issuing back-to-back sketches, recording
    (start, first-partial latency, total latency) per query."""
    try:
        with dial(*address, timeout=300) as client:
            handle = load(client, FLIGHTS_SPEC)
            while not stop.is_set():
                start = time.perf_counter()
                first, total, _ = timed_sketch(client, handle, SKETCH)
                samples.append((start, first, total))
    except Exception as exc:  # noqa: BLE001 — surfaced by the caller
        if not stop.is_set():
            errors.append(exc)


def bucket(samples, windows: dict[str, tuple[float, float]]):
    """Assign each sample to the first window its execution overlaps."""
    out: dict[str, list[tuple[float, float]]] = {name: [] for name in windows}
    for start, first, total in samples:
        end = start + total
        for name, (w0, w1) in windows.items():
            if start < w1 and end > w0:
                out[name].append((first, total))
                break
    return out


def collect() -> dict:
    daemons, addresses = spawn_fleet(4)
    serving = None
    root = None
    admin = None
    stop = threading.Event()
    try:
        serving = ProcessCluster(addresses=addresses[:2], aggregation_interval=0.02)
        root = Root(serving, max_concurrent=4)
        root_address = root.address
        admin = ProcessCluster(addresses=addresses[:2], aggregation_interval=0.02)

        samples: list = []
        errors: list = []
        threads = [
            threading.Thread(
                target=session_loop, args=(root_address, samples, errors, stop)
            )
            for _ in range(SESSIONS)
        ]
        for thread in threads:
            thread.start()
        time.sleep(1.0)  # warmup: shards loaded, caches primed

        before_start = time.perf_counter()
        time.sleep(STEADY_SECONDS)

        grow_start = time.perf_counter()
        admin.grow(addresses[2:])
        grow_seconds = time.perf_counter() - grow_start

        time.sleep(STEADY_SECONDS)  # steady state on 4 daemons

        shrink_start = time.perf_counter()
        admin.shrink(addresses[2:])
        shrink_seconds = time.perf_counter() - shrink_start

        time.sleep(STEADY_SECONDS)
        after_end = time.perf_counter()

        stop.set()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[0]

        windows = {
            "grow": (grow_start, grow_start + grow_seconds),
            "shrink": (shrink_start, shrink_start + shrink_seconds),
            "before (2 workers)": (before_start, grow_start),
            "steady (4 workers)": (grow_start + grow_seconds, shrink_start),
            "after (2 workers)": (shrink_start + shrink_seconds, after_end),
        }
        buckets = bucket(samples, windows)
        # Report rebalance windows merged as "during".
        during = buckets.pop("grow") + buckets.pop("shrink")
        buckets["during rebalance"] = during
        return {
            "grow_seconds": grow_seconds,
            "shrink_seconds": shrink_seconds,
            "buckets": buckets,
            "serving_version": serving.placement_version,
        }
    finally:
        stop.set()
        if root is not None:
            root.close()
        for cluster in (serving, admin):
            if cluster is not None:
                cluster.close()
        for proc in daemons:
            proc.terminate()
        for proc in daemons:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


def test_elastic_fleet_interactivity():
    metrics = collect()
    buckets = metrics["buckets"]

    rows = []
    stats: dict[str, dict[str, float]] = {}
    order = [
        "before (2 workers)",
        "during rebalance",
        "steady (4 workers)",
        "after (2 workers)",
    ]
    for phase in order:
        phase_samples = buckets[phase]
        if not phase_samples:
            continue
        firsts = [s[0] for s in phase_samples]
        totals = [s[1] for s in phase_samples]
        stats[phase] = {
            "p50_first": percentile(firsts, 0.50),
            "p95_first": percentile(firsts, 0.95),
        }
        rows.append(
            [
                phase,
                len(phase_samples),
                human_seconds(percentile(firsts, 0.50)),
                human_seconds(percentile(firsts, 0.95)),
                human_seconds(percentile(totals, 0.50)),
            ]
        )
    body = format_table(
        ["phase", "queries", "first p50", "first p95", "complete p50"], rows
    )
    body += (
        f"\n\ntime-to-rebalance: grow 2->4 {human_seconds(metrics['grow_seconds'])}, "
        f"shrink 4->2 {human_seconds(metrics['shrink_seconds'])}\n"
        f"{ROWS:,} flight rows x {PARTITIONS} partitions, "
        f"{PER_SHARD_SECONDS * 1000:.0f}ms/shard throttle, {SESSIONS} "
        "sessions through 1 root; rebalances issued by a separate "
        "administrative root (the serving root adopts via stale-placement "
        f"resync; final placement v{metrics['serving_version']})"
    )
    add_report(
        "Elastic fleet: first-partial latency before/during/after a grow",
        body,
    )
    print(body)

    # The serving root followed both rebalances.
    assert metrics["serving_version"] == 2

    # Interactivity gates (the acceptance criterion): queries overlapping
    # a rebalance stay within 2x of steady-state time-to-first-partial.
    steady = stats["before (2 workers)"]
    assert steady["p95_first"] < 10.0, stats
    during = stats.get("during rebalance")
    if during is not None:  # a very fast rebalance may overlap no query
        assert during["p50_first"] <= max(steady["p50_first"] * 2.0, 0.5), (
            f"rebalance broke interactivity: {during} vs steady {steady}"
        )
    return {
        "grow_seconds": metrics["grow_seconds"],
        "shrink_seconds": metrics["shrink_seconds"],
        "before_p50_first": steady["p50_first"],
        "during_p50_first": (during or steady)["p50_first"],
    }


if __name__ == "__main__":
    test_elastic_fleet_interactivity()
