"""Self-operating fleet benchmark: work stealing under a skewed fleet.

The straggler story (ROADMAP item 3): Hillview's sub-second
interactivity assumes no leaf is the long pole, but a skewed fleet —
here one worker with an **8x per-core share** of the shard work (a
1-core straggler next to an 8-core peer holding the same shard count) —
pushes the time to the first *exact* result far above the balanced
case.  Shard-level work stealing is the data path that fixes it; this
benchmark measures exactly how much:

* **p95 first-exact** — time until the first streamed partial with
  ``progress == 1.0`` (the paper's progress bar reaching 100%), with
  stealing on vs off (``REPRO_STEAL_AFTER=inf``: a gate that never
  opens), same fleet, same shards;
* **steal speedup** — off/on ratio of those p95s.  The acceptance
  criterion (and the perf-smoke **hard floor**, ``REPRO_STEAL_SPEEDUP_MIN``,
  default 2x): stealing must at least halve the straggler's long pole.
  Sleep-dominated work makes the ratio robust to runner speed;
* **claims and slices** — steal claims the root dispatched and the
  shard slices they moved, per mode (report only).  One claim moves up
  to 8 slices; claims far above slices / 8 mean the root is re-claiming
  a victim with nothing left to cede;
* **time-to-drain the hot worker** — wall clock until the straggler's
  backlog is gone in the stolen runs (every pending slice either
  summarized at home or ceded to the idle peer);
* **control-loop overhead** — 1k autoscaler ticks against an in-memory
  fleet: the decision path (pressure fold, hysteresis, state publish)
  must stay far off any query's critical path.

Results land in ``benchmarks/results/`` via the perf-smoke runner.
"""

from __future__ import annotations

import os
import time

from _harness import format_table, human_seconds
from conftest import add_report

from repro.core.buckets import DoubleBuckets
from repro.data.flights import FlightsSource
from repro.engine.cluster import Cluster, Worker
from repro.obs.metrics import REGISTRY
from repro.service.autoscaler import Autoscaler, AutoscalerConfig
from repro.service.slow import SlowdownSketch
from repro.sketches.histogram import HistogramSketch

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
ROWS = 4_000 if QUICK else 8_000
PARTITIONS = 48 if QUICK else 64
PER_SHARD_SECONDS = 0.015
REPS = 3 if QUICK else 7
#: The skew: a 1-core straggler beside an 8-core peer.  Both hold the
#: same number of shards, so the straggler carries 8x its per-core fair
#: share of the scan work — comfortably past the >=4x the acceptance
#: criterion demands.
CORES = (1, 8)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def minimum_speedup() -> float:
    """The hard floor for the steal speedup (perf-smoke fails below)."""
    return float(os.environ.get("REPRO_STEAL_SPEEDUP_MIN", "2.0"))


def sketch() -> SlowdownSketch:
    return SlowdownSketch(
        HistogramSketch("Distance", DoubleBuckets(0, 3000, 10)),
        per_shard_seconds=PER_SHARD_SECONDS,
    )


def skewed_cluster() -> Cluster:
    return Cluster(
        workers=[
            Worker("straggler", cores=CORES[0]),
            Worker("peer", cores=CORES[1]),
        ],
        aggregation_interval=0.01,
    )


def steal_counters() -> tuple[int, int]:
    """The root's lifetime steal claims and slices moved."""
    return (
        REGISTRY.counter("cluster.steal.claims").value,
        REGISTRY.counter("cluster.steal.slices").value,
    )


def measure_mode(steal: bool) -> tuple[list[float], int, int]:
    """First-exact latencies over REPS runs, plus total stolen slices
    and the claims that moved them.

    A fresh cluster per run: the slowdown sketch is uncacheable by
    design, but the straggler gate adapts to observed cadence, so each
    run must start from the same cold state.
    """
    os.environ["REPRO_STEAL_AFTER"] = "0.01" if steal else "inf"
    latencies: list[float] = []
    stolen = 0
    claims_before, _ = steal_counters()
    source = FlightsSource(ROWS, partitions=PARTITIONS, seed=13)
    for _ in range(REPS):
        cluster = skewed_cluster()
        dataset = cluster.load(source)
        start = time.perf_counter()
        first_exact = None
        for partial in dataset.sketch_stream(sketch()):
            if first_exact is None and partial.progress >= 1.0:
                first_exact = time.perf_counter() - start
        assert first_exact is not None, "the stream never completed"
        latencies.append(first_exact)
        stolen += sum(w.slices_stolen for w in cluster.workers)
    return latencies, stolen, steal_counters()[0] - claims_before


def measure_control_loop(ticks: int = 1_000) -> float:
    """Wall seconds for ``ticks`` autoscaler decisions over an
    in-memory fleet report — the pure control-path overhead."""
    reports = [
        {"inflight": 3, "datasetOps": 1, "cores": 2},
        {"inflight": 1, "datasetOps": 0, "cores": 2},
    ]
    scaler = Autoscaler(
        lambda: reports,
        lambda n: None,
        lambda n: None,
        config=AutoscalerConfig(cooldown_seconds=1e9),
    )
    start = time.perf_counter()
    for _ in range(ticks):
        scaler.tick()
    return time.perf_counter() - start


def collect() -> dict:
    off_latencies, off_stolen, off_claims = measure_mode(steal=False)
    on_latencies, on_stolen, on_claims = measure_mode(steal=True)
    assert off_stolen == 0, "REPRO_STEAL_AFTER=inf must disable stealing"
    off_p95 = percentile(off_latencies, 0.95)
    on_p95 = percentile(on_latencies, 0.95)
    return {
        "off_p50": percentile(off_latencies, 0.50),
        "off_p95": off_p95,
        "on_p50": percentile(on_latencies, 0.50),
        "on_p95": on_p95,
        "speedup": off_p95 / max(on_p95, 1e-9),
        "stolen_slices": on_stolen,
        "claims": {"off": off_claims, "on": on_claims},
        "slices": {"off": off_stolen, "on": on_stolen},
        "drain_hot_worker_p50": percentile(on_latencies, 0.50),
        "control_loop_1k_ticks": measure_control_loop(),
    }


def main() -> None:
    metrics = collect()
    rows = [
        (f"steal {mode}", human_seconds(metrics[f"{mode}_p50"]),
         human_seconds(metrics[f"{mode}_p95"]), metrics["claims"][mode],
         metrics["slices"][mode])
        for mode in ("off", "on")
    ]
    table = format_table(
        ["mode", "p50 first-exact", "p95 first-exact", "claims", "slices"], rows
    )
    summary = (
        f"speedup {metrics['speedup']:.2f}x "
        f"(floor {minimum_speedup():.1f}x), "
        f"{metrics['stolen_slices']} slices stolen across "
        f"{REPS} runs, hot worker drained in "
        f"{human_seconds(metrics['drain_hot_worker_p50'])} (p50), "
        f"control loop {human_seconds(metrics['control_loop_1k_ticks'])}"
        f"/1k ticks"
    )
    print(table)
    print(summary)
    add_report(
        f"Work stealing under a {CORES[1]}x-skewed fleet",
        f"{table}\n{summary}",
    )


if __name__ == "__main__":
    main()
