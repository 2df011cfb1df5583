#!/usr/bin/env python
"""Nightly CI perf smoke: quick benchmarks -> BENCH_<date>.json + gate.

Runs the service-tier benchmarks in quick mode (small dataset,
fewer repetitions, identical topology), records p50/p95
time-to-first-partial per tier/mode into ``BENCH_<date>.json`` (the CI
job uploads it as an artifact, building the benchmark trajectory), and
**fails on regression**: any metric more than ``--gate-ratio`` (default
2x, the acceptance criterion) above the committed
``benchmarks/bench_baseline.json`` — with an absolute floor so
sub-millisecond cache-hit timings cannot trip the gate on scheduler
noise alone.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py                 # gate
    PYTHONPATH=src python benchmarks/perf_smoke.py --write-baseline

The baseline is committed; regenerate it (on a quiet machine) whenever a
deliberate perf change shifts the floor, and let the diff tell the
story.
"""

from __future__ import annotations

import os

# Quick mode must be set before the bench modules compute their sizes.
os.environ.setdefault("REPRO_BENCH_QUICK", "1")

import argparse  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:  # `python benchmarks/perf_smoke.py` from the root
    sys.path.insert(0, HERE)

BASELINE_PATH = os.path.join(HERE, "bench_baseline.json")

#: A metric only fails the gate when it exceeds baseline * ratio AND
#: baseline + floor — warm-cache timings are fractions of a millisecond,
#: where any shared CI runner doubles on noise alone.
ABSOLUTE_FLOOR_SECONDS = 0.05

#: How far runner-speed calibration may scale the baseline: a shared CI
#: runner is routinely 2-4x slower than the machine the baseline was
#: recorded on, and absolute latencies would fail the 2x gate with zero
#: real regression.  The calibration loop below measures this machine's
#: speed on the same kind of work the benchmarks do, and each baseline
#: is scaled by (current / recorded) clamped to this range before
#: gating — cross-machine drift is absorbed, genuine regressions
#: (which move a metric relative to the same-machine calibration) still
#: trip the gate.
CALIBRATION_CLAMP = (0.5, 4.0)


def calibrate() -> float:
    """Seconds for a fixed CPU workload shaped like the benchmarks:
    numpy scans (the leaves) plus Python-object churn (the JSON wire).
    Median of several runs, so a scheduling hiccup cannot skew it."""
    import time

    import numpy as np

    samples = []
    for _ in range(5):
        start = time.perf_counter()
        data = np.arange(400_000, dtype=np.float64)
        for _ in range(3):
            (np.sort(data % 977) * 1.0001).sum()
        payload = [{"i": i, "v": float(i % 97)} for i in range(20_000)]
        json.dumps(payload)
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2]


def run_cache_tiers() -> dict[str, float]:
    import bench_cache_tiers as bench

    results, _ = bench.collect()
    metrics: dict[str, float] = {}
    for mode, samples in results.items():
        firsts = [s[0] for s in samples]
        slug = mode.replace(" ", "_").replace("-", "_")
        metrics[f"cache_tiers.{slug}.p50_first"] = bench.percentile(firsts, 0.50)
        metrics[f"cache_tiers.{slug}.p95_first"] = bench.percentile(firsts, 0.95)
    return metrics


def run_multi_root() -> dict[str, float]:
    import bench_multi_root as bench

    daemons, addresses = bench.spawn_fleet(bench.FLEET_SIZE)
    try:
        metrics: dict[str, float] = {}
        for roots in bench.ROOT_COUNTS:
            measured = bench.measure(addresses, roots)
            metrics[f"multi_root.{roots}_roots.p50_first"] = measured["p50_first"]
            metrics[f"multi_root.{roots}_roots.p95_first"] = measured["p95_first"]
        return metrics
    finally:
        for proc in daemons:
            proc.terminate()
        for proc in daemons:
            try:
                proc.wait(timeout=10)
            except Exception:  # noqa: BLE001 — teardown best-effort
                proc.kill()


def run_elastic_fleet() -> dict[str, float]:
    import bench_elastic_fleet as bench

    metrics = bench.collect()
    out: dict[str, float] = {
        "elastic_fleet.grow_seconds": metrics["grow_seconds"],
        "elastic_fleet.shrink_seconds": metrics["shrink_seconds"],
    }
    for phase, key in (
        ("before (2 workers)", "before"),
        ("during rebalance", "during"),
    ):
        samples = metrics["buckets"].get(phase) or []
        if samples:
            firsts = [s[0] for s in samples]
            out[f"elastic_fleet.{key}.p50_first"] = bench.percentile(firsts, 0.50)
    return out


def run_tracing_overhead() -> dict[str, float]:
    """First-partial latency with tracing off vs on (``REPRO_TRACE=1``).

    Same topology, same queries, interleaving defeated by a unique
    bucket count per repetition (a computation-cache hit would skip the
    fan-out and measure nothing).  The design target is <5% added p50;
    the committed ``tracing_overhead.ratio`` baseline is ~1.0, so the
    2x gate bounds pathological overhead — span recording drifting onto
    the hot path's critical section — while absorbing runner noise.
    """
    import bench_cache_tiers as bench
    from _harness import Root, load, timed_sketch

    from repro.data.flights import FlightsSource
    from repro.engine.cluster import Cluster
    from repro.service.director import dial

    quick = os.environ.get("REPRO_BENCH_QUICK") == "1"
    rows = 20_000 if quick else 200_000
    reps = 12 if quick else 40

    def spec(upper: float) -> dict:
        # A unique bucket upper bound per measurement: the computation
        # cache (and the workers' memo tier) would otherwise serve every
        # repeat instantly and the comparison would measure cache hits.
        return {
            "type": "histogram",
            "column": "Distance",
            "buckets": {"type": "double", "min": 0, "max": upper, "count": 64},
        }

    previous_trace = os.environ.get("REPRO_TRACE")
    root = Root(
        Cluster(num_workers=2, cores_per_worker=2, aggregation_interval=0.02),
        default_source=FlightsSource(rows, partitions=8, seed=7),
    )
    try:
        samples: dict[str, list[float]] = {"off": [], "on": []}
        with dial(*root.address) as client:
            handle = load(client)

            def measure(upper: float) -> float:
                return timed_sketch(client, handle, spec(upper))[0]

            for warm in range(3):  # dataset materialization, pool spin-up
                measure(5000 + warm)
            # Interleave the modes so machine drift hits both equally.
            for i in range(reps):
                for offset, mode in ((0, "off"), (1, "on")):
                    if mode == "on":
                        os.environ["REPRO_TRACE"] = "1"
                    else:
                        os.environ.pop("REPRO_TRACE", None)
                    samples[mode].append(measure(6000 + 2 * i + offset))
    finally:
        if previous_trace is None:
            os.environ.pop("REPRO_TRACE", None)
        else:
            os.environ["REPRO_TRACE"] = previous_trace
        root.close()

    off_p50 = bench.percentile(samples["off"], 0.50)
    on_p50 = bench.percentile(samples["on"], 0.50)
    return {
        "tracing_overhead.off.p50_first": off_p50,
        "tracing_overhead.on.p50_first": on_p50,
        "tracing_overhead.ratio": on_p50 / max(off_p50, 1e-9),
    }


def run_leaf_kernels() -> dict[str, float]:
    """Vectorized kernel speedups + cold mmap first-partial (100x rows).

    Two layers of gating: the recorded ``over_reference`` ratios (inverse
    speedups, dimensionless so runner speed cancels) go through the
    standard baseline gate, and a **hard floor** fails the run outright
    if any kernel's speedup over its per-row reference oracle drops
    below ``REPRO_LEAF_SPEEDUP_MIN`` (default 5x, the acceptance
    criterion for vectorizing the leaves) — even on a fresh baseline.
    """
    import bench_leaf_kernels as bench

    metrics = bench.collect()
    minimum = bench.minimum_speedup()
    slow = {
        name: 1.0 / value
        for name, value in metrics.items()
        if name.endswith(".over_reference") and 1.0 / max(value, 1e-12) < minimum
    }
    if slow:
        detail = ", ".join(f"{n} = {v:.1f}x" for n, v in sorted(slow.items()))
        raise SystemExit(
            f"[perf-smoke] leaf kernel speedup below the {minimum:.0f}x "
            f"floor: {detail}"
        )
    return metrics


def run_autoscaler() -> dict[str, float]:
    """Work stealing under a skewed fleet + autoscaler control overhead.

    The steal speedup (off-p95 / on-p95 first-exact under an 8x per-core
    skew) is gated two ways: the inverse ratio ``on_over_off`` goes
    through the standard baseline gate (lower is better, so a regression
    *raises* it past the 2x ratio), and a **hard floor** fails the run
    outright when the speedup drops below ``REPRO_STEAL_SPEEDUP_MIN``
    (default 2x, the acceptance criterion: stealing must at least halve
    the straggler's long pole) — even on a fresh baseline.
    """
    import bench_autoscaler as bench

    measured = bench.collect()
    minimum = bench.minimum_speedup()
    if measured["speedup"] < minimum:
        raise SystemExit(
            f"[perf-smoke] steal speedup {measured['speedup']:.2f}x below "
            f"the {minimum:.1f}x floor (off p95 "
            f"{measured['off_p95'] * 1000:.1f}ms vs on p95 "
            f"{measured['on_p95'] * 1000:.1f}ms)"
        )
    return {
        "autoscaler.steal_off.p95_first": measured["off_p95"],
        "autoscaler.steal_on.p95_first": measured["on_p95"],
        # Inverse speedup: dimensionless (runner speed cancels) and
        # lower-is-better, so the ratio gate catches stealing going slow.
        "autoscaler.steal.on_over_off": 1.0 / max(measured["speedup"], 1e-9),
        "autoscaler.drain_hot_worker.p50": measured["drain_hot_worker_p50"],
        "autoscaler.control_loop_1k_ticks": measured["control_loop_1k_ticks"],
    }


SUITES = {
    "cache_tiers": run_cache_tiers,
    "multi_root": run_multi_root,
    "elastic_fleet": run_elastic_fleet,
    "tracing_overhead": run_tracing_overhead,
    "leaf_kernels": run_leaf_kernels,
    "autoscaler": run_autoscaler,
}


def gate(
    metrics: dict[str, float],
    baseline: dict[str, float],
    ratio: float,
    speed_scale: float = 1.0,
) -> list[str]:
    """Regressed metric names: present in both, above the
    machine-speed-scaled baseline * ratio, and above the absolute
    floor (so sub-millisecond timings never trip on noise)."""
    regressions = []
    for name, base in sorted(baseline.items()):
        current = metrics.get(name)
        if current is None:
            continue
        scaled = base * speed_scale
        if current > scaled * ratio and current > scaled + ABSOLUTE_FLOOR_SECONDS:
            regressions.append(name)
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--write-baseline", action="store_true",
        help=f"rewrite {os.path.relpath(BASELINE_PATH)} from this run",
    )
    parser.add_argument(
        "--baseline", default=BASELINE_PATH,
        help="baseline JSON to gate against",
    )
    parser.add_argument(
        "--out-dir", default=os.path.join(HERE, "results"),
        help="where BENCH_<date>.json lands (uploaded as a CI artifact)",
    )
    parser.add_argument(
        "--gate-ratio", type=float,
        default=float(os.environ.get("REPRO_BENCH_GATE_RATIO", "2.0")),
        help="fail when a metric exceeds baseline * ratio (default 2.0)",
    )
    parser.add_argument(
        "--suite", action="append", choices=sorted(SUITES),
        help="run a subset (repeatable; default: all)",
    )
    args = parser.parse_args(argv)

    calibration = calibrate()
    print(f"[perf-smoke] machine calibration: {calibration * 1000:.1f}ms")
    metrics: dict[str, float] = {}
    for name in args.suite or sorted(SUITES):
        print(f"[perf-smoke] running {name} ...", flush=True)
        metrics.update(SUITES[name]())

    today = datetime.date.today().isoformat()
    record = {
        "date": today,
        "quick": os.environ.get("REPRO_BENCH_QUICK") == "1",
        "python": sys.version.split()[0],
        "calibration_seconds": calibration,
        "metrics": metrics,
    }
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"BENCH_{today}.json")
    with open(out_path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    print(f"[perf-smoke] wrote {out_path}")

    if args.write_baseline:
        with open(BASELINE_PATH, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
        print(f"[perf-smoke] baseline rewritten: {BASELINE_PATH}")
        return 0

    try:
        with open(args.baseline) as f:
            baseline_record = json.load(f)
    except FileNotFoundError:
        print(
            f"[perf-smoke] no baseline at {args.baseline}; run with "
            "--write-baseline first",
            file=sys.stderr,
        )
        return 1
    baseline = baseline_record.get("metrics", {})
    base_calibration = float(
        baseline_record.get("calibration_seconds") or calibration
    )
    low, high = CALIBRATION_CLAMP
    speed_scale = min(high, max(low, calibration / base_calibration))
    print(
        f"[perf-smoke] baseline machine scale: x{speed_scale:.2f} "
        f"(this runner {calibration * 1000:.1f}ms vs recorded "
        f"{base_calibration * 1000:.1f}ms)"
    )

    width = max(len(n) for n in sorted(set(baseline) | set(metrics)))
    for name in sorted(set(baseline) | set(metrics)):
        base, current = baseline.get(name), metrics.get(name)
        if base is None or current is None:
            status = "  (unpaired)"
            shown = current if current is not None else base
            print(f"  {name.ljust(width)}  {shown * 1000:8.1f}ms{status}")
            continue
        flag = (
            "REGRESSED"
            if gate({name: current}, {name: base}, args.gate_ratio, speed_scale)
            else "ok"
        )
        print(
            f"  {name.ljust(width)}  {current * 1000:8.1f}ms  "
            f"(baseline {base * 1000:.1f}ms, x{current / base if base else 0:.2f})  {flag}"
        )

    # Silence is not health: a metric that stops being reported is an
    # unmonitored surface (a renamed key, a bench bucket gone empty).
    # Warn loudly per metric; fail outright if a whole suite vanished.
    missing = sorted(set(baseline) - set(metrics))
    for name in missing:
        print(
            f"[perf-smoke] WARNING: baseline metric {name!r} was not "
            "reported this run; its regression surface is unmonitored",
            file=sys.stderr,
        )
    missing_suites = {n.split(".", 1)[0] for n in missing} - {
        n.split(".", 1)[0] for n in metrics
    }
    if args.suite:  # a deliberate subset run is not a vanished suite
        missing_suites -= set(SUITES) - set(args.suite)
    if missing_suites:
        print(
            f"[perf-smoke] FAIL: no metrics at all from suite(s) "
            f"{', '.join(sorted(missing_suites))}",
            file=sys.stderr,
        )
        return 1

    regressions = gate(metrics, baseline, args.gate_ratio, speed_scale)
    if regressions:
        print(
            f"[perf-smoke] FAIL: {len(regressions)} metric(s) regressed "
            f">{args.gate_ratio:.1f}x vs baseline: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print(f"[perf-smoke] OK: no metric above {args.gate_ratio:.1f}x baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
