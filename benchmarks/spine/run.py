"""The spine benchmark: one command, gateway to leaf, six workloads.

    python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1

generates the workload's dataset from the seed, spawns a fresh server
stack (``server.py``), drives it closed-loop over the WebSocket gateway
for S seconds, checks every answer, prints every metric by name with its
unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` (or
``--traced``) reports the per-layer metrics and writes a Perfetto trace.
Without ``--workload`` every workload runs in turn and the last line is
one JSON document holding all their results.  README.md has the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(REPO, ".bench_spine")  # everything this benchmark writes
DEFAULT_SEED = 17
SETUP_REPEATS = 3
SMOKE_SECONDS = 1.0


def _import_program() -> None:
    """Make ``repro`` (this checkout's ``src``) and the benchmark's own
    modules importable; refuse to run where the program is absent."""
    src = os.path.join(REPO, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(f"spine: no program to measure: {src}/repro is missing\n")
        raise SystemExit(2)
    sys.path[:0] = [HERE, src]


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------
def run_untraced(workload, dataset, args, tmp: str) -> dict:
    """End-to-end metrics, tracing off.  ``SETUP_REPEATS`` fresh stacks
    are set up one after another and each is measured for its share of
    the time: set-up time is their median, and the latencies are pooled,
    so that no single stack's luck (which core a worker landed on) is
    the run's result."""
    from measure import (Run, failures, kind_p50, metric, p50, p90, self_check,
                         units_per_second)
    from workloads import Oracle

    repeats = 1 if args.smoke else SETUP_REPEATS
    oracle = Oracle(dataset)
    runs, problems = [], []
    for _ in range(repeats):
        run = Run(workload, dataset, args.seed, False, tmp)
        try:
            run.measure(args.seconds / repeats)
            self_check(run, args.smoke)
        finally:
            run.close()
        problems.extend(failures(run, oracle))
        runs.append(run)
    units = [u for run in runs for u in run.timed]
    good = require_units([u for u in units if u.error is None], problems)
    n = len(good)
    metrics = {
        "setup_s": metric(p50([run.setup_seconds for run in runs]), "s", repeats),
        "first_partial_ms_p50": metric(
            kind_p50(good, lambda u: u.first_partial_seconds) * 1e3, "ms", n),
        "complete_ms_p50": metric(kind_p50(good, lambda u: u.complete_seconds) * 1e3, "ms", n),
        "complete_ms_p90": metric(p90([u.complete_seconds for u in good]) * 1e3, "ms", n),
        "units_per_s": metric(units_per_second(runs), "1/s", len(units)),
        "peak_rss_mb": metric(p50([run.peak_rss_mb for run in runs]), "MB", repeats),
    }
    return result(units, problems, metrics)


def run_traced(workload, dataset, args, tmp: str, out: str) -> dict:
    """Per-layer metrics.  Half the time on an untraced stack (the
    baseline for the tracing overhead), half on a traced one whose
    records become the spans and the layer table."""
    import layers
    import spans
    from measure import Run, failures, self_check
    from workloads import Oracle

    half = args.seconds / 2.0
    plain = Run(workload, dataset, args.seed, False, tmp)
    try:
        plain.measure(half)
    finally:
        plain.close()
    run = Run(workload, dataset, args.seed, True, tmp)
    try:
        run.measure(half)
        self_check(run, args.smoke)
        probe = layers.Probe(run, tmp)
    finally:
        run.close()
    problems = failures(run, Oracle(dataset))
    require_units([u for u in run.timed if u.error is None], problems)
    metrics = layers.layer_metrics(run, plain, probe, dataset, args.smoke)
    os.makedirs(out, exist_ok=True)
    trace_path = os.path.join(out, f"trace_{workload.name}.json")
    spans.write_trace(trace_path, run, probe)
    print(f"trace: {trace_path}")
    return result(run.timed, problems, metrics)


def require_units(good: list, problems: list[str]) -> list:
    """Percentiles need units that succeeded; a run without any has no
    result to print."""
    if len(good) < 2:
        report(problems)
        sys.stderr.write(f"spine: only {len(good)} units succeeded; nothing to report\n")
        raise SystemExit(4)
    return good


def report(problems: list[str]) -> None:
    for problem in problems[:10]:
        sys.stderr.write(f"spine: FAILED {problem}\n")


def result(units: list, problems: list[str], metrics: dict) -> dict:
    report(problems)
    return {
        "correct": not problems,
        "attempted": len(units),
        "failed": len(problems),
        "metrics": metrics,
    }


def run_workload(name: str, args, out: str) -> dict:
    import data
    from workloads import ROWS, SMOKE_ROWS, WORKLOADS

    workload = WORKLOADS[name]
    tmp = os.path.join(WORK, f"tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    for stale in os.listdir(WORK):  # left by a driver that was killed
        if stale.startswith("tmp-") and not os.path.exists(f"/proc/{stale[4:]}"):
            shutil.rmtree(os.path.join(WORK, stale), ignore_errors=True)
    try:
        rows = (SMOKE_ROWS if args.smoke else ROWS)[workload.dataset]
        dataset = data.generate(workload.dataset, rows, args.seed, tmp)
        if args.trace:
            outcome = run_traced(workload, dataset, args, tmp, out)
        else:
            outcome = run_untraced(workload, dataset, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{name}: seed {args.seed}, {rows:,} rows, {args.seconds:g} s, "
          f"{outcome['attempted']} units, {outcome['failed']} failed")
    for key, m in outcome["metrics"].items():
        print(f"  {key:44s} {m['value']:14.4f} {m['unit']:6s} (n={m['n']})")
    # The contract line carries value and unit only.
    outcome["metrics"] = {
        key: {"value": m["value"], "unit": m["unit"]} for key, m in outcome["metrics"].items()
    }
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="timed seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", help="directory for traces and results.jsonl "
                        "(default: .bench_spine/out in the checkout)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets, one second: exercises the code, measures nothing")
    args = parser.parse_args(argv)
    args.trace = 1 if args.traced else args.trace
    _import_program()
    from measure import SelfCheckFailed
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.seconds is None and args.smoke:
        args.seconds = SMOKE_SECONDS
    elif args.seconds is None:
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            args.seconds = float(json.load(f)["run_seconds"])
    out = args.out or os.path.join(WORK, "out")
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, out)
    except SelfCheckFailed as exc:
        sys.stderr.write(f"spine: SELF-CHECK FAILED {exc}\n")
        return 3
    if args.out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "results.jsonl"), "a") as f:
            for name, outcome in results.items():
                record = {"workload": name, "seed": args.seed, "trace": args.trace, **outcome}
                f.write(json.dumps(record) + "\n")
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({"seed": args.seed, "trace": args.trace, "claim": None,
                          "results": results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
