"""Compare two sets of untraced spine results under the bounds of BENCHMARK.json.

    python3 benchmarks/spine/compare.py A B

``A`` (the baseline) and ``B`` are ``results.jsonl`` files, or directories
holding one, as written by ``run.py --out DIR``; each should hold several
runs of every workload.  Per end-to-end metric and workload this prints
both medians with their quartiles and one verdict:

``worse``       B's median is worse than A's by more than the metric's bound
``unresolved``  not worse, but the run-to-run spread of A or B (quartile
                distance over median) is wider than the bound, so "same"
                cannot be claimed
``same``        neither

``failed_share`` (failed units over attempted, all runs pooled) is ``worse``
on any rise.  The exit status is 1 if anything is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load(path: str) -> dict[str, list[dict]]:
    """Untraced records of a result set, grouped by workload."""
    if os.path.isdir(path):
        path = os.path.join(path, "results.jsonl")
    runs: dict[str, list[dict]] = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record.get("trace") == 0:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict for one metric on one workload, and how much worse B's
    median is than A's as a share of A's (negative: better)."""
    a1, a2, a3 = summary(a)
    b1, b2, b3 = summary(b)
    worse_by = (b2 - a2) / a2 if better == "lower" else (a2 - b2) / a2
    spread = max((a3 - a1) / a2, (b3 - b1) / b2)
    if worse_by > bound:
        return "worse", worse_by
    if spread > bound:
        return "unresolved", worse_by
    return "same", worse_by


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(a: dict[str, list[dict]], b: dict[str, list[dict]], metrics: list[dict]) -> list[tuple]:
    """Rows of (workload, metric, unit, A summary, B summary, verdict, worse_by)."""
    rows = []
    for workload in a:
        if workload not in b:
            continue
        for spec in metrics:
            name = spec["name"]
            va = [r["metrics"][name]["value"] for r in a[workload]]
            vb = [r["metrics"][name]["value"] for r in b[workload]]
            word, worse_by = verdict(va, vb, spec["better"], spec["bound"])
            rows.append((workload, name, spec["unit"], summary(va), summary(vb), word, worse_by))
        fa, fb = failed_share(a[workload]), failed_share(b[workload])
        rows.append((workload, "failed_share", "share", (fa, fa, fa), (fb, fb, fb),
                     "worse" if fb > fa else "same", fb - fa))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    a, b = load(argv[0]), load(argv[1])
    rows = compare(a, b, metrics)
    print(f"{'workload':13s} {'metric':22s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B worse by':>10s}  verdict")
    for workload, name, unit, sa, sb, word, worse_by in rows:
        cells = [f"{s[1]:11.3f} [{s[0]:9.3f}, {s[2]:9.3f}]" for s in (sa, sb)]
        print(f"{workload:13s} {name:22s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{worse_by * 100:9.1f}%  {word}  ({unit}, n={len(a[workload])}/{len(b[workload])})")
    return 1 if any(row[5] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
