"""Leaf kernel speedups: vectorized sketch kernels vs per-row references.

Every hot sketch kernel keeps its original per-row implementation as
``summarize_reference`` (the differential oracle).  This benchmark runs
both over the canonical four-column table at scale — 100x the quick-mode
service benchmarks' row count — and reports the per-row speedup, plus the
cold time-to-first-partial through a fresh cluster reading a memory-mapped
hvc dataset (the full leaf path: mmap read -> vectorized kernel ->
streamed partial).

The vectorized path is measured at the full row count; the reference path
on a deterministic slice (it is two to three orders of magnitude slower),
with both normalized to ns/row so the speedup is scale-free.

A third pass times each kernel on one memory-mapped shard read through
each selection kind its membership can take — every row (a slice of the
mapped column), a scattered ~98 % (a bitmap compress), a scattered ~50 %
(an index gather) and a scattered ~5 % (a sparse index set) — in ns per
selected row, plus ``Table.filter`` on that shard (a ~50 % range on
``d``) in ns per row.

Run directly for a report::

    PYTHONPATH=src python benchmarks/bench_leaf_kernels.py

or through the perf smoke gate (``perf_smoke.py --suite leaf_kernels``),
which **fails** if any kernel's speedup drops below
``REPRO_LEAF_SPEEDUP_MIN`` (default 5x, the acceptance criterion).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

import numpy as np

#: 100x the quick-mode service benchmarks' 20k rows.
ROWS = 2_000_000
#: The per-row reference oracle runs on this many rows (per-row Python
#: loops at the full count would take minutes); ns/row normalizes.
REFERENCE_ROWS = 100_000
#: Kernels measured (SKETCH_SPECS names): one 1-D binning kernel, one
#: 2-D, one value-counting kernel — the §7.2 hot paths — and the table
#: view's page (two-column order, start key mid-table).
KERNELS = (
    "histogram.double",
    "heatmap.int_double",
    "heavy_hitters.streaming_string",
    "next_k.after_key",
)
COLD_REPS = 5
PARTITIONS = 8
#: Member density of each selection kind timed on the mapped shard.
SELECTION_DENSITIES = {"full": 1.0, "compress": 0.98, "dense": 0.5, "sparse": 0.05}
SELECTION_REPS = 5


def canonical_table_at_scale(rows: int, seed: int = 29):
    """The canonical i/d/t/s schema at benchmark scale, all-numpy build."""
    from repro.sketches.specs import CANONICAL_SCHEMA, DATE_HI, DATE_LO
    from repro.table.column import (
        DateColumn,
        DoubleColumn,
        IntColumn,
        StringColumn,
        datetime_to_millis,
    )
    from repro.table.dictionary import StringDictionary
    from repro.table.schema import ColumnDescription
    from repro.table.table import Table

    rng = np.random.default_rng(seed)
    ints = rng.integers(-60, 61, rows)
    int_missing = rng.random(rows) < 0.02
    doubles = rng.uniform(-60.0, 60.0, rows)
    doubles[rng.random(rows) < 0.02] = np.nan
    lo = datetime_to_millis(DATE_LO)
    hi = datetime_to_millis(DATE_HI)
    dates = rng.integers(lo, hi, rows)
    date_missing = rng.random(rows) < 0.02
    vocabulary = StringDictionary(
        ["ab", "ba", "cat", "dog", "elk", "fox", "gnu", "kit", "pug", "zz"]
    )
    codes = rng.integers(0, len(vocabulary.values), rows).astype(np.int32)
    codes[rng.random(rows) < 0.02] = -1  # MISSING_CODE
    columns = [
        IntColumn(ColumnDescription("i", CANONICAL_SCHEMA["i"]), ints, int_missing),
        DoubleColumn(ColumnDescription("d", CANONICAL_SCHEMA["d"]), doubles),
        DateColumn(ColumnDescription("t", CANONICAL_SCHEMA["t"]), dates, date_missing),
        StringColumn(ColumnDescription("s", CANONICAL_SCHEMA["s"]), codes, vocabulary),
    ]
    return Table(columns, shard_id="bench-leaf")


def measure_kernels(table) -> dict[str, dict[str, float]]:
    """Per-kernel vectorized vs reference timings, normalized to ns/row."""
    from repro.sketches.specs import spec_by_name
    from repro.table.table import Table

    slice_rows = min(REFERENCE_ROWS, table.num_rows)
    mask = np.zeros(table.num_rows, dtype=bool)
    mask[:slice_rows] = True
    reference_slice = table.filter_mask(mask)
    out: dict[str, dict[str, float]] = {}
    for name in KERNELS:
        spec = spec_by_name(name)
        sketch = spec.sketch()
        sketch.summarize(table)  # warm: page in every column once
        start = time.perf_counter()
        fast = sketch.summarize(table)
        vectorized = time.perf_counter() - start
        start = time.perf_counter()
        slow = spec.sketch().summarize_reference(reference_slice)
        reference = time.perf_counter() - start
        # Sanity: the differential contract holds on the measured slice.
        assert (
            spec.sketch().summarize(reference_slice).to_bytes() == slow.to_bytes()
        ), f"{name}: vectorized and reference summaries diverged"
        assert fast is not None
        vec_per_row = vectorized / table.num_rows
        ref_per_row = reference / slice_rows
        out[name] = {
            "vectorized_ns_per_row": vec_per_row * 1e9,
            "reference_ns_per_row": ref_per_row * 1e9,
            "speedup": ref_per_row / max(vec_per_row, 1e-12),
        }
    return out


def _best_seconds(fn, reps: int = SELECTION_REPS) -> float:
    fn()  # warm: page in what the call touches
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_selections(table) -> dict[str, float]:
    """ns per selected row of each kernel on one mmapped shard, per
    selection kind, and ``Table.filter`` ns/row on that shard."""
    from repro.sketches.specs import spec_by_name
    from repro.storage import columnar
    from repro.table.compute import ColumnPredicate

    directory = tempfile.mkdtemp(prefix="bench-leaf-selections-")
    out: dict[str, float] = {}
    try:
        path = os.path.join(directory, "shard.hvc")
        columnar.write_table(table.split(PARTITIONS)[0], path)
        shard = columnar.read_table(path, use_mmap=True)
        rng = np.random.default_rng(7)
        for kind, density in SELECTION_DENSITIES.items():
            view = shard
            if density < 1.0:
                view = shard.filter_mask(rng.random(shard.num_rows) < density)
            for name in KERNELS:
                sketch = spec_by_name(name).sketch()
                seconds = _best_seconds(lambda: sketch.summarize(view))
                out[f"{name}.{kind}"] = seconds / view.num_rows * 1e9
        zoom = ColumnPredicate("d", "between", (-30.0, 30.0))
        seconds = _best_seconds(lambda: shard.filter(zoom))
        out["table_filter"] = seconds / shard.num_rows * 1e9
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return out


def measure_cold_first_partial(table) -> list[float]:
    """Time-to-first-partial through a fresh cluster per repetition:
    mmap dataset read -> vectorized kernels -> first streamed partial."""
    from repro.engine.cluster import Cluster
    from repro.sketches.specs import spec_by_name
    from repro.storage import columnar
    from repro.storage.loader import ColumnarDatasetSource

    directory = tempfile.mkdtemp(prefix="bench-leaf-")
    samples: list[float] = []
    try:
        columnar.write_dataset(table.split(PARTITIONS), directory)
        for _ in range(COLD_REPS):
            cluster = Cluster(
                num_workers=2, cores_per_worker=2, aggregation_interval=0.01
            )
            sketch = spec_by_name("histogram.double").sketch()
            start = time.perf_counter()
            dataset = cluster.load(ColumnarDatasetSource(directory))
            for _partial in dataset.sketch_stream(sketch):
                samples.append(time.perf_counter() - start)
                break
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return samples


def collect() -> dict[str, float]:
    """The perf-smoke metrics for this suite."""
    from bench_cache_tiers import percentile

    table = canonical_table_at_scale(ROWS)
    metrics: dict[str, float] = {}
    for name, measured in measure_kernels(table).items():
        slug = name.replace(".", "_")
        metrics[f"leaf_kernels.{slug}.vectorized_ns_per_row"] = measured[
            "vectorized_ns_per_row"
        ]
        # Gate on the *inverse* speedup (lower is better): the perf gate
        # fails metrics that grow, so a shrinking speedup trips it — and
        # a growing speedup (an improvement) never does.
        metrics[f"leaf_kernels.{slug}.over_reference"] = 1.0 / measured["speedup"]
    for name, ns_per_row in measure_selections(table).items():
        if name == "table_filter":
            metrics["leaf_kernels.table_filter.ns_per_row"] = ns_per_row
            continue
        kernel, kind = name.rsplit(".", 1)
        slug = kernel.replace(".", "_")
        metrics[f"leaf_kernels.{slug}.{kind}_ns_per_row"] = ns_per_row
    cold = measure_cold_first_partial(table)
    metrics["leaf_kernels.cold_first_partial.p50"] = percentile(cold, 0.50)
    return metrics


def minimum_speedup() -> float:
    return float(os.environ.get("REPRO_LEAF_SPEEDUP_MIN", "5.0"))


def main() -> int:
    table = canonical_table_at_scale(ROWS)
    print(f"rows: {table.num_rows:,} (reference slice: {REFERENCE_ROWS:,})")
    failed = False
    for name, measured in measure_kernels(table).items():
        speedup = measured["speedup"]
        flag = ""
        if speedup < minimum_speedup():
            failed = True
            flag = f"  << below {minimum_speedup():.0f}x minimum"
        print(
            f"  {name:36s} {measured['vectorized_ns_per_row']:8.1f} ns/row "
            f"vs {measured['reference_ns_per_row']:10.1f} ns/row "
            f"reference  ({speedup:7.1f}x){flag}"
        )
    selections = measure_selections(table)
    print("  one mmapped shard, ns per selected row:  "
          + "  ".join(f"{kind:>7s}" for kind in SELECTION_DENSITIES))
    for name in KERNELS:
        cells = "  ".join(f"{selections[f'{name}.{kind}']:7.1f}" for kind in SELECTION_DENSITIES)
        print(f"    {name:36s} {cells}")
    print(f"    {'Table.filter (d within +-30)':36s} {selections['table_filter']:7.1f}")
    cold = measure_cold_first_partial(table)
    print(
        f"  cold first partial (mmap dataset, fresh cluster): "
        f"p50 {sorted(cold)[len(cold) // 2] * 1000:.1f}ms over {len(cold)} reps"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    import sys

    HERE = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    raise SystemExit(main())
