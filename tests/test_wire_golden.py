"""The wire, pinned: golden hashes of every codec's output.

``tests/fixtures/wire_golden.json`` was generated from the hand-written
per-sketch codecs (the commit before the field-table refactor) by running
this file as a script.  For every kernel spec in
``repro.sketches.specs.SKETCH_SPECS`` over a seeded canonical table, plus
one spec per wire-level sketch type over the flights dataset, it stores the
SHA-256 of

* ``summary_to_bytes(summary)`` — the binary worker wire,
* ``json.dumps(summary_to_json(summary))`` — the browser payload, and
* ``json.dumps(sketch_to_json(sketch))`` — the broadcast spec.

The ``summaryBytes`` of every count-grid summary (histogram, CDF, heat
map, stacked, trellis) were re-recorded when grids came to travel at the
narrowest width that holds them; no JSON hash moved.

Any codec change that moves a byte on either wire fails here, naming the
entry.  Regenerate (only when the wire is *meant* to change) with::

    PYTHONPATH=src python tests/test_wire_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.flights import FlightsSource
from repro.engine.local import LocalDataSet
from repro.engine.rpc import (
    sketch_from_json,
    sketch_to_json,
    summary_to_bytes,
    summary_to_json,
)
from repro.sketches.save import SaveStatus
from repro.sketches.specs import CANONICAL_SCHEMA, DATE_HI, DATE_LO, SKETCH_SPECS
from repro.table.column import column_from_values
from repro.table.table import Table

GOLDEN = Path(__file__).parent / "fixtures" / "wire_golden.json"
#: Empty only while (re)generating; the coverage test below then fails.
PINNED: dict[str, dict[str, str]] = (
    json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
)

_ORDER = [{"column": "s", "ascending": True}, {"column": "i", "ascending": False}]

#: Wire features no kernel spec or flights spec reaches: start keys on
#: both tabular sketches, the sampled heavy-hitters variant, dates in
#: cells, and the second trellis group on the JSON spec path.
EXTRA_SPECS: dict[str, dict] = {
    "nextK.start_inclusive": {
        "type": "nextK", "order": _ORDER, "k": 7,
        "start": ["da", 3], "inclusive": True,
    },
    "nextK.date_cells": {
        "type": "nextK", "order": [{"column": "t", "ascending": True}], "k": 5,
    },
    "find.start": {
        "type": "find", "order": _ORDER, "start": ["c", None],
        "match": {"type": "match", "column": "s", "pattern": "^a",
                  "mode": "regex", "caseSensitive": False},
    },
    "heavyHitters.sampling": {
        "type": "heavyHitters", "method": "sampling", "column": "i", "k": 6,
        "rate": 0.5, "seed": 4,
    },
    "moments.date": {"type": "moments", "column": "t", "moments": 3},
    "moments.string": {"type": "moments", "column": "s"},
    "distinct": {"type": "distinct", "column": "s", "precision": 6, "seed": 2},
    "bottomK": {"type": "bottomK", "column": "s", "k": 9, "seed": 1},
    "correlation": {"type": "correlation", "columns": ["i", "d"], "rate": 1.0},
    "trellisHistogram.group2": {
        "type": "trellisHistogram",
        "groupColumn": "s",
        "groupBuckets": {"type": "string_ranges", "boundaries": ["a", "f", "p"]},
        "xColumn": "d",
        "xBuckets": {"type": "double", "min": -40, "max": 40, "count": 5},
        "rate": 0.5, "seed": 9,
        "group2Column": "i",
        "group2Buckets": {"type": "double", "min": -50, "max": 50, "count": 3},
    },
}


# 2,000 rows keeps every summary under its decimation bounds (the quantile
# sample never exceeds 2 * max_size), so byte-identity is exact end to end.
FLIGHTS_SOURCE = FlightsSource(2_000, partitions=8, seed=5)

_DISTANCE = {"type": "double", "min": 0, "max": 3000, "count": 12}
_DELAY = {"type": "double", "min": -30, "max": 180, "count": 10}
_AIRLINES = {"type": "strings", "values": ["AA", "AS", "B6", "DL", "UA", "WN"]}
_FLIGHTS_ORDER = [
    {"column": "Distance", "ascending": True},
    {"column": "Origin", "ascending": True},
]

#: One spec per wire-level sketch type, exercised on the flights dataset.
FLIGHTS_SPECS: dict[str, dict] = {
    "histogram": {"type": "histogram", "column": "Distance", "buckets": _DISTANCE},
    "cdf": {"type": "cdf", "column": "DepDelay", "buckets": _DELAY},
    "heatmap": {
        "type": "heatmap",
        "xColumn": "Distance",
        "xBuckets": _DISTANCE,
        "yColumn": "DepDelay",
        "yBuckets": _DELAY,
    },
    "stacked": {
        "type": "stacked",
        "xColumn": "Distance",
        "xBuckets": _DISTANCE,
        "yColumn": "Airline",
        "yBuckets": _AIRLINES,
    },
    "trellisHeatmap": {
        "type": "trellisHeatmap",
        "groupColumn": "Airline",
        "groupBuckets": _AIRLINES,
        "xColumn": "Distance",
        "xBuckets": _DISTANCE,
        "yColumn": "DepDelay",
        "yBuckets": _DELAY,
    },
    "trellisHistogram": {
        "type": "trellisHistogram",
        "groupColumn": "Airline",
        "groupBuckets": _AIRLINES,
        "xColumn": "Distance",
        "xBuckets": _DISTANCE,
    },
    # Integer-valued columns keep float power sums exact, so summaries are
    # bit-identical regardless of merge order.
    "moments": {"type": "moments", "column": "CRSDepTime"},
    "distinct": {"type": "distinct", "column": "Origin", "precision": 10},
    # Misra-Gries merges exactly only while no counter reduction happens;
    # k above the column's cardinality (14 airlines) keeps it exact, which
    # is what cross-substrate byte-identity requires.
    "heavyHitters": {
        "type": "heavyHitters",
        "method": "streaming",
        "column": "Airline",
        "k": 20,
    },
    "nextK": {"type": "nextK", "order": _FLIGHTS_ORDER, "k": 10},
    "quantile": {"type": "quantile", "order": _FLIGHTS_ORDER, "rate": 1.0},
    "find": {
        "type": "find",
        "order": _FLIGHTS_ORDER,
        "match": {
            "type": "match",
            "column": "Origin",
            "pattern": "S",
            "mode": "substring",
            "caseSensitive": True,
        },
    },
    "bottomK": {"type": "bottomK", "column": "Origin", "k": 40},
    "correlation": {
        "type": "correlation",
        "columns": ["CRSDepTime", "DepTime", "DayOfWeek"],
    },
    "slow": {
        "type": "slow",
        "perShardSeconds": 0.0,
        "inner": {"type": "histogram", "column": "Distance", "buckets": _DISTANCE},
    },
    # "save" is side-effecting; exercised separately below.
}


def canonical_shards(rows: int = 400, shards: int = 4) -> list[Table]:
    """A seeded table over the canonical schema, with missing values,
    NaN and out-of-range values, split into shards."""
    rng = np.random.default_rng(2019)

    def holes(values: list) -> list:
        return [None if rng.random() < 0.1 else v for v in values]

    values = {
        "i": holes([int(v) for v in rng.integers(-60, 61, rows)]),
        "d": holes([float(v) for v in rng.uniform(-60, 60, rows)]),
        "t": holes(
            [DATE_LO + (DATE_HI - DATE_LO) * float(f) for f in rng.uniform(0, 1, rows)]
        ),
        "s": holes(
            ["".join(rng.choice(list("abcdegkpz"), 2)) for _ in range(rows)]
        ),
    }
    table = Table(
        [
            column_from_values(name, values[name], kind)
            for name, kind in CANONICAL_SCHEMA.items()
        ],
        shard_id="golden",
    )
    return table.split(shards)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _entry(sketch, summary) -> dict[str, str]:
    return {
        "summaryBytes": _sha(summary_to_bytes(summary)),
        "summaryJson": _sha(json.dumps(summary_to_json(summary)).encode("utf-8")),
        "sketchJson": _sha(json.dumps(sketch_to_json(sketch)).encode("utf-8")),
    }


def compute_entries() -> dict[str, dict[str, str]]:
    import repro.service.slow  # noqa: F401 — the "slow" wire type

    shards = canonical_shards()
    entries: dict[str, dict[str, str]] = {}
    for spec in SKETCH_SPECS:
        sketch = spec.sketch()
        merged = sketch.merge_all([sketch.summarize(s) for s in shards])
        entries[f"kernel/{spec.name}"] = _entry(sketch, merged)
    for name, spec in EXTRA_SPECS.items():
        sketch = sketch_from_json(spec)
        merged = sketch.merge_all([sketch.summarize(s) for s in shards])
        entries[f"extra/{name}"] = _entry(sketch, merged)
    flights = LocalDataSet(Table.concat(FLIGHTS_SOURCE.load()))
    for name, spec in sorted(FLIGHTS_SPECS.items()):
        sketch = sketch_from_json(spec)
        entries[f"flights/{name}"] = _entry(sketch, flights.sketch(sketch))
    # "save" writes files; pin its spec and a hand-built status instead.
    save = sketch_from_json({"type": "save", "directory": "/data/out", "format": "csv"})
    status = SaveStatus(
        files=["/data/out/part-a.csv", "/data/out/part-b.csv"],
        rows_written=1234,
        errors=["/data/out/part-c.csv: disk full"],
    )
    entries["flights/save"] = _entry(save, status)
    return entries


@pytest.fixture(scope="module")
def computed() -> dict[str, dict[str, str]]:
    return compute_entries()


def test_golden_covers_every_entry(computed):
    assert sorted(computed) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_wire_bytes_unchanged(name, computed):
    assert computed[name] == PINNED[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_entries(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
