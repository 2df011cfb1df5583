"""Seeded datasets for the spine benchmark: the canonical i/d/t/s table as hvc shards.

This is the benchmark's own copy of the four-column generator (integers,
doubles with NaN, dates, dictionary strings, ~2 % missing each), so that
edits to ``bench_leaf_kernels.py`` cannot move the benchmark's inputs.
Everything is a pure function of ``seed``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from repro.storage import columnar
from repro.table.column import (
    DateColumn,
    DoubleColumn,
    IntColumn,
    StringColumn,
    datetime_to_millis,
)
from repro.table.dictionary import StringDictionary
from repro.table.schema import ColumnDescription, ContentsKind
from repro.table.table import Table

SHARDS = 8
DATE_LO = datetime(2019, 12, 1, tzinfo=timezone.utc)
DATE_HI = datetime(2021, 2, 1, tzinfo=timezone.utc)
VOCABULARY = ["ab", "ba", "cat", "dog", "elk", "fox", "gnu", "kit", "pug", "zz"]
MISSING_SHARE = 0.02


def make_table(rows: int, seed: int, shard_id: str) -> Table:
    """The canonical schema at ``rows`` rows; same seed, same bytes."""
    rng = np.random.default_rng(seed)
    ints = rng.integers(-60, 61, rows)
    int_missing = rng.random(rows) < MISSING_SHARE
    doubles = rng.uniform(-60.0, 60.0, rows)
    doubles[rng.random(rows) < MISSING_SHARE] = np.nan
    dates = rng.integers(datetime_to_millis(DATE_LO), datetime_to_millis(DATE_HI), rows)
    date_missing = rng.random(rows) < MISSING_SHARE
    codes = rng.integers(0, len(VOCABULARY), rows).astype(np.int32)
    codes[rng.random(rows) < MISSING_SHARE] = -1  # the dictionary's missing code
    columns = [
        IntColumn(ColumnDescription("i", ContentsKind.INTEGER), ints, int_missing),
        DoubleColumn(ColumnDescription("d", ContentsKind.DOUBLE), doubles),
        DateColumn(ColumnDescription("t", ContentsKind.DATE), dates, date_missing),
        StringColumn(
            ColumnDescription("s", ContentsKind.STRING),
            codes,
            StringDictionary(VOCABULARY),
        ),
    ]
    return Table(columns, shard_id=shard_id)


@dataclass
class DataSet:
    """One generated dataset: the in-driver table (the oracle's input) and
    its hvc directory (the server's input), plus what writing it cost."""

    name: str
    table: Table
    directory: str
    bytes_written: int
    write_seconds: float

    @property
    def rows(self) -> int:
        return self.table.num_rows

    def shard_paths(self) -> list[str]:
        return sorted(
            os.path.join(self.directory, f)
            for f in os.listdir(self.directory)
            if f.endswith(".hvc")
        )

    def alias(self, path: str) -> str:
        """A hard-link copy of the directory under a new path.

        A new path is a new content-addressed dataset to the server
        (nothing cached applies) while the bytes stay in the OS page
        cache: the repeatable kind of cold.
        """
        os.makedirs(path)
        for filename in os.listdir(self.directory):
            os.link(os.path.join(self.directory, filename), os.path.join(path, filename))
        return path


def generate(name: str, rows: int, seed: int, root: str) -> DataSet:
    table = make_table(rows, seed, shard_id=name)
    directory = os.path.join(root, name)
    started = time.perf_counter()
    paths = columnar.write_dataset(table.split(SHARDS), directory)
    elapsed = time.perf_counter() - started
    written = sum(os.path.getsize(p) for p in paths)
    return DataSet(name, table, directory, written, elapsed)
