"""Differential harness: vectorized sketch kernels vs per-row oracles.

Every entry in ``SKETCH_SPECS`` names one vectorized leaf kernel and its
canonical configuration; each kernel also preserves its original per-row
implementation as ``summarize_reference``.  These tests fuzz tables over
the canonical four-column schema — missing values, NaN, out-of-range
values, empty shards — and assert the two paths produce **byte-identical**
summaries (compared through each summary's own Encoder format, the same
bytes the wire and the caches see).

Byte identity, not approximate equality, is the contract: the vectorized
kernels feed mergeable summaries into multi-tier caches and cross-root
byte-identity guarantees, so "close" is not good enough.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialization import Encoder
from repro.sketches.specs import (
    CANONICAL_SCHEMA,
    DATE_HI,
    DATE_LO,
    SKETCH_SPECS,
    spec_by_name,
)
from repro.table.column import column_from_values
from repro.table.schema import ContentsKind
from repro.table.table import Table

SPEC_NAMES = [spec.name for spec in SKETCH_SPECS]


def encoded(summary) -> bytes:
    enc = Encoder()
    summary.encode(enc)
    return enc.to_bytes()


# -- canonical-table strategy ---------------------------------------------
# Domains deliberately overflow the spec bucket ranges so out-of-range
# paths always see traffic; every column mixes in missing values.  Ints
# stay far below 2**53 so float64 sort surrogates cannot collapse them.

_ints = st.one_of(st.none(), st.integers(-60, 60))
_doubles = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.floats(-60.0, 60.0, allow_nan=False),
    st.sampled_from([float("inf"), float("-inf")]),
)
_dates = st.one_of(
    st.none(),
    st.datetimes(
        min_value=DATE_LO.replace(tzinfo=None),
        max_value=DATE_HI.replace(tzinfo=None),
    ).map(lambda d: d.replace(tzinfo=DATE_LO.tzinfo, fold=0)),
)
_strings = st.one_of(
    st.none(),
    st.text(alphabet="abcdefgkpz", max_size=4),
)

_COLUMN_STRATEGIES = {
    ContentsKind.INTEGER: _ints,
    ContentsKind.DOUBLE: _doubles,
    ContentsKind.DATE: _dates,
    ContentsKind.STRING: _strings,
}


@st.composite
def canonical_tables(draw, min_rows: int = 0, max_rows: int = 60) -> Table:
    n = draw(st.integers(min_rows, max_rows))
    columns = [
        column_from_values(
            name, draw(st.lists(_COLUMN_STRATEGIES[kind], min_size=n, max_size=n)), kind
        )
        for name, kind in CANONICAL_SCHEMA.items()
    ]
    return Table(columns, shard_id="fuzz-shard")


def assert_kernel_equivalent(spec_name: str, table: Table) -> None:
    # Fresh sketch instances per path: sampled sketches must derive
    # their row sample from (seed, shard), never from shared RNG state.
    spec = spec_by_name(spec_name)
    fast = spec.sketch().summarize(table)
    slow = spec.sketch().summarize_reference(table)
    assert encoded(fast) == encoded(slow), (
        f"{spec_name}: vectorized and reference summaries differ on "
        f"{table.num_rows} rows"
    )


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(table=canonical_tables())
def test_vectorized_matches_reference(spec_name: str, table: Table) -> None:
    assert_kernel_equivalent(spec_name, table)


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_empty_shard(spec_name: str) -> None:
    table = Table(
        [column_from_values(n, [], k) for n, k in CANONICAL_SCHEMA.items()],
        shard_id="empty",
    )
    assert_kernel_equivalent(spec_name, table)


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_all_missing_shard(spec_name: str) -> None:
    n = 17
    table = Table(
        [
            column_from_values(name, [None] * n, kind)
            for name, kind in CANONICAL_SCHEMA.items()
        ],
        shard_id="all-missing",
    )
    assert_kernel_equivalent(spec_name, table)


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_filtered_members(spec_name: str) -> None:
    """Kernels must honor the membership set, not the raw column arrays."""
    rng = np.random.default_rng(13)
    n = 80
    values = {
        "i": [int(v) for v in rng.integers(-60, 61, n)],
        "d": [float(v) for v in rng.uniform(-60, 60, n)],
        "t": [
            DATE_LO + (DATE_HI - DATE_LO) * float(f)
            for f in rng.uniform(0, 1, n)
        ],
        "s": ["".join(rng.choice(list("abcdegkpz"), 3)) for _ in range(n)],
    }
    table = Table(
        [
            column_from_values(name, values[name], kind)
            for name, kind in CANONICAL_SCHEMA.items()
        ],
        shard_id="filter-base",
    )
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=n // 3, replace=False)] = True
    assert_kernel_equivalent(spec_name, table.filter_mask(mask))


def test_every_vectorized_kernel_is_enrolled() -> None:
    """A kernel with a reference oracle must appear in SKETCH_SPECS."""
    covered = {type(spec.sketch()).__name__ for spec in SKETCH_SPECS}
    # CdfSketch subclasses HistogramSketch; both are present explicitly.
    expected = {
        "HistogramSketch",
        "CdfSketch",
        "StackedHistogramSketch",
        "HeatmapSketch",
        "TrellisHeatmapSketch",
        "TrellisHistogramSketch",
        "MisraGriesSketch",
        "SampleHeavyHittersSketch",
        "SampleQuantileSketch",
        "FindTextSketch",
        "NextKSketch",
    }
    assert expected <= covered
