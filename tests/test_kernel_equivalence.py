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
from repro.table.compute import ColumnPredicate, StringMatchPredicate
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
    st.just(-0.0),
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


# -- every selection kind ---------------------------------------------------
# A kernel reads member rows through the membership's selection: a slice for
# a contiguous run, the bitmap for a nearly full scattered set, the index
# array otherwise.  Each kind must give the per-row oracle's bytes.


def _selection_base() -> Table:
    """Canonical columns over 96 rows, ~10 % missing in each column."""
    rng = np.random.default_rng(29)
    n = 96
    values = {
        "i": [int(v) for v in rng.integers(-60, 61, n)],
        "d": [float(v) for v in rng.uniform(-60, 60, n)],
        "t": [DATE_LO + (DATE_HI - DATE_LO) * float(f) for f in rng.uniform(0, 1, n)],
        "s": ["".join(rng.choice(list("abcdegkpz"), 2)) for _ in range(n)],
    }
    for name in values:
        for row in rng.choice(n, size=n // 10, replace=False):
            values[name][row] = None
    return Table(
        [column_from_values(name, values[name], kind) for name, kind in CANONICAL_SCHEMA.items()],
        shard_id="selection-base",
    )


def _scattered(table: Table, keep: int) -> Table:
    mask = np.zeros(table.num_rows, dtype=bool)
    mask[np.random.default_rng(31).choice(table.num_rows, size=keep, replace=False)] = True
    return table.filter_mask(mask)


@pytest.fixture(scope="module")
def selection_tables(tmp_path_factory) -> dict[str, Table]:
    from repro.storage import columnar

    base = _selection_base()
    path = str(tmp_path_factory.mktemp("selections") / "base.hvc")
    columnar.write_table(base, path)
    return {
        "full": base,
        "dense_gather": _scattered(base, base.num_rows // 2),
        "dense_compress": _scattered(base, base.num_rows - 2),
        "sparse": _scattered(base, base.num_rows // 16),
        "split_chunk": base.split(3)[1],
        "mmap": columnar.read_table(path, shard_id="selection-base", use_mmap=True),
    }


#: The selection each kind must read through: slice, bool mask or indices.
SELECTION_KIND = {
    "full": slice,
    "dense_gather": np.int64,
    "dense_compress": np.bool_,
    "sparse": np.int64,
    "split_chunk": slice,
    "mmap": slice,
}


@pytest.mark.parametrize("kind", sorted(SELECTION_KIND))
def test_selection_kind(selection_tables, kind: str) -> None:
    selection = selection_tables[kind].members.selection()
    expected = SELECTION_KIND[kind]
    if expected is slice:
        assert isinstance(selection, slice)
    else:
        assert selection.dtype == expected


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
@pytest.mark.parametrize("kind", sorted(SELECTION_KIND))
def test_every_selection_kind(selection_tables, kind: str, spec_name: str) -> None:
    assert_kernel_equivalent(spec_name, selection_tables[kind])


_FILTER_CASES = {
    "d between": (
        ColumnPredicate("d", "between", (-20.0, 35.5)),
        lambda v: v is not None and -20.0 <= v <= 35.5,
    ),
    "i !=": (ColumnPredicate("i", "!=", 7), lambda v: v is not None and v != 7),
    "i in": (ColumnPredicate("i", "in", [-3, 0, 12]), lambda v: v in (-3, 0, 12)),
    "t <": (
        ColumnPredicate("t", "<", DATE_LO + (DATE_HI - DATE_LO) / 3),
        lambda v: v is not None and v < DATE_LO + (DATE_HI - DATE_LO) / 3,
    ),
    "t is_missing": (ColumnPredicate("t", "is_missing"), lambda v: v is None),
    "s match": (StringMatchPredicate("s", "a"), lambda v: v is not None and "a" in v),
}


@pytest.mark.parametrize("case", sorted(_FILTER_CASES))
@pytest.mark.parametrize("kind", sorted(SELECTION_KIND))
def test_filter_matches_per_row_oracle(selection_tables, kind: str, case: str) -> None:
    table = selection_tables[kind]
    predicate, holds = _FILTER_CASES[case]
    column = table.column(predicate.column)
    expected = [int(r) for r in table.members.indices() if holds(column.value(int(r)))]
    filtered = table.filter(predicate)
    assert filtered.members.indices().tolist() == expected
    assert filtered.num_rows == len(expected)


def test_mapped_columns_are_read_only(selection_tables) -> None:
    """Kernels read mapped storage in place: a write must raise, not land."""
    table = selection_tables["mmap"]
    selection = table.members.selection()
    for name in ("i", "d", "t"):
        assert not table.column(name).data.flags.writeable
    values = table.column("d").numeric_values(selection)
    codes = table.column("s").codes_at(selection)
    for view in (values, codes):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = view[1]


def test_in_memory_views_are_read_only_too() -> None:
    """A slice of an in-memory column is a view of it: also read-only."""
    table = _selection_base()
    before = table.column("d").data.copy()
    values = table.column("d").numeric_values(table.members.selection())
    with pytest.raises(ValueError):
        values[:] = 0.0
    surrogate = table.column("d").sort_surrogate(table.members.selection())
    surrogate[:] = 0.0  # a fresh array: writable, and the column unchanged
    np.testing.assert_array_equal(table.column("d").data, before)


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
        "HyperLogLogSketch",
    }
    assert expected <= covered
