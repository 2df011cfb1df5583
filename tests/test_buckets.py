"""Bucket description tests: indexing, labels, serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.buckets import (
    BUCKETS,
    DoubleBuckets,
    ExplicitStringBuckets,
    StringBuckets,
)
from repro.core.serialization import Decoder, Encoder


def roundtrip(buckets):
    enc = Encoder()
    BUCKETS.write(enc, buckets)
    return BUCKETS.read(Decoder(enc.to_bytes()))


class TestDoubleBuckets:
    def test_basic_indexing(self):
        b = DoubleBuckets(0.0, 10.0, 5)
        idx = b.index_numeric(np.array([0.0, 1.9, 2.0, 9.9, 10.0]))
        assert idx.tolist() == [0, 0, 1, 4, 4]

    def test_out_of_range_and_nan(self):
        b = DoubleBuckets(0.0, 10.0, 5)
        idx = b.index_numeric(np.array([-0.1, 10.1, np.nan]))
        assert idx.tolist() == [-1, -1, -1]

    def test_right_edge_closed(self):
        b = DoubleBuckets(0.0, 10.0, 10)
        assert b.index_numeric(np.array([10.0]))[0] == 9

    def test_degenerate_range(self):
        b = DoubleBuckets(5.0, 5.0, 3)
        idx = b.index_numeric(np.array([5.0, 4.9, 5.1]))
        assert idx.tolist() == [0, -1, -1]

    def test_bucket_ranges_partition_span(self):
        b = DoubleBuckets(0.0, 100.0, 4)
        edges = [b.bucket_range(i) for i in range(4)]
        assert edges[0][0] == 0.0
        for (lo1, hi1), (lo2, _) in zip(edges, edges[1:]):
            assert hi1 == pytest.approx(lo2)

    def test_validation(self):
        with pytest.raises(ValueError):
            DoubleBuckets(0, 10, 0)
        with pytest.raises(ValueError):
            DoubleBuckets(10, 0, 5)
        with pytest.raises(ValueError):
            DoubleBuckets(float("nan"), 10, 5)
        with pytest.raises(IndexError):
            DoubleBuckets(0, 10, 5).bucket_range(5)

    def test_equality_and_spec(self):
        assert DoubleBuckets(0, 1, 2) == DoubleBuckets(0, 1, 2)
        assert DoubleBuckets(0, 1, 2) != DoubleBuckets(0, 1, 3)
        assert "DoubleBuckets" in DoubleBuckets(0, 1, 2).spec()

    def test_roundtrip(self):
        b = DoubleBuckets(-3.5, 17.25, 13)
        assert roundtrip(b) == b

    @given(
        st.floats(-1e6, 1e6),
        st.floats(1e-3, 1e6),
        st.integers(1, 200),
        st.floats(0, 1),
    )
    def test_inside_values_always_indexed(self, lo, span, count, t):
        b = DoubleBuckets(lo, lo + span, count)
        value = lo + t * span
        idx = b.index_numeric(np.array([value]))[0]
        assert 0 <= idx < count
        blo, bhi = b.bucket_range(int(idx))
        assert blo - 1e-9 <= value <= bhi + 1e-9 or idx == count - 1


class TestStringBuckets:
    def test_indexing(self):
        b = StringBuckets(["a", "g", "p"])
        assert b.index_of("a") == 0
        assert b.index_of("f") == 0
        assert b.index_of("g") == 1
        assert b.index_of("z") == 2
        assert b.index_of("A") == -1  # below the first boundary

    def test_index_strings_handles_none(self):
        b = StringBuckets(["a", "m"])
        idx = b.index_strings(["a", None, "z"])
        assert idx.tolist() == [0, -1, 1]

    def test_labels(self):
        b = StringBuckets(["a", "m"])
        assert b.label(0) == "[a, m)"
        assert b.label(1) == "[m, ...)"
        with pytest.raises(IndexError):
            b.label(2)

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            StringBuckets(["b", "a"])
        with pytest.raises(ValueError):
            StringBuckets(["a", "a"])
        with pytest.raises(ValueError):
            StringBuckets([])

    def test_roundtrip(self):
        b = StringBuckets(["alpha", "beta", "gamma"])
        assert roundtrip(b) == b


class TestExplicitStringBuckets:
    def test_one_bucket_per_value(self):
        b = ExplicitStringBuckets(["x", "y", "z"])
        assert b.count == 3
        assert b.index_strings(["y", "w", None]).tolist() == [1, -1, -1]
        assert b.label(2) == "z"

    def test_distinct_required(self):
        with pytest.raises(ValueError):
            ExplicitStringBuckets(["a", "a"])

    def test_roundtrip(self):
        b = ExplicitStringBuckets(["UA", "AA", "DL"])
        assert roundtrip(b) == b
