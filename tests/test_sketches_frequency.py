"""Heavy hitters, distinct counting, HLL, bottom-k sketch tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serialization import Decoder, Encoder
from repro.data.synth import categorical_table, zipf_strings
from repro.engine.rpc import summary_to_bytes
from repro.errors import ColumnKindError, EngineError
from repro.sketches.bottomk import BottomKDistinctSketch, BottomKSummary
from repro.sketches.distinct import DistinctSetSummary, ExactDistinctSketch
from repro.sketches.heavy_hitters import (
    FrequencySummary,
    MisraGriesSketch,
    SampleHeavyHittersSketch,
)
from repro.sketches.hll import HllSummary, HyperLogLogSketch, _rank
from repro.table.table import Table


def true_counts(table, column):
    data = table.to_pydict()[column]
    counts: dict = {}
    for value in data:
        if value is not None:
            counts[value] = counts.get(value, 0) + 1
    return counts


class TestMisraGries:
    def test_finds_all_frequent_elements(self):
        table = categorical_table(40_000, distinct=500, exponent=1.5, seed=1)
        k = 10
        sketch = MisraGriesSketch("word", 2 * k)
        summary = sketch.merge_all([sketch.summarize(s) for s in table.split(8)])
        counts = true_counts(table, "word")
        n = table.num_rows
        frequent = {v for v, c in counts.items() if c >= n / k}
        reported = {v for v, _ in summary.hitters(1.0 / k)}
        assert frequent <= reported

    def test_error_bound_holds(self):
        table = categorical_table(20_000, distinct=300, seed=2)
        sketch = MisraGriesSketch("word", 20)
        summary = sketch.merge_all([sketch.summarize(s) for s in table.split(4)])
        counts = true_counts(table, "word")
        for value, estimate in summary.counts.items():
            truth = counts[value]
            assert estimate <= truth  # MG only undercounts
            assert truth - estimate <= summary.error_bound

    def test_counter_budget_respected(self):
        table = categorical_table(5_000, distinct=1000, seed=3)
        sketch = MisraGriesSketch("word", 7)
        summary = sketch.summarize(table)
        assert len(summary.counts) <= 7

    def test_merge_matches_whole_on_reduction_free_data(self):
        # With fewer distinct values than counters, MG is exact.
        table = categorical_table(10_000, distinct=8, seed=4)
        sketch = MisraGriesSketch("word", 20)
        whole = sketch.summarize(table)
        merged = sketch.merge_all([sketch.summarize(s) for s in table.split(5)])
        assert whole.counts == merged.counts
        assert merged.error_bound == 0

    def test_numeric_column_supported(self):
        table = Table.from_pydict({"v": [1, 1, 2, 3, 1, None]})
        summary = MisraGriesSketch("v", 10).summarize(table)
        assert summary.counts[1.0] == 3
        assert summary.scanned == 6

    def test_signed_zero_key_does_not_depend_on_merge_order(self):
        # -0.0 == 0.0 is one key; which sign it kept used to follow
        # whichever summary the merge saw first.
        sketch = MisraGriesSketch("d", 4)
        a = sketch.summarize(Table.from_pydict({"d": [-0.0, 1.0]}))
        b = sketch.summarize(Table.from_pydict({"d": [0.0, 1.0]}))
        ab, ba = sketch.merge(a, b), sketch.merge(b, a)
        assert summary_to_bytes(ab) == summary_to_bytes(ba)
        assert ab.counts == {0.0: 2, 1.0: 2}
        assert all(np.copysign(1.0, value) == 1.0 for value in ab.counts)

    def test_serialization(self):
        table = categorical_table(1_000, distinct=20, seed=5)
        summary = MisraGriesSketch("word", 10).summarize(table)
        enc = Encoder()
        summary.encode(enc)
        back = FrequencySummary.decode(Decoder(enc.to_bytes()))
        assert back.counts == summary.counts


class TestSamplingHeavyHitters:
    def test_theorem4_guarantee(self):
        """All >=1/K-frequent found; none <1/(4K)-frequent reported."""
        k = 10
        table = categorical_table(50_000, distinct=200, exponent=1.6, seed=6)
        from repro.core.sampling import heavy_hitters_sample_size, sample_rate

        n_target = heavy_hitters_sample_size(k, 0.01)
        rate = sample_rate(n_target, table.num_rows)
        sketch = SampleHeavyHittersSketch("word", k, rate, seed=7)
        summary = sketch.merge_all([sketch.summarize(s) for s in table.split(8)])
        reported = {v for v, _ in sketch.hitters(summary)}
        counts = true_counts(table, "word")
        n = table.num_rows
        must_find = {v for v, c in counts.items() if c >= n / k}
        must_not = {v for v, c in counts.items() if c < n / (4 * k)}
        assert must_find <= reported
        assert not (reported & must_not)

    def test_sampled_counts_scale(self):
        table = categorical_table(30_000, distinct=50, seed=8)
        sketch = SampleHeavyHittersSketch("word", 10, rate=0.1, seed=9)
        summary = sketch.summarize(table)
        assert abs(summary.scanned - 3000) < 500

    def test_hitters_sorted_by_count(self):
        table = categorical_table(10_000, distinct=100, exponent=1.5, seed=10)
        sketch = SampleHeavyHittersSketch("word", 10, rate=0.5, seed=11)
        summary = sketch.summarize(table)
        hitters = sketch.hitters(summary)
        counts = [c for _, c in hitters]
        assert counts == sorted(counts, reverse=True)


class TestExactDistinct:
    def test_exact_set(self, small_table):
        summary = ExactDistinctSketch("name").summarize(small_table)
        assert summary.values == {"alice", "bob", "carol", "dave"}
        assert summary.missing == 1
        assert not summary.truncated

    def test_merge_unions(self, small_table):
        sketch = ExactDistinctSketch("name")
        merged = sketch.merge_all(
            [sketch.summarize(s) for s in small_table.split(3)]
        )
        assert merged.values == {"alice", "bob", "carol", "dave"}

    def test_truncation(self):
        table = categorical_table(5_000, distinct=400, seed=12)
        sketch = ExactDistinctSketch("word", limit=100)
        summary = sketch.summarize(table)
        assert summary.truncated
        assert summary.count == 100
        with pytest.raises(EngineError):
            sketch.require_exact(summary)

    def test_numeric_column(self):
        table = Table.from_pydict({"v": [1, 2, 2, 3, None]})
        summary = ExactDistinctSketch("v").summarize(table)
        assert summary.values == {1.0, 2.0, 3.0}

    def test_serialization(self, small_table):
        summary = ExactDistinctSketch("name").summarize(small_table)
        enc = Encoder()
        summary.encode(enc)
        back = DistinctSetSummary.decode(Decoder(enc.to_bytes()))
        assert back.values == summary.values


class TestHyperLogLog:
    @pytest.mark.parametrize("true_distinct", [50, 1000, 20_000])
    def test_estimate_within_error(self, true_distinct):
        rng = np.random.default_rng(13)
        values = rng.integers(0, true_distinct, size=max(true_distinct * 5, 10_000))
        table = Table.from_pydict({"v": values.tolist()})
        sketch = HyperLogLogSketch("v", precision=12, seed=0)
        summary = sketch.merge_all([sketch.summarize(s) for s in table.split(8)])
        actual_distinct = len(np.unique(values))
        relative_error = abs(summary.estimate() - actual_distinct) / actual_distinct
        assert relative_error < 0.08  # ~5 sigma at p=12

    def test_merge_equals_whole(self):
        table = categorical_table(20_000, distinct=2_000, seed=14)
        sketch = HyperLogLogSketch("word", precision=10, seed=3)
        whole = sketch.summarize(table)
        merged = sketch.merge_all([sketch.summarize(s) for s in table.split(7)])
        assert np.array_equal(whole.registers, merged.registers)

    def test_string_and_numeric_agreement_on_cardinality(self):
        rng = np.random.default_rng(15)
        codes = rng.integers(0, 500, size=20_000)
        table = Table.from_pydict(
            {"n": codes.tolist(), "s": [f"v{c}" for c in codes]}
        )
        n_est = HyperLogLogSketch("n", seed=1).summarize(table).estimate()
        s_est = HyperLogLogSketch("s", seed=1).summarize(table).estimate()
        assert abs(n_est - 500) / 500 < 0.1
        assert abs(s_est - 500) / 500 < 0.1

    def test_missing_tracked(self):
        table = Table.from_pydict({"v": [1.0, None, 2.0]})
        summary = HyperLogLogSketch("v").summarize(table)
        assert summary.missing == 1

    def test_negative_zero_is_zero(self):
        # -0.0 == 0.0, so they are one distinct value, as the exact sketch says.
        table = Table.from_pydict({"d": [0.0, -0.0] * 50})
        assert ExactDistinctSketch("d").summarize(table).values == {0.0}
        summary = HyperLogLogSketch("d").summarize(table)
        zeros = HyperLogLogSketch("d").summarize(
            Table.from_pydict({"d": [0.0] * 100})
        )
        assert np.array_equal(summary.registers, zeros.registers)
        assert round(summary.estimate()) == 1

    @pytest.mark.parametrize("precision", range(4, 17))
    def test_rank_matches_the_six_pass_loop(self, precision):
        """The exact-exponent rank against the shift-compare-select loop
        it replaced, on edge words and random ones."""

        def high_bit(x):
            x = x.copy()
            result = np.zeros(x.shape, dtype=np.uint64)
            for shift in (32, 16, 8, 4, 2, 1):
                step = np.uint64(shift)
                mask = x >= (np.uint64(1) << step)
                result[mask] += step
                x[mask] >>= step
            return result

        edges = [0] + [1 << k for k in range(64)] + [(2 << k) - 1 for k in range(64)]
        random = np.random.default_rng(precision).integers(
            0, 2**64, size=200_000, dtype=np.uint64, endpoint=False
        )
        words = np.concatenate([np.array(edges, dtype=np.uint64), random])
        left_aligned = words << np.uint64(precision)
        looped = np.where(
            left_aligned == 0,
            np.uint64(65 - precision),
            np.uint64(64) - high_bit(left_aligned),
        ).astype(np.uint8)
        np.testing.assert_array_equal(_rank(words, precision), looped)

    def test_empty_estimate_zero(self):
        summary = HyperLogLogSketch("v", precision=8).zero()
        assert summary.estimate() == 0.0

    def test_precision_bounds(self):
        with pytest.raises(ValueError):
            HyperLogLogSketch("v", precision=2)
        with pytest.raises(ValueError):
            HyperLogLogSketch("v", precision=20)

    def test_serialization(self):
        table = Table.from_pydict({"v": list(range(100))})
        summary = HyperLogLogSketch("v", precision=8).summarize(table)
        enc = Encoder()
        summary.encode(enc)
        back = HllSummary.decode(Decoder(enc.to_bytes()))
        assert np.array_equal(back.registers, summary.registers)
        assert back.estimate() == summary.estimate()

    def test_seed_in_cache_key(self):
        assert (
            HyperLogLogSketch("v", seed=1).cache_key()
            != HyperLogLogSketch("v", seed=2).cache_key()
        )


class TestBottomK:
    def test_unsaturated_holds_all_values(self, small_table):
        sketch = BottomKDistinctSketch("name", k=100)
        summary = sketch.summarize(small_table)
        assert not summary.saturated
        assert set(summary.values_sorted()) == {"alice", "bob", "carol", "dave"}
        assert summary.distinct_estimate() == 4.0

    def test_saturated_estimates_distinct(self):
        table = categorical_table(30_000, distinct=800, seed=16)
        sketch = BottomKDistinctSketch("word", k=200, seed=1)
        summary = sketch.merge_all([sketch.summarize(s) for s in table.split(6)])
        assert summary.saturated
        estimate = summary.distinct_estimate()
        assert 0.75 * 800 < estimate < 1.25 * 800

    def test_merge_equals_whole(self):
        table = categorical_table(10_000, distinct=300, seed=17)
        sketch = BottomKDistinctSketch("word", k=50, seed=2)
        whole = sketch.summarize(table)
        merged = sketch.merge_all([sketch.summarize(s) for s in table.split(5)])
        assert whole.entries == merged.entries

    def test_boundaries_are_distinct_quantiles(self):
        table = categorical_table(20_000, distinct=600, seed=18)
        sketch = BottomKDistinctSketch("word", k=300, seed=3)
        summary = sketch.summarize(table)
        boundaries = summary.quantile_boundaries(10, min_value="word000000")
        assert boundaries[0] == "word000000"
        assert boundaries == sorted(boundaries)
        assert len(boundaries) <= 10

    def test_numeric_column_rejected(self, small_table):
        with pytest.raises(ColumnKindError):
            BottomKDistinctSketch("x").summarize(small_table)

    def test_serialization(self, small_table):
        summary = BottomKDistinctSketch("name", k=10).summarize(small_table)
        enc = Encoder()
        summary.encode(enc)
        back = BottomKSummary.decode(Decoder(enc.to_bytes()))
        assert back.entries == summary.entries

    def test_multiplicity_invariance(self):
        """Bottom-k over distinct values ignores row multiplicities."""
        base = ["a", "b", "c", "d"]
        t1 = Table.from_pydict({"s": base})
        t2 = Table.from_pydict({"s": base * 50})
        sketch = BottomKDistinctSketch("s", k=3, seed=4)
        assert sketch.summarize(t1).entries == sketch.summarize(t2).entries


class TestCanonicalEncodingOrder:
    """FrequencySummary.encode must not leak dict insertion order."""

    @staticmethod
    def _encoded(counts: dict) -> bytes:
        summary = FrequencySummary(counts=counts, error_bound=3, scanned=100)
        enc = Encoder()
        summary.encode(enc)
        return enc.to_bytes()

    def test_insertion_order_does_not_change_the_bytes(self):
        forward = {"b": 2, "a": 5, "c": 1}
        reversed_order = dict(reversed(list(forward.items())))
        assert self._encoded(forward) == self._encoded(reversed_order)

    def test_mixed_types_with_colliding_string_forms(self):
        """int 3 and str "3" stringify identically; before the canonical
        type-rank tiebreak their relative order depended on insertion
        history, so two equal summaries could encode differently."""
        one_way = {3: 7, "3": 9, 2.5: 1, "x": 4}
        other_way = {"x": 4, "3": 9, 2.5: 1, 3: 7}
        assert self._encoded(one_way) == self._encoded(other_way)

    def test_canonical_counts_ranks_types_before_strings(self):
        from repro.sketches.heavy_hitters import canonical_counts

        ordered = canonical_counts({"3": 1, 3.5: 2, 3: 3, "a": 4})
        # ints/bools first, then floats, then strings — each sorted by
        # string form inside its rank.
        assert ordered == [(3, 3), (3.5, 2), ("3", 1), ("a", 4)]

    def test_merge_then_encode_is_order_independent(self):
        table_a = Table.from_pydict({"v": [1, 1, 2, 3, 3, 3]})
        table_b = Table.from_pydict({"v": [3, 2, 2, 2, 1]})
        sketch = MisraGriesSketch("v", k=8)
        ab = sketch.merge(sketch.summarize(table_a), sketch.summarize(table_b))
        ba = sketch.merge(sketch.summarize(table_b), sketch.summarize(table_a))
        enc_ab, enc_ba = Encoder(), Encoder()
        ab.encode(enc_ab)
        ba.encode(enc_ba)
        assert enc_ab.to_bytes() == enc_ba.to_bytes()
