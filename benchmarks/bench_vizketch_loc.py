"""Figure 9 — lines of code per vizketch.

Paper (Java): Histogram 114, CDF 114, Stacked histogram 130, Heatmap 130,
Heatmap trellis 127, Quantile 79, Next items 191, Find text 108, Heavy
hitters (sampling) 35, Range 156, Number distinct 117 — "the largest
vizketch takes only 191 lines".

The reproduction counts the real source lines of each sketch class (code
lines, excluding blanks/comments/docstrings).  The per-sketch count now
includes the wire definition: each class body carries its ``wire`` field
table, from which the JSON spec, the JSON payload and the binary summary
codec are all derived (``repro.core.wire``) — there is no per-sketch code
anywhere else.  The shape: every vizketch is a few dozen to ~200 lines,
because the engine handles everything else.
"""

from __future__ import annotations

import inspect
import io
import time
import tokenize

from _harness import format_table
from conftest import add_report

from repro.sketches.bottomk import BottomKDistinctSketch, BottomKSummary
from repro.sketches.cdf import CdfSketch
from repro.sketches.find_text import FindResult, FindTextSketch
from repro.sketches.heatmap import HeatmapSketch, HeatmapSummary
from repro.sketches.heavy_hitters import (
    FrequencySummary,
    MisraGriesSketch,
    SampleHeavyHittersSketch,
)
from repro.sketches.histogram import HistogramSketch, HistogramSummary
from repro.sketches.hll import HllSummary, HyperLogLogSketch
from repro.sketches.moments import ColumnStats, MomentsSketch
from repro.sketches.next_items import NextKList, NextKSketch
from repro.sketches.quantile import QuantileSummary, SampleQuantileSketch
from repro.sketches.stacked import StackedHistogramSketch, StackedHistogramSummary
from repro.sketches.trellis import TrellisHeatmapSketch, TrellisSummary


def code_lines(*objects) -> int:
    """Count code lines of the given classes (no blanks/comments/docs)."""
    total = 0
    for obj in objects:
        source = inspect.getsource(obj)
        kept: set[int] = set()
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        previous_meaningful = None
        for token in tokens:
            if token.type in (
                tokenize.COMMENT,
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENDMARKER,
            ):
                continue
            if token.type == tokenize.STRING and previous_meaningful in (
                None,
                tokenize.NEWLINE,
                tokenize.INDENT,
            ):
                # A docstring (expression statement at suite start).
                previous_meaningful = token.type
                continue
            for line in range(token.start[0], token.end[0] + 1):
                kept.add(line)
            previous_meaningful = token.type
        total += len(kept)
    return total


#: vizketch -> (classes to count, paper LOC)
VIZKETCHES = {
    "Histogram": ((HistogramSketch, HistogramSummary), 114),
    "CDF": ((CdfSketch,), 114),
    "Stacked histogram": ((StackedHistogramSketch, StackedHistogramSummary), 130),
    "Heatmap": ((HeatmapSketch, HeatmapSummary), 130),
    "Heatmap trellis": ((TrellisHeatmapSketch, TrellisSummary), 127),
    "Quantile": ((SampleQuantileSketch, QuantileSummary), 79),
    "Next items": ((NextKSketch, NextKList), 191),
    "Find text": ((FindTextSketch, FindResult), 108),
    "Heavy hitters (sampling)": ((SampleHeavyHittersSketch,), 35),
    "Heavy hitters (streaming)": ((MisraGriesSketch, FrequencySummary), None),
    "Range/moments": ((MomentsSketch, ColumnStats), 156),
    "Number distinct (HLL)": ((HyperLogLogSketch, HllSummary), 117),
    "Bottom-k distinct": ((BottomKDistinctSketch, BottomKSummary), None),
}


def test_vizketch_loc(benchmark):
    benchmark(time.sleep, 0)
    rows = []
    for name, (classes, paper) in VIZKETCHES.items():
        lines = code_lines(*classes)
        rows.append([name, lines, paper if paper is not None else "-"])
        # The paper's point: vizketches are compact because the engine does
        # the distributed-systems work.  Ours must stay in the same regime.
        assert lines < 260, f"{name} is {lines} lines — no longer 'compact'"
    measured = [r[1] for r in rows]
    assert max(measured) < 260 and min(measured) >= 10
    body = format_table(["vizketch", "this repo (Python)", "paper (Java)"], rows)
    body += (
        "\n\nEvery vizketch is a pair of pure functions plus a summary type;"
        "\nno sketch knows about threads, networks, caching, or failures."
    )
    add_report("Figure 9 vizketch implementation effort (LOC)", body)
