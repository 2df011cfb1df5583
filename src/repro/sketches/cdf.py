"""CDF vizketch (Appendix B.1).

A CDF rendering has one bucket per *horizontal pixel*; the vertical range is
always [0, 1], which makes the sample size ``O(V^2 log(1/delta))``
independent of bucket probabilities (unlike histograms).  The summary is a
histogram summary at pixel granularity; the cumulative sum is taken at
render time.

String columns are supported by combining the equi-width string-bucket
computation with the same counting (Appendix B.1, "CDFs for string data").
"""

from __future__ import annotations

import numpy as np

from repro.core.buckets import Buckets
from repro.sketches.histogram import HistogramSketch, HistogramSummary


class CdfSketch(HistogramSketch):
    """A histogram with one bucket per horizontal pixel, rendered cumulatively.

    The separate class keeps cache keys distinct (a CDF at width H is not
    interchangeable with a histogram at B buckets) and carries the
    CDF-specific post-processing.
    """

    wire = HistogramSketch.wire.tagged("cdf")

    def __init__(
        self,
        column: str,
        buckets: Buckets,
        rate: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(column, buckets, rate=rate, seed=seed)

    @property
    def name(self) -> str:
        kind = "streaming" if self.rate >= 1.0 else "sampled"
        return f"Cdf[{kind}]({self.column})"

    def cache_key(self) -> str | None:
        if not self.deterministic:
            return None
        return f"Cdf({self.column!r},{self.buckets.spec()})"

    @staticmethod
    def cumulative(summary: HistogramSummary) -> np.ndarray:
        """Cumulative fraction of in-range rows at each pixel, in [0, 1]."""
        total = summary.total_in_range
        if total == 0:
            return np.zeros(summary.buckets, dtype=np.float64)
        return np.cumsum(summary.counts) / total
