"""PCA via a sampled correlation-matrix sketch (§B.3).

Principal component analysis of M numeric columns projects the data along
eigenvectors of the M x M correlation matrix, which "can be efficiently
computed by a sampling-based sketch": the summary accumulates row counts,
per-column sums and the cross-product matrix; merge adds them.  The root
then forms the correlation matrix and its eigendecomposition — an
O(M^2)-sized summary for any number of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sketch import SampledSketch, Summary
from repro.core.wire import F64, F64_ARRAY, INT, STR_LIST, UVARINT, Field, Wire
from repro.table.table import Table


@dataclass
class CorrelationSummary(Summary):
    """Accumulated sufficient statistics for a correlation matrix."""

    columns: list[str]
    count: int  # rows with all columns present
    sums: np.ndarray  # float64[M]
    products: np.ndarray  # float64[M, M]: sum of x_i * x_j

    wire = Wire(
        "correlation",
        Field("columns", "columns", STR_LIST),
        Field("count", "count", UVARINT),
        Field("sums", "sums", F64_ARRAY),
        Field("products", "products", F64_ARRAY),
    )

    def means(self) -> np.ndarray:
        if self.count == 0:
            return np.zeros(len(self.columns))
        return self.sums / self.count

    def covariance(self) -> np.ndarray:
        """Population covariance matrix."""
        if self.count == 0:
            return np.zeros_like(self.products)
        means = self.means()
        return self.products / self.count - np.outer(means, means)

    def correlation(self) -> np.ndarray:
        cov = self.covariance()
        std = np.sqrt(np.clip(np.diag(cov), 1e-30, None))
        return cov / np.outer(std, std)

    def principal_components(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` (eigenvalues, eigenvectors) of the correlation matrix.

        Eigenvectors are returned as rows, ordered by decreasing eigenvalue;
        each row's sign is normalized so its largest-magnitude entry is
        positive (eigenvectors are defined up to sign).
        """
        if not 1 <= k <= len(self.columns):
            raise ValueError(f"k must be in [1, {len(self.columns)}]")
        eigenvalues, eigenvectors = np.linalg.eigh(self.correlation())
        order = np.argsort(eigenvalues)[::-1][:k]
        values = eigenvalues[order]
        vectors = eigenvectors[:, order].T
        for row in vectors:
            pivot = np.argmax(np.abs(row))
            if row[pivot] < 0:
                row *= -1.0
        return values, vectors

    def explained_variance(self, k: int) -> float:
        """Fraction of total variance captured by the top k components."""
        values, _ = self.principal_components(len(self.columns))
        total = float(values.sum())
        return float(values[:k].sum() / total) if total > 0 else 0.0


class CorrelationSketch(SampledSketch[CorrelationSummary]):
    """Sufficient statistics for PCA over ``columns``.

    Rows with a missing value in any of the columns are skipped (complete-
    case analysis).  ``rate=1.0`` scans; lower rates sample, which is sound
    because correlations are ratios of moments — scale cancels.
    """

    wire = Wire(
        "correlation",
        Field("columns", "columns", STR_LIST),
        Field("rate", "rate", F64, 1.0),
        Field("seed", "seed", INT, 0),
    )

    def __init__(self, columns: list[str], rate: float = 1.0, seed: int = 0):
        super().__init__(rate, seed)
        if len(columns) < 2:
            raise ValueError("PCA needs at least two columns")
        self.columns = list(columns)
        self.deterministic = rate >= 1.0

    @property
    def name(self) -> str:
        return f"Correlation({','.join(self.columns)})"

    def cache_key(self) -> str | None:
        if not self.deterministic:
            return None
        return f"Correlation({self.columns!r})"

    def zero(self) -> CorrelationSummary:
        m = len(self.columns)
        return CorrelationSummary(
            columns=self.columns,
            count=0,
            sums=np.zeros(m),
            products=np.zeros((m, m)),
        )

    def summarize(self, table: Table) -> CorrelationSummary:
        rows = self.sampled_rows(table)
        matrix = np.column_stack(
            [table.column(name).numeric_values(rows) for name in self.columns]
        )
        complete = ~np.isnan(matrix).any(axis=1)
        matrix = matrix[complete]
        return CorrelationSummary(
            columns=self.columns,
            count=matrix.shape[0],
            sums=matrix.sum(axis=0),
            products=matrix.T @ matrix,
        )

    def merge(
        self, left: CorrelationSummary, right: CorrelationSummary
    ) -> CorrelationSummary:
        return CorrelationSummary(
            columns=self.columns,
            count=left.count + right.count,
            sums=left.sums + right.sums,
            products=left.products + right.products,
        )
