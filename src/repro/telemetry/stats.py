"""Distribution utilities: empirical CDFs, quantiles, binning, normalization.

All of the paper's figures are normalized to their maximum ("results for
these metrics are normalized with respect to their maximum value", §V),
and its provisioning math reads percentiles off empirical CDFs of the
μ metric (Fig 1, Fig 11).  These helpers implement exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError


@dataclass(frozen=True)
class Ecdf:
    """An empirical CDF over a finite sample.

    Attributes:
        values: sorted unique sample values.
        probabilities: P(X <= value) for each entry of ``values``.
        n: underlying sample size.
    """

    values: np.ndarray
    probabilities: np.ndarray
    n: int

    def evaluate(self, x: float) -> float:
        """P(X <= x)."""
        index = np.searchsorted(self.values, x, side="right") - 1
        if index < 0:
            return 0.0
        return float(self.probabilities[index])

    def quantile(self, q: float) -> float:
        """Smallest sample value v with P(X <= v) >= q.

        ``q = 1.0`` returns the sample maximum — the paper's 100%
        availability SLA provisions for the worst observed window.
        """
        if not 0.0 <= q <= 1.0:
            raise DataError(f"quantile level must be in [0, 1], got {q}")
        if q == 0.0:
            return float(self.values[0])
        index = int(np.searchsorted(self.probabilities, q - 1e-12, side="left"))
        index = min(index, len(self.values) - 1)
        return float(self.values[index])


def ecdf(sample: np.ndarray) -> Ecdf:
    """Build the empirical CDF of ``sample``."""
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise DataError("cannot build an ECDF from an empty sample")
    if np.isnan(sample).any():
        raise DataError("sample contains NaNs")
    sorted_values = np.sort(sample)
    values, counts = np.unique(sorted_values, return_counts=True)
    cumulative = np.cumsum(counts) / sample.size
    return Ecdf(values=values, probabilities=cumulative, n=sample.size)


@dataclass(frozen=True)
class BinSpec:
    """Half-open bins with optional open ends, e.g. Fig 16's <60, 60-65, ...

    Attributes:
        edges: interior edges; bin i covers [edges[i-1], edges[i]), with
            bin 0 = (-inf, edges[0]) and the last bin = [edges[-1], inf).
        labels: human-readable labels, one per bin.
    """

    edges: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.edges) + 1:
            raise DataError(
                f"need {len(self.edges) + 1} labels for {len(self.edges)} edges"
            )
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise DataError("bin edges must be strictly increasing")

    @property
    def n_bins(self) -> int:
        """Number of bins."""
        return len(self.labels)

    def assign(self, values: np.ndarray) -> np.ndarray:
        """Bin index for every value."""
        return np.searchsorted(np.asarray(self.edges), np.asarray(values, dtype=float),
                               side="right")


def make_range_bins(edges: list[float], unit: str = "") -> BinSpec:
    """BinSpec with auto-generated ``<a``, ``a-b``, ``>=b`` labels."""
    if not edges:
        raise DataError("need at least one edge")
    labels = [f"<{edges[0]:g}{unit}"]
    for low, high in zip(edges, edges[1:]):
        labels.append(f"{low:g}-{high:g}{unit}")
    labels.append(f">{edges[-1]:g}{unit}")
    return BinSpec(edges=tuple(edges), labels=tuple(labels))


def binned_mean_sd(
    bin_index: np.ndarray,
    values: np.ndarray,
    n_bins: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, sd, count) of ``values`` per bin.

    Empty bins yield NaN mean/sd and zero count.
    """
    bin_index = np.asarray(bin_index, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    if len(bin_index) != len(values):
        raise DataError("bin_index and values must be aligned")
    means = np.full(n_bins, np.nan)
    sds = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=np.int64)
    for b in range(n_bins):
        mask = bin_index == b
        count = int(mask.sum())
        counts[b] = count
        if count:
            group = values[mask]
            means[b] = group.mean()
            sds[b] = group.std()
    return means, sds, counts


def weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    """Weighted mean with validation."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise DataError("values and weights must be aligned")
    total = weights.sum()
    if total <= 0:
        raise DataError("weights must sum to a positive number")
    return float((values * weights).sum() / total)
