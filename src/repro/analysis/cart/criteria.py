"""Split-quality criteria for CART.

The paper's trees are regression trees over failure metrics (λ, μ), so
the primary criterion is within-node variance (sum of squared errors);
Gini impurity is provided for classification uses ("'Best' is
characterized using metrics such as Gini Impurity", §V-C).

All criteria support sample weights so analyses can weight racks by
capacity or rack-days by exposure.
"""

from __future__ import annotations

import numpy as np

from ...errors import DataError


def node_sse(y: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Weighted sum of squared errors around the (weighted) mean."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise DataError("cannot compute SSE of an empty node")
    if weights is None:
        mean = y.mean()
        return float(((y - mean) ** 2).sum())
    weights = np.asarray(weights, dtype=float)
    if weights.shape != y.shape:
        raise DataError("weights must align with y")
    total = weights.sum()
    if total <= 0:
        raise DataError("weights must sum to a positive number")
    mean = float((weights * y).sum() / total)
    return float((weights * (y - mean) ** 2).sum())


def node_mean(y: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Weighted mean of a node's response."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise DataError("cannot compute the mean of an empty node")
    if weights is None:
        return float(y.mean())
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0:
        raise DataError("weights must sum to a positive number")
    return float((weights * y).sum() / total)


def gini_impurity(labels: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Weighted Gini impurity of an integer-label sample."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DataError("cannot compute Gini of an empty node")
    if weights is None:
        weights = np.ones(labels.shape)
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0:
        raise DataError("weights must sum to a positive number")
    impurity = 1.0
    for label in np.unique(labels):
        p = float(weights[labels == label].sum() / total)
        impurity -= p * p
    return impurity


def prefix_sums(
    y_sorted: np.ndarray,
    weights_sorted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running ``(Σw, Σwy, Σwy²)`` over rows in scan order."""
    wy = weights_sorted * y_sorted
    return np.cumsum(weights_sorted), np.cumsum(wy), np.cumsum(wy * y_sorted)


def split_sse(
    sums: tuple[np.ndarray, np.ndarray, np.ndarray],
    at: np.ndarray | slice,
) -> tuple[np.ndarray, np.ndarray]:
    """SSE of (left, right) partitions when rows ``0..i`` go left, for
    each ``i`` in ``at``, from :func:`prefix_sums`.

    Uses the identity ``SSE = Σ w y² − (Σ w y)² / Σ w``; the right side's
    sums are the totals minus the left side's.
    """
    cw, cwy, cwy2 = sums
    left_w, left_wy, left_wy2 = cw[at], cwy[at], cwy2[at]
    right_w = cw[-1] - left_w
    right_wy = cwy[-1] - left_wy
    right_wy2 = cwy2[-1] - left_wy2

    with np.errstate(divide="ignore", invalid="ignore"):
        left_sse = left_wy2 - np.where(left_w > 0, left_wy**2 / left_w, 0.0)
        right_sse = right_wy2 - np.where(right_w > 0, right_wy**2 / right_w, 0.0)
    # Numerical noise can push tiny SSEs slightly negative.
    return np.maximum(left_sse, 0.0), np.maximum(right_sse, 0.0)
