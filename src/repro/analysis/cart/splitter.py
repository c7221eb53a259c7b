"""Best-split search over mixed-type features.

CART's split language differs by feature kind (Table III's C/N/O):

* **continuous / ordinal** — threshold splits ``x <= t``; candidates lie
  between consecutive distinct values in sort order.
* **nominal** — category-subset splits ``x ∈ S``.  Searching all 2^k
  subsets is exponential, but for a one-dimensional response the optimal
  binary partition orders categories by their mean response and scans
  that ordering (Fisher 1958; Breiman et al. 1984, thm 4.5) — O(k log k)
  instead of O(2^k).

All scans are weighted-SSE based (regression CART, as the paper uses
for λ/μ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import DataError
from ...telemetry.schema import FeatureKind, FeatureSpec
from .criteria import node_sse, prefix_sums, split_sse


@dataclass(frozen=True)
class Split:
    """A fitted binary split.

    Attributes:
        feature_index: column index into the fitted feature matrix.
        feature_name: column name (for rendering and PD traversal).
        kind: the feature's kind, which fixes the split semantics.
        threshold: for continuous/ordinal — rows go left iff
            ``x <= threshold``.
        left_categories: for nominal — rows go left iff their code is in
            this frozenset.
        gain: SSE reduction achieved by the split.
        n_left / n_right: row counts sent each way at fit time.
        nan_goes_left: learned default direction for missing values —
            rows with NaN in this feature follow it (chosen at fit time
            as the direction that reduced SSE more, as in gradient-
            boosting trees).
    """

    feature_index: int
    feature_name: str
    kind: FeatureKind
    gain: float
    n_left: int
    n_right: int
    threshold: float | None = None
    left_categories: frozenset[int] | None = None
    nan_goes_left: bool = True

    def __post_init__(self) -> None:
        if self.kind == FeatureKind.NOMINAL:
            if self.left_categories is None:
                raise DataError(f"nominal split on {self.feature_name} needs categories")
        elif self.threshold is None:
            raise DataError(f"threshold split on {self.feature_name} needs a threshold")

    def goes_left(self, values: np.ndarray) -> np.ndarray:
        """Boolean routing mask for a column of feature values.

        Missing values (NaN) follow the learned default direction.
        """
        values = np.asarray(values, dtype=float)
        missing = np.isnan(values)
        if self.kind == FeatureKind.NOMINAL:
            assert self.left_categories is not None
            filled = np.where(missing, 0.0, values)
            routed = np.isin(filled.astype(np.int64), list(self.left_categories))
        else:
            assert self.threshold is not None
            with np.errstate(invalid="ignore"):
                routed = values <= self.threshold
        if missing.any():
            routed = np.where(missing, self.nan_goes_left, routed)
        return routed.astype(bool)

    def describe(self, spec: FeatureSpec | None = None) -> str:
        """Human-readable left-branch condition."""
        if self.kind == FeatureKind.NOMINAL:
            assert self.left_categories is not None
            codes = sorted(self.left_categories)
            if spec is not None and spec.categories is not None:
                labels = [spec.decode(code) for code in codes]
            else:
                labels = [str(code) for code in codes]
            return f"{self.feature_name} in {{{', '.join(labels)}}}"
        assert self.threshold is not None
        if spec is not None and spec.categories is not None:
            # Ordinal: render the threshold as its category label.
            code = int(np.floor(self.threshold))
            code = max(0, min(code, len(spec.categories) - 1))
            return f"{self.feature_name} <= {spec.decode(code)}"
        return f"{self.feature_name} <= {self.threshold:.4g}"


def _scan_ordered(
    x_sorted: np.ndarray,
    y_sorted: np.ndarray,
    w_sorted: np.ndarray,
    min_bucket: int,
) -> tuple[float, float, int] | None:
    """Best threshold over rows already in stable ascending order of ``x_sorted``.

    Returns (gain_sse_drop, threshold, split_position) or None when no
    legal split exists.  ``threshold`` is the midpoint between the two
    straddling distinct values.
    """
    n = len(y_sorted)
    if n < 2 * min_bucket:
        return None

    # Legal cuts fall after index i for lo <= i < hi (at least min_bucket
    # rows each side) and must separate distinct values; only those are
    # scored.
    lo, hi = min_bucket - 1, n - min_bucket
    at = lo + np.flatnonzero(x_sorted[lo + 1:hi + 1] != x_sorted[lo:hi])
    if len(at) == 0:
        return None

    left_sse, right_sse = split_sse(prefix_sums(y_sorted, w_sorted), at)
    candidate_sse = left_sse + right_sse
    first_best = int(np.argmin(candidate_sse))
    best = int(at[first_best])
    parent_sse = node_sse(y_sorted, w_sorted)
    gain = parent_sse - float(candidate_sse[first_best])
    if not np.isfinite(gain) or gain <= 0:
        return None
    threshold = float((x_sorted[best] + x_sorted[best + 1]) / 2.0)
    return gain, threshold, best + 1


def _split_observed(
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    spec: FeatureSpec,
    feature_index: int,
    min_bucket: int,
) -> Split | None:
    """Best split over NaN-free rows in stable ascending order of ``x``."""
    if spec.kind in (FeatureKind.CONTINUOUS, FeatureKind.ORDINAL):
        scanned = _scan_ordered(x, y, weights, min_bucket)
        if scanned is None:
            return None
        gain, threshold, position = scanned
        return Split(
            feature_index=feature_index,
            feature_name=spec.name,
            kind=spec.kind,
            gain=gain,
            threshold=threshold,
            n_left=position,
            n_right=len(y) - position,
        )

    # Nominal: order categories by weighted mean response, then treat the
    # rank as an ordered variable (optimal for binary SSE partitions).
    # Sorted by code, each category is one run of rows in training order.
    codes = x.astype(np.int64)
    bounds = [0, *(np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist(), len(codes)]
    runs = list(zip(bounds[:-1], bounds[1:]))
    if len(runs) < 2:
        return None
    weighted = weights * y
    means = np.array([weighted[start:end].sum() / weights[start:end].sum()
                      for start, end in runs])
    rank = np.argsort(np.argsort(means))
    # Rank order of the rows, categories' runs kept in training order:
    # what a stable sort of the rows by their category's rank gives.
    by_rank = [runs[g] for g in np.argsort(rank)]
    order = np.concatenate([np.arange(start, end) for start, end in by_rank])
    ranked = np.repeat(np.arange(len(runs), dtype=float),
                       [end - start for start, end in by_rank])

    scanned = _scan_ordered(ranked, y[order], weights[order], min_bucket)
    if scanned is None:
        return None
    gain, threshold, position = scanned
    left_codes = frozenset(
        int(codes[start]) for (start, _), r in zip(runs, rank) if r <= threshold
    )
    return Split(
        feature_index=feature_index,
        feature_name=spec.name,
        kind=spec.kind,
        gain=gain,
        left_categories=left_codes,
        n_left=position,
        n_right=len(y) - position,
    )


def split_sorted_rows(
    rows: np.ndarray,
    column: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    spec: FeatureSpec,
    feature_index: int,
    min_bucket: int,
    node_rows: np.ndarray,
) -> Split | None:
    """Best split on one feature over one node's rows, or None.

    Args:
        rows: the node's row indices in stable ascending order of
            ``column`` (ties in ascending row order, NaN last).
        column: the feature's values for every row.
        y / weights: response and sample weights for every row.
        spec: the feature's schema entry (drives split semantics).
        feature_index: position of this column in the feature matrix.
        min_bucket: minimum rows per child (rpart's ``minbucket``).
        node_rows: the same rows in ascending order; the NaN default
            direction is scored over them.

    Missing values: the split is searched on the observed rows, then the
    default direction that reduces SSE more is learned (see
    :class:`Split`).  NaN sorts last, so the observed rows are a prefix
    of ``rows``.
    """
    if len(rows) < 2 * min_bucket:
        return None
    rows = rows.astype(np.intp, copy=False)
    x = column[rows]
    n_observed = len(x) - int(np.isnan(x).sum()) if np.isnan(x[-1]) else len(x)
    if n_observed < 2 * min_bucket:
        return None
    observed = rows[:n_observed]
    split = _split_observed(
        x[:n_observed], y[observed], weights[observed],
        spec, feature_index, min_bucket,
    )
    if split is None or n_observed == len(x):
        return split
    return _with_nan_direction(
        split, column[node_rows], y[node_rows], weights[node_rows],
    )


def best_split_for_feature(
    values: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    spec: FeatureSpec,
    feature_index: int,
    min_bucket: int,
) -> Split | None:
    """Best SSE-reducing split on one feature, or None.

    Args:
        values: the feature column (codes for categorical features).
        y: response.
        weights: sample weights.
        spec: the feature's schema entry (drives split semantics).
        feature_index: position of this column in the feature matrix.
        min_bucket: minimum rows per child (rpart's ``minbucket``).
    """
    values = np.asarray(values, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not (len(values) == len(y) == len(weights)):
        raise DataError("values/y/weights must be aligned")
    if min_bucket < 1:
        raise DataError(f"min_bucket must be >= 1, got {min_bucket}")
    return split_sorted_rows(
        np.argsort(values, kind="stable"), values, y, weights,
        spec, feature_index, min_bucket, np.arange(len(values)),
    )


def _with_nan_direction(
    split: Split,
    values: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
) -> Split:
    """Pick the NaN default direction and restate the split's full-node gain."""
    from dataclasses import replace

    parent = node_sse(y, weights)
    best: Split | None = None
    best_total = np.inf
    for nan_left in (True, False):
        candidate = replace(split, nan_goes_left=nan_left)
        go_left = candidate.goes_left(values)
        if go_left.all() or not go_left.any():
            continue
        total = (node_sse(y[go_left], weights[go_left])
                 + node_sse(y[~go_left], weights[~go_left]))
        if total < best_total:
            best_total = total
            best = replace(
                candidate,
                gain=parent - total,
                n_left=int(go_left.sum()),
                n_right=int((~go_left).sum()),
            )
    if best is None or best.gain <= 0:
        return replace(split, gain=0.0)
    return best
