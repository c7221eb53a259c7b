"""Test-only reference CART grower: the per-node search.

:class:`~repro.analysis.cart.tree.RegressionTree` sorts each feature
once per fit and grows the tree by stably partitioning those presorted
row indices.  This module keeps the straightforward definition it is
checked against: every node holds its own rows (in training-row order),
and every feature is re-sorted at every node with a stable argsort;
nominal codes are ranked through a per-row dict lookup.

The contract is bit-identity: :func:`reference_fit` and
``RegressionTree.fit`` must produce the same nodes, splits, gains and
importances down to the last bit, which :func:`tree_fields` exposes as
``float.hex`` strings for comparison.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis.cart.criteria import node_mean, node_sse
from repro.analysis.cart.splitter import Split
from repro.analysis.cart.tree import Node, RegressionTree, TreeParams
from repro.telemetry.schema import FeatureKind, FeatureSpec, Schema


def sse_split_scan(y_sorted, weights_sorted):
    """(left_sse, right_sse) for every prefix split point, from full arrays."""
    y = np.asarray(y_sorted, dtype=float)
    w = np.asarray(weights_sorted, dtype=float)
    wy = w * y
    wy2 = w * y * y
    cw = np.cumsum(w)
    cwy = np.cumsum(wy)
    cwy2 = np.cumsum(wy2)

    total_w, total_wy, total_wy2 = cw[-1], cwy[-1], cwy2[-1]
    left_w = cw[:-1]
    left_wy = cwy[:-1]
    left_wy2 = cwy2[:-1]
    right_w = total_w - left_w
    right_wy = total_wy - left_wy
    right_wy2 = total_wy2 - left_wy2

    with np.errstate(divide="ignore", invalid="ignore"):
        left_sse = left_wy2 - np.where(left_w > 0, left_wy**2 / left_w, 0.0)
        right_sse = right_wy2 - np.where(right_w > 0, right_wy**2 / right_w, 0.0)
    return np.maximum(left_sse, 0.0), np.maximum(right_sse, 0.0)


def _scan_ordered(order_values, y, weights, min_bucket):
    """(gain, threshold, split position) of the best threshold, or None."""
    order = np.argsort(order_values, kind="stable")
    x_sorted = order_values[order]
    y_sorted = y[order]
    w_sorted = weights[order]
    n = len(y_sorted)
    if n < 2 * min_bucket:
        return None

    left_sse, right_sse = sse_split_scan(y_sorted, w_sorted)
    split_sse = left_sse + right_sse

    positions = np.arange(1, n)
    valid = (positions >= min_bucket) & (n - positions >= min_bucket)
    valid &= x_sorted[1:] != x_sorted[:-1]
    if not valid.any():
        return None

    candidate_sse = np.where(valid, split_sse, np.inf)
    best = int(np.argmin(candidate_sse))
    parent_sse = node_sse(y_sorted, w_sorted)
    gain = parent_sse - float(candidate_sse[best])
    if not np.isfinite(gain) or gain <= 0:
        return None
    threshold = float((x_sorted[best] + x_sorted[best + 1]) / 2.0)
    return gain, threshold, best + 1


def best_split_for_feature(values, y, weights, spec: FeatureSpec,
                           feature_index: int, min_bucket: int) -> Split | None:
    """Best split on one feature over one node's rows, or None."""
    missing = np.isnan(values)
    if missing.any():
        observed = ~missing
        if observed.sum() < 2 * min_bucket:
            return None
        split = best_split_for_feature(
            values[observed], y[observed], weights[observed],
            spec, feature_index, min_bucket,
        )
        if split is None:
            return None
        return _with_nan_direction(split, values, y, weights)

    if spec.kind in (FeatureKind.CONTINUOUS, FeatureKind.ORDINAL):
        scanned = _scan_ordered(values, y, weights, min_bucket)
        if scanned is None:
            return None
        gain, threshold, position = scanned
        return Split(
            feature_index=feature_index, feature_name=spec.name,
            kind=spec.kind, gain=gain, threshold=threshold,
            n_left=position, n_right=len(y) - position,
        )

    codes = values.astype(np.int64)
    unique = np.unique(codes)
    if len(unique) < 2:
        return None
    means = np.empty(len(unique))
    for i, code in enumerate(unique):
        mask = codes == code
        w = weights[mask]
        means[i] = (w * y[mask]).sum() / w.sum()
    category_rank = {int(code): float(rank)
                     for rank, code in zip(np.argsort(np.argsort(means)), unique)}
    ranked = np.array([category_rank[int(code)] for code in codes])

    scanned = _scan_ordered(ranked, y, weights, min_bucket)
    if scanned is None:
        return None
    gain, threshold, position = scanned
    left_codes = frozenset(
        int(code) for code in unique if category_rank[int(code)] <= threshold
    )
    return Split(
        feature_index=feature_index, feature_name=spec.name, kind=spec.kind,
        gain=gain, left_categories=left_codes,
        n_left=position, n_right=len(y) - position,
    )


def _with_nan_direction(split: Split, values, y, weights) -> Split:
    """Pick the NaN default direction and restate the full-node gain."""
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


def best_split(matrix, y, weights, specs, min_bucket: int) -> Split | None:
    """Best split across all features (first feature wins gain ties)."""
    best: Split | None = None
    for index, spec in enumerate(specs):
        candidate = best_split_for_feature(
            matrix[:, index], y, weights, spec, index, min_bucket
        )
        if candidate is None:
            continue
        if best is None or candidate.gain > best.gain:
            best = candidate
    return best


def reference_fit(
    matrix: np.ndarray,
    y: np.ndarray,
    schema: Schema,
    params: TreeParams | None = None,
    sample_weight: np.ndarray | None = None,
) -> RegressionTree:
    """Grow a tree with the per-node search; returns a fitted tree."""
    params = params or TreeParams()
    matrix = np.asarray(matrix, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = (np.ones(len(y)) if sample_weight is None
               else np.asarray(sample_weight, dtype=float))
    specs = list(schema)
    root_sse = max(node_sse(y, weights), 1e-300)
    importance: dict[str, float] = {}
    next_id = 0
    n_leaves = 1

    def grow(matrix, y, weights, depth):
        nonlocal next_id, n_leaves
        node = Node(
            node_id=next_id, depth=depth, n=len(y),
            weight=float(weights.sum()),
            prediction=node_mean(y, weights),
            sse=node_sse(y, weights),
        )
        next_id += 1
        if (depth >= params.max_depth or node.n < params.min_split
                or node.sse <= 1e-12):
            return node
        if params.max_leaves is not None and n_leaves >= params.max_leaves:
            return node
        split = best_split(matrix, y, weights, specs, params.min_bucket)
        if split is None or split.gain < params.cp * root_sse:
            return node
        go_left = split.goes_left(matrix[:, split.feature_index])
        node.split = split
        n_leaves += 1
        importance[split.feature_name] = (
            importance.get(split.feature_name, 0.0) + split.gain
        )
        node.left = grow(matrix[go_left], y[go_left], weights[go_left], depth + 1)
        node.right = grow(matrix[~go_left], y[~go_left], weights[~go_left], depth + 1)
        return node

    tree = RegressionTree(params)
    tree.schema = schema
    tree.n_samples = len(y)
    tree.root = grow(matrix, y, weights, 0)
    tree._importance_raw = importance
    return tree


def tree_fields(tree: RegressionTree) -> list[tuple]:
    """Every fitted field of ``tree``, floats as ``float.hex``, in node-id order."""
    fields: list[tuple] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        split = node.split
        fields.append((
            node.node_id, node.depth, node.n, float(node.weight).hex(),
            float(node.prediction).hex(), float(node.sse).hex(),
        ) + (() if split is None else (
            split.feature_index, split.feature_name, split.kind.value,
            None if split.threshold is None else float(split.threshold).hex(),
            None if split.left_categories is None else tuple(sorted(split.left_categories)),
            split.nan_goes_left, float(split.gain).hex(), split.n_left, split.n_right,
        )))
        if split is not None:
            stack.extend((node.right, node.left))
    fields.append(tuple(
        (name, float(share).hex()) for name, share in tree._importance_raw.items()
    ))
    return fields
