"""Regression-tree construction (the rpart-style core of the MF framework).

"A CART tree is formed by a collection of rules that best split the
data set ... The splitting process is recursive and performed in a
top-down manner and stops when no further gain can be made or pre-set
stopping rules are met." (§V-C)

Stopping rules mirror rpart's: ``min_split`` (don't attempt to split
smaller nodes), ``min_bucket`` (children must keep at least this many
rows), ``max_depth``, and ``cp`` (a split must reduce the root's SSE by
at least ``cp`` relative — rpart's complexity parameter).

Growth is presorted (the rpart/sklearn idiom): each feature is sorted
once per fit, and splitting a node stably partitions those sorted row
indices, so every node scans its rows in the order a stable sort of its
own rows would give — ties in training-row order, NaN last.  The search
arithmetic is therefore the same at every node as sorting afresh there,
and the fitted trees are bit-identical to the per-node search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import DataError, FitError
from ...telemetry.schema import FeatureSpec, Schema
from .criteria import node_mean, node_sse
from .splitter import Split, split_sorted_rows


@dataclass(frozen=True)
class TreeParams:
    """Growth-control parameters (rpart naming).

    Attributes:
        max_depth: maximum node depth (root = 0).
        min_split: smallest node the builder will try to split.
        min_bucket: smallest allowed child node.
        cp: complexity parameter — minimum SSE reduction as a fraction
            of the root SSE for a split to be kept.
        max_leaves: optional hard cap on leaf count (None = unlimited).
    """

    max_depth: int = 8
    min_split: int = 20
    min_bucket: int = 7
    cp: float = 0.01
    max_leaves: int | None = None

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise DataError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_split < 2:
            raise DataError(f"min_split must be >= 2, got {self.min_split}")
        if self.min_bucket < 1:
            raise DataError(f"min_bucket must be >= 1, got {self.min_bucket}")
        if not 0.0 <= self.cp < 1.0:
            raise DataError(f"cp must be in [0, 1), got {self.cp}")
        if self.max_leaves is not None and self.max_leaves < 1:
            raise DataError(f"max_leaves must be >= 1, got {self.max_leaves}")


@dataclass
class Node:
    """One tree node.

    Attributes:
        node_id: stable integer id (breadth-ordered assignment).
        depth: distance from the root.
        n: training rows reaching this node.
        weight: total training weight reaching this node.
        prediction: (weighted) mean response.
        sse: weighted SSE of the node's response.
        split: fitted split, or None for a leaf.
        left / right: child nodes (None for leaves).
    """

    node_id: int
    depth: int
    n: int
    weight: float
    prediction: float
    sse: float
    split: Split | None = None
    left: "Node | None" = None
    right: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        """True when the node has no split."""
        return self.split is None

    def leaves(self) -> list["Node"]:
        """All leaf descendants (self if a leaf), left-to-right."""
        if self.is_leaf:
            return [self]
        assert self.left is not None and self.right is not None
        return self.left.leaves() + self.right.leaves()

    def internal_nodes(self) -> list["Node"]:
        """All non-leaf descendants including self if internal."""
        if self.is_leaf:
            return []
        assert self.left is not None and self.right is not None
        return [self] + self.left.internal_nodes() + self.right.internal_nodes()

    def subtree_sse(self) -> float:
        """Total SSE over the subtree's leaves."""
        return sum(leaf.sse for leaf in self.leaves())


class RegressionTree:
    """A fitted CART regression tree.

    Usage::

        tree = RegressionTree(params).fit(matrix, y, schema)
        predictions = tree.predict(matrix)
        leaf_ids = tree.apply(matrix)
    """

    def __init__(self, params: TreeParams | None = None):
        self.params = params or TreeParams()
        self.root: Node | None = None
        self.schema: Schema | None = None
        self.n_samples: int = 0
        self._importance_raw: dict[str, float] = {}

    # -- fitting ----------------------------------------------------------

    def fit(
        self,
        matrix: np.ndarray,
        y: np.ndarray,
        schema: Schema,
        sample_weight: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Grow the tree; returns self.

        Args:
            matrix: (n_rows, n_features) floats; categorical columns hold
                integer codes.
            y: response vector.
            schema: feature specs, aligned with matrix columns.
            sample_weight: optional per-row weights.
        """
        matrix = np.asarray(matrix, dtype=float)
        y = np.asarray(y, dtype=float)
        if matrix.ndim != 2:
            raise FitError(f"matrix must be 2-D, got shape {matrix.shape}")
        if len(y) != matrix.shape[0]:
            raise FitError(f"{len(y)} responses for {matrix.shape[0]} rows")
        if matrix.shape[1] != len(schema):
            raise FitError(f"{matrix.shape[1]} columns but schema has {len(schema)}")
        if len(y) == 0:
            raise FitError("cannot fit a tree on zero rows")
        if not np.isfinite(y).all():
            raise FitError(
                "response contains NaN/inf values; fill or drop them first"
            )
        # NaNs in the feature matrix are allowed: the splitter learns a
        # default direction per split (Split.nan_goes_left).
        weights = (np.ones(len(y)) if sample_weight is None
                   else np.asarray(sample_weight, dtype=float))
        if weights.shape != y.shape:
            raise FitError("sample_weight must align with y")
        if (weights < 0).any() or weights.sum() <= 0:
            raise FitError("sample weights must be non-negative with positive sum")

        self.schema = schema
        self.n_samples = len(y)
        grower = _Grower(matrix, y, weights, list(schema), self.params)
        self.root = grower.grow(0, len(y), depth=0)
        self._importance_raw = grower.importance
        return self

    # -- inference ----------------------------------------------------------

    def _require_fitted(self) -> Node:
        if self.root is None:
            raise FitError("tree is not fitted")
        return self.root

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        """Leaf-mean prediction for each row."""
        root = self._require_fitted()
        matrix = np.asarray(matrix, dtype=float)
        output = np.empty(matrix.shape[0])
        self._route(root, matrix, np.arange(matrix.shape[0]), output, as_leaf_id=False)
        return output

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        """Leaf node-id for each row (cluster assignment)."""
        root = self._require_fitted()
        matrix = np.asarray(matrix, dtype=float)
        output = np.empty(matrix.shape[0])
        self._route(root, matrix, np.arange(matrix.shape[0]), output, as_leaf_id=True)
        return output.astype(np.int64)

    def _route(
        self,
        node: Node,
        matrix: np.ndarray,
        rows: np.ndarray,
        output: np.ndarray,
        as_leaf_id: bool,
    ) -> None:
        if node.is_leaf:
            output[rows] = node.node_id if as_leaf_id else node.prediction
            return
        assert node.split is not None and node.left is not None and node.right is not None
        go_left = node.split.goes_left(matrix[rows, node.split.feature_index])
        self._route(node.left, matrix, rows[go_left], output, as_leaf_id)
        self._route(node.right, matrix, rows[~go_left], output, as_leaf_id)

    # -- introspection ----------------------------------------------------

    @property
    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        return len(self._require_fitted().leaves())

    def leaves(self) -> list[Node]:
        """All leaves, left-to-right."""
        return self._require_fitted().leaves()

    def decision_path(self, leaf_id: int) -> list[tuple[Split, bool]]:
        """(split, went_left) pairs from the root to the given leaf."""
        root = self._require_fitted()
        path: list[tuple[Split, bool]] = []

        def descend(node: Node) -> bool:
            if node.node_id == leaf_id:
                return True
            if node.is_leaf:
                return False
            assert node.split is not None and node.left is not None and node.right is not None
            path.append((node.split, True))
            if descend(node.left):
                return True
            path[-1] = (node.split, False)
            if descend(node.right):
                return True
            path.pop()
            return False

        if not descend(root):
            raise DataError(f"no node with id {leaf_id}")
        return path

    def importance(self) -> dict[str, float]:
        """Relative variable importance (gain share per feature).

        Note: as the paper's §V-C footnote warns, correlated/redundant
        factors share importance in CART; interpret jointly.
        """
        self._require_fitted()
        total = sum(self._importance_raw.values())
        if total <= 0:
            return {}
        ranked = sorted(self._importance_raw.items(), key=lambda kv: -kv[1])
        return {name: gain / total for name, gain in ranked}

    def rebuild_importance(self) -> None:
        """Recompute gain-based importance from the current structure.

        Needed after pruning, which removes splits.
        """
        root = self._require_fitted()
        raw: dict[str, float] = {}
        for node in root.internal_nodes():
            assert node.split is not None
            raw[node.split.feature_name] = raw.get(node.split.feature_name, 0.0) \
                + node.split.gain
        self._importance_raw = raw


class _Grower:
    """One fit's growth state (discarded once the tree is grown).

    ``order[f]`` holds every training row in stable ascending order of
    feature ``f`` (NaN last); the last row of ``order`` holds them in
    training order.  A node owns one ``[start, end)`` slice of every row
    of ``order``, and splitting it stably partitions those slices in
    place, so each child's slices stay sorted.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        y: np.ndarray,
        weights: np.ndarray,
        specs: list[FeatureSpec],
        params: TreeParams,
    ):
        n_rows, n_features = matrix.shape
        self.order = np.empty(
            (n_features + 1, n_rows),
            dtype=np.int32 if n_rows < 2**31 else np.intp,
        )
        for index in range(n_features):
            self.order[index] = np.argsort(matrix[:, index], kind="stable")
        self.order[n_features] = np.arange(n_rows)
        self.went_left = np.empty(n_rows, dtype=bool)
        self.matrix = matrix
        self.y = y
        self.weights = weights
        self.specs = specs
        self.params = params
        self.root_sse = max(node_sse(y, weights), 1e-300)
        self.next_id = 0
        self.n_leaves = 1
        self.importance: dict[str, float] = {}

    def grow(self, start: int, end: int, depth: int) -> Node:
        """Grow the subtree over the rows in ``[start, end)``."""
        node = self._node(start, end, depth)
        params = self.params
        if (depth >= params.max_depth or node.n < params.min_split
                or node.sse <= 1e-12):
            return node
        if params.max_leaves is not None and self.n_leaves >= params.max_leaves:
            return node

        split = self._best_split(start, end)
        if split is None or split.gain < params.cp * self.root_sse:
            return node

        n_left = self._partition(start, end, split)
        node.split = split
        self.n_leaves += 1  # splitting one leaf nets one extra leaf
        self.importance[split.feature_name] = (
            self.importance.get(split.feature_name, 0.0) + split.gain
        )
        node.left = self.grow(start, start + n_left, depth + 1)
        node.right = self.grow(start + n_left, end, depth + 1)
        return node

    def _node(self, start: int, end: int, depth: int) -> Node:
        """A leaf over the rows in ``[start, end)``, its statistics taken
        in training-row order."""
        rows = self.order[-1, start:end]
        y, weights = self.y[rows], self.weights[rows]
        node = Node(
            node_id=self.next_id,
            depth=depth,
            n=end - start,
            weight=float(weights.sum()),
            prediction=node_mean(y, weights),
            sse=node_sse(y, weights),
        )
        self.next_id += 1
        return node

    def _best_split(self, start: int, end: int) -> Split | None:
        """Best split across all features (the CART greedy step)."""
        rows = self.order[-1, start:end]
        best: Split | None = None
        for index, spec in enumerate(self.specs):
            candidate = split_sorted_rows(
                self.order[index, start:end], self.matrix[:, index],
                self.y, self.weights, spec, index, self.params.min_bucket, rows,
            )
            if candidate is None:
                continue
            if best is None or candidate.gain > best.gain:
                best = candidate
        return best

    def _partition(self, start: int, end: int, split: Split) -> int:
        """Stably move the split's left rows to the front of every slice;
        returns how many went left."""
        rows = self.order[-1, start:end]
        go_left = split.goes_left(self.matrix[rows, split.feature_index])
        self.went_left[rows] = go_left
        n_left = int(go_left.sum())
        for sorted_rows in self.order[:, start:end]:
            left = self.went_left[sorted_rows]
            lefts, rights = np.compress(left, sorted_rows), np.compress(~left, sorted_rows)
            sorted_rows[:n_left] = lefts
            sorted_rows[n_left:] = rights
        return n_left
