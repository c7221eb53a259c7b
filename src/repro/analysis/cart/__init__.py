"""CART from scratch: criteria, splitter, tree, pruning, rendering."""

from .criteria import gini_impurity, node_mean, node_sse
from .export import describe_path, render_tree
from .importance import permutation_importance
from .prune import PruneStep, cross_validated_alpha, prune, prune_sequence
from .splitter import Split, best_split_for_feature
from .tree import Node, RegressionTree, TreeParams

__all__ = [
    "Node",
    "PruneStep",
    "RegressionTree",
    "Split",
    "TreeParams",
    "best_split_for_feature",
    "cross_validated_alpha",
    "describe_path",
    "gini_impurity",
    "node_mean",
    "node_sse",
    "permutation_importance",
    "prune",
    "prune_sequence",
    "render_tree",
]
