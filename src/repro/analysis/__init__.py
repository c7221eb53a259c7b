"""Analysis framework: CART, partial dependence, SF and MF models."""

from .cart import (
    Node,
    PruneStep,
    RegressionTree,
    Split,
    TreeParams,
    cross_validated_alpha,
    describe_path,
    gini_impurity,
    node_mean,
    node_sse,
    permutation_importance,
    prune,
    prune_sequence,
    render_tree,
)
from .clustering import Cluster, clusters_from_tree
from .formula import Formula, Term, parse_formula
from .multi_factor import MultiFactorModel
from .prediction import (
    FailurePredictor,
    PredictionMetrics,
    build_prediction_dataset,
    roc_auc,
    time_split,
)
from .partial_dependence import (
    PartialDependence,
    partial_dependence,
    partial_dependence_2d,
)
from .single_factor import FactorLevelStats, SingleFactorModel

__all__ = [
    "Cluster",
    "FactorLevelStats",
    "FailurePredictor",
    "Formula",
    "MultiFactorModel",
    "Node",
    "PartialDependence",
    "PredictionMetrics",
    "PruneStep",
    "RegressionTree",
    "SingleFactorModel",
    "Split",
    "Term",
    "TreeParams",
    "build_prediction_dataset",
    "clusters_from_tree",
    "cross_validated_alpha",
    "describe_path",
    "gini_impurity",
    "node_mean",
    "node_sse",
    "parse_formula",
    "partial_dependence",
    "partial_dependence_2d",
    "permutation_importance",
    "prune",
    "prune_sequence",
    "render_tree",
    "roc_auc",
    "time_split",
]
