"""Leaf clusters: turning a fitted tree into groups of racks.

§V-C: "a grouping of the population will be reached ... the CART tree
would consider the different features that would best describe the
resulting failure rates for a group of racks, creating branches
accordingly and dynamically figuring out both the number of groups as
well as the racks within each group."

A :class:`Cluster` is one leaf of a rack-level tree: the racks routed to
it, the leaf's mean response, and the human-readable path that defines
the group (the "additional insights" of §VI-Q1, e.g. "age, power rating
and SKU type are the key factors in the formation of the storage
workload clusters").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, FitError
from .cart.export import describe_path
from .cart.tree import RegressionTree


@dataclass(frozen=True)
class Cluster:
    """One rack group discovered by the MF model.

    Attributes:
        cluster_id: the underlying leaf's node id.
        member_rows: row indices (into the fitted table) of members.
        prediction: the leaf's mean response.
        description: conjunction of split conditions defining the group.
    """

    cluster_id: int
    member_rows: np.ndarray
    prediction: float
    description: str

    @property
    def size(self) -> int:
        """Number of member rows."""
        return len(self.member_rows)


def clusters_from_tree(
    tree: RegressionTree,
    matrix: np.ndarray,
) -> list[Cluster]:
    """Materialize every leaf of ``tree`` as a :class:`Cluster`.

    Clusters are ordered by ascending prediction (calm groups first),
    matching how Fig 11 orders its per-cluster CDFs.
    """
    if tree.root is None:
        raise FitError("tree is not fitted")
    matrix = np.asarray(matrix, dtype=float)
    leaf_ids = tree.apply(matrix)
    clusters: list[Cluster] = []
    for leaf in tree.leaves():
        member_rows = np.flatnonzero(leaf_ids == leaf.node_id)
        if member_rows.size == 0:
            continue
        clusters.append(Cluster(
            cluster_id=leaf.node_id,
            member_rows=member_rows,
            prediction=leaf.prediction,
            description=describe_path(tree, leaf.node_id),
        ))
    if not clusters:
        raise DataError("tree routed no rows to any leaf")
    clusters.sort(key=lambda cluster: cluster.prediction)
    return clusters
