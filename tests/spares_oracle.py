"""Test-only reference Q1 spare sizing: one loop per rack.

:class:`~repro.decisions.availability.SpareSizer` is the one LB/SF/MF
kernel behind Q1-A server spares, Q1-B component pools and spare
pooling.  This module keeps the per-rack loops Q1-B used to run on its
own, with the in-service mask, eligibility and tree parameters it
computed for itself.  Here ``units`` is aligned with ``racks`` (one
entry per listed rack), where the kernel takes a fleet-wide array.

The contract is bit-identity: every fraction the kernel produces equals
its reference here down to the last bit (compared as ``float.hex``).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cart.tree import RegressionTree, TreeParams
from repro.analysis.clustering import clusters_from_tree
from repro.decisions.availability import required_spares, uniform_fraction_for_pool
from repro.errors import DataError
from repro.telemetry.aggregate import rack_static_table


def reference_in_service(result, mu, window_hours):
    """(n_racks, n_windows) bool: window starts after commissioning."""
    arrays = result.fleet.arrays()
    window_start_day = np.arange(mu.shape[1]) * window_hours / 24.0
    return (arrays.commission_day[:, np.newaxis]
            <= window_start_day[np.newaxis, :])


def reference_workload_racks(result, in_service, window_hours, workload,
                             min_service_days=56):
    """Racks of ``workload`` with at least ``min_service_days`` in service."""
    arrays = result.fleet.arrays()
    service_days = in_service.sum(axis=1) * window_hours / 24.0
    eligible = service_days >= min_service_days
    code = arrays.workload_names.index(workload)
    racks = np.flatnonzero((arrays.workload_code == code) & eligible)
    if racks.size == 0:
        raise DataError(f"no eligible racks for workload {workload!r}")
    return racks


def reference_lb(mu, in_service, racks, units, sla):
    """Per-rack oracle fractions for one resource."""
    fractions = np.empty(len(racks))
    for i, rack in enumerate(racks.tolist()):
        samples = mu[rack][in_service[rack]]
        fractions[i] = required_spares(samples, sla, units[i]) / units[i]
    return fractions


def reference_sf(mu, in_service, racks, units, sla):
    """Pooled uniform fraction for one resource."""
    pooled = np.concatenate([
        mu[rack][in_service[rack]] / units[i]
        for i, rack in enumerate(racks.tolist())
    ])
    return uniform_fraction_for_pool(pooled, sla)


def reference_mf(result, mu, in_service, racks, units, sla):
    """Cluster-wise fractions for one resource."""
    requirement = reference_lb(mu, in_service, racks, units, sla)
    static = rack_static_table(result).take(racks)
    matrix, schema = static.feature_matrix(
        ["dc", "region", "sku", "age_months", "rated_power_kw"]
    )
    min_bucket = max(3, len(racks) // 18)
    params = TreeParams(
        max_depth=6, min_split=2 * min_bucket, min_bucket=min_bucket,
        cp=0.004, max_leaves=12,
    )
    tree = RegressionTree(params).fit(matrix, requirement, schema)
    fractions = np.empty(len(racks))
    for cluster in clusters_from_tree(tree, matrix):
        member_rows = cluster.member_rows
        pooled = np.concatenate([
            mu[racks[row]][in_service[racks[row]]] / units[row]
            for row in member_rows.tolist()
        ])
        fractions[member_rows] = uniform_fraction_for_pool(pooled, sla)
    return fractions


def reference_shared_pool(mu, in_service, racks, capacity, sla):
    """One pool for ``racks``: the worst summed in-service window."""
    pooled = np.where(in_service, mu, 0)[racks].sum(axis=0)
    return float(max(0.0, pooled.max() - sla.shortfall * capacity))
