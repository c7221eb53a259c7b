"""Q1-A: server spare provisioning — LB, SF and MF approaches.

§VI-Q1 compares three ways to size per-rack server spares against an
availability SLA:

* **LB (lower bound)** — pretend each rack's own future μ distribution
  was known before deployment and provision exactly its SLA quantile.
  Not realizable; the floor every practical approach is measured against.
* **SF (single factor)** — pool the μ/capacity fractions of *all* racks
  of the workload and apply the pooled SLA quantile uniformly to every
  rack ("a conservative one-size-fits-all provisioning").
* **MF (multi factor)** — CART-cluster the racks on deployment-time
  features (DC, region, SKU, age, power, ...), pool μ within each
  cluster, and provision each cluster its own fraction.  New racks are
  provisioned by the cluster they fall into.

The headline reproduction targets: MF is well under half of SF at the
100% SLA and close to LB (Fig 10); MF finds ~10 clusters spanning
2-50% for the compute workload W1 and ~5 clusters spanning 2-85% for
the storage workload W6 (Fig 11); moving from daily to hourly windows
roughly halves MF while leaving SF nearly unchanged (Fig 12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.cart.tree import RegressionTree, TreeParams
from ..analysis.clustering import Cluster, clusters_from_tree
from ..errors import DataError
from ..failures.engine import SimulationResult
from ..telemetry.aggregate import mu_matrix, rack_static_table
from .availability import (
    AvailabilitySla,
    required_spares,
    uniform_fraction_for_pool,
)


@dataclass(frozen=True)
class ClusterProvision:
    """Provisioning decision for one MF cluster.

    Attributes:
        description: the cluster's defining feature conditions.
        rack_indices: fleet rack indices of the members.
        fraction: spare fraction provisioned for every member rack.
        requirement_samples: the members' pooled μ/capacity samples
            (Fig 11 plots their CDF per cluster).
    """

    description: str
    rack_indices: np.ndarray
    fraction: float
    requirement_samples: np.ndarray

    @property
    def n_racks(self) -> int:
        """Number of member racks."""
        return len(self.rack_indices)


@dataclass(frozen=True)
class SparePlan:
    """A complete provisioning answer for one workload/SLA/granularity.

    Attributes:
        approach: ``"LB"``, ``"SF"`` or ``"MF"``.
        workload: workload name.
        sla: availability target.
        window_hours: μ window (24 = daily, 1 = hourly).
        rack_indices: racks covered by the plan.
        per_rack_fraction: spare fraction assigned to each rack (aligned
            with ``rack_indices``).
        overprovision: total spares / total capacity — the y-axis of
            Figs 10 and 12.
        clusters: MF cluster details (None for LB/SF).
    """

    approach: str
    workload: str
    sla: AvailabilitySla
    window_hours: float
    rack_indices: np.ndarray
    per_rack_fraction: np.ndarray
    overprovision: float
    clusters: tuple[ClusterProvision, ...] | None = None


class SpareProvisioner:
    """Shared machinery for the three provisioning approaches.

    Builds the per-rack μ matrices once and answers LB/SF/MF queries for
    any workload, SLA and window granularity.  Each MF clustering is
    grown once per (workload, SLA, tree parameters) and kept, so every
    later MF plan for the same question reuses it.

    Args:
        result: simulation run.
        window_hours: μ window length.
        min_service_days: racks observed for fewer in-service days are
            excluded (their μ distribution is too short to provision
            from — matching how an operator would treat brand-new racks).
    """

    def __init__(
        self,
        result: SimulationResult,
        window_hours: float = 24.0,
        min_service_days: int = 56,
        integral: bool = False,
    ):
        if min_service_days < 1:
            raise DataError(f"min_service_days must be >= 1, got {min_service_days}")
        self.result = result
        self.window_hours = window_hours
        # Integral mode rounds every rack's spare allocation up to whole
        # servers (physical provisioning); continuous mode (default)
        # keeps fractions, which compare more cleanly across approaches.
        self.integral = integral
        self.arrays = result.fleet.arrays()
        self.mu = mu_matrix(result, window_hours)
        self._in_service = self._service_mask()
        service_days = (
            self._in_service.sum(axis=1) * window_hours / 24.0
        )
        self._eligible = service_days >= min_service_days
        # (workload, sla, params) -> MF rack groups (description, racks).
        self._clusterings: dict[
            tuple[str, AvailabilitySla, TreeParams],
            list[tuple[str, np.ndarray]],
        ] = {}

    def _service_mask(self) -> np.ndarray:
        """(n_racks, n_windows) bool: window starts after commissioning."""
        n_windows = self.mu.shape[1]
        window_start_day = np.arange(n_windows) * self.window_hours / 24.0
        return (
            self.arrays.commission_day[:, np.newaxis]
            <= window_start_day[np.newaxis, :]
        )

    def workload_racks(self, workload: str) -> np.ndarray:
        """Eligible rack indices assigned to ``workload``."""
        self.result.fleet.workloads.get(workload)
        code = self.arrays.workload_names.index(workload)
        racks = np.flatnonzero((self.arrays.workload_code == code) & self._eligible)
        if racks.size == 0:
            raise DataError(f"no eligible racks for workload {workload!r}")
        return racks

    def rack_requirement(self, rack: int, sla: AvailabilitySla) -> float:
        """Spare count the rack's own μ history demands at this SLA."""
        samples = self.mu[rack][self._in_service[rack]]
        if samples.size == 0:
            raise DataError(f"rack {rack} has no in-service windows")
        return required_spares(samples, sla, float(self.arrays.n_servers[rack]))

    def pooled_fractions(self, racks: np.ndarray) -> np.ndarray:
        """All in-service μ/capacity samples of the given racks, pooled."""
        parts = []
        for rack in np.asarray(racks, dtype=np.int64):
            samples = self.mu[rack][self._in_service[rack]]
            parts.append(samples / float(self.arrays.n_servers[rack]))
        pooled = np.concatenate(parts) if parts else np.empty(0)
        if pooled.size == 0:
            raise DataError("no pooled μ samples")
        return pooled

    # -- the three approaches ---------------------------------------------

    def lower_bound(self, workload: str, sla: AvailabilitySla) -> SparePlan:
        """Oracle per-rack provisioning (§VI-Q1 approach (a))."""
        racks = self.workload_racks(workload)
        capacity = self.arrays.n_servers[racks].astype(float)
        spares = np.array([self.rack_requirement(r, sla) for r in racks])
        if self.integral:
            spares = np.ceil(spares)
        return SparePlan(
            approach="LB",
            workload=workload,
            sla=sla,
            window_hours=self.window_hours,
            rack_indices=racks,
            per_rack_fraction=spares / capacity,
            overprovision=float(spares.sum() / capacity.sum()),
        )

    def single_factor(self, workload: str, sla: AvailabilitySla) -> SparePlan:
        """Uniform-fraction provisioning from the pooled workload CDF."""
        racks = self.workload_racks(workload)
        fraction = uniform_fraction_for_pool(self.pooled_fractions(racks), sla)
        capacity = self.arrays.n_servers[racks].astype(float)
        if self.integral:
            spares = np.ceil(fraction * capacity)
            per_rack = spares / capacity
            overprovision = float(spares.sum() / capacity.sum())
        else:
            per_rack = np.full(len(racks), fraction)
            overprovision = fraction
        return SparePlan(
            approach="SF",
            workload=workload,
            sla=sla,
            window_hours=self.window_hours,
            rack_indices=racks,
            per_rack_fraction=per_rack,
            overprovision=overprovision,
        )

    def multi_factor(
        self,
        workload: str,
        sla: AvailabilitySla,
        params: TreeParams | None = None,
        clusters_from: SparePlan | None = None,
    ) -> SparePlan:
        """Cluster-wise provisioning (§VI-Q1 approach (c)).

        The clustering tree regresses each rack's own SLA requirement
        fraction on its deployment-time features; leaves become the
        provisioning clusters.

        Args:
            params: clustering-tree growth parameters.
            clusters_from: reuse another MF plan's rack grouping instead
                of re-clustering — e.g. hourly provisioning (Fig 12)
                reuses the daily clusters, since clusters are
                deployment-time groupings while the window granularity
                is a provisioning-time choice.
        """
        racks = self.workload_racks(workload)
        capacity = self.arrays.n_servers[racks].astype(float)

        if clusters_from is not None:
            if clusters_from.clusters is None:
                raise DataError("clusters_from plan carries no clusters")
            groups = [
                (cluster.description,
                 np.array([rack for rack in cluster.rack_indices
                           if rack in set(racks.tolist())], dtype=np.int64))
                for cluster in clusters_from.clusters
            ]
            groups = [(description, members) for description, members in groups
                      if members.size]
        else:
            groups = self._clustering(workload, sla, params, racks, capacity)

        rack_position = {rack: i for i, rack in enumerate(racks.tolist())}
        per_rack_fraction = np.empty(len(racks))
        provisions: list[ClusterProvision] = []
        for description, member_racks in groups:
            samples = self.pooled_fractions(member_racks)
            fraction = uniform_fraction_for_pool(samples, sla)
            member_rows = np.array(
                [rack_position[rack] for rack in member_racks.tolist()],
                dtype=np.int64,
            )
            per_rack_fraction[member_rows] = fraction
            provisions.append(ClusterProvision(
                description=description,
                rack_indices=member_racks,
                fraction=fraction,
                requirement_samples=samples,
            ))
        if self.integral:
            spares = np.ceil(per_rack_fraction * capacity)
            per_rack_fraction = spares / capacity
            overprovision = float(spares.sum() / capacity.sum())
        else:
            overprovision = float(
                (per_rack_fraction * capacity).sum() / capacity.sum()
            )
        return SparePlan(
            approach="MF",
            workload=workload,
            sla=sla,
            window_hours=self.window_hours,
            rack_indices=racks,
            per_rack_fraction=per_rack_fraction,
            overprovision=overprovision,
            clusters=tuple(provisions),
        )

    def _clustering(
        self,
        workload: str,
        sla: AvailabilitySla,
        params: TreeParams | None,
        racks: np.ndarray,
        capacity: np.ndarray,
    ) -> list[tuple[str, np.ndarray]]:
        """MF rack groups ``(description, member racks)``, grown once.

        The tree regresses each rack's own requirement fraction on its
        deployment-time features.  Callers get fresh member arrays, so
        no two plans share one.
        """
        if params is None:
            min_bucket = max(3, len(racks) // 18)
            params = TreeParams(
                max_depth=6,
                min_split=2 * min_bucket,
                min_bucket=min_bucket,
                cp=0.004,
                max_leaves=12,
            )
        key = (workload, sla, params)
        if key not in self._clusterings:
            requirement_fraction = np.array([
                self.rack_requirement(r, sla) for r in racks
            ]) / capacity
            static = rack_static_table(self.result).take(racks)
            features = ["dc", "region", "sku", "age_months", "rated_power_kw"]
            matrix, schema = static.feature_matrix(features)
            tree = RegressionTree(params).fit(matrix, requirement_fraction, schema)
            self._clusterings[key] = [
                (cluster.description, racks[cluster.member_rows])
                for cluster in clusters_from_tree(tree, matrix)
            ]
        return [(description, members.copy())
                for description, members in self._clusterings[key]]

    def compare(
        self,
        workload: str,
        sla: AvailabilitySla,
        params: TreeParams | None = None,
    ) -> dict[str, SparePlan]:
        """All three plans for one workload/SLA (one Fig 10 bar group)."""
        return {
            "LB": self.lower_bound(workload, sla),
            "SF": self.single_factor(workload, sla),
            "MF": self.multi_factor(workload, sla, params),
        }
