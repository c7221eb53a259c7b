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

from ..analysis.cart.tree import TreeParams
from ..errors import DataError
from ..failures.engine import SimulationResult
from ..telemetry.aggregate import mu_matrix
from .availability import AvailabilitySla, ClusterProvision, SpareSizer


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
    """Server-spare plans from :class:`~repro.decisions.availability.SpareSizer`.

    Builds the per-rack μ matrix once and answers LB/SF/MF queries for
    any workload and SLA, with servers as the unit.  Each MF clustering
    is grown once per (workload, SLA, tree parameters) and kept, so
    every later MF plan for the same question reuses it.

    Args:
        result: simulation run.
        window_hours: μ window length.
        min_service_days: rack eligibility threshold (see
            :class:`~repro.decisions.availability.SpareSizer`).
    """

    def __init__(
        self,
        result: SimulationResult,
        window_hours: float = 24.0,
        min_service_days: int = 56,
        integral: bool = False,
    ):
        self.result = result
        self.window_hours = window_hours
        # Integral mode rounds every rack's spare allocation up to whole
        # servers (physical provisioning); continuous mode (default)
        # keeps fractions, which compare more cleanly across approaches.
        self.integral = integral
        self.sizer = SpareSizer(result, window_hours, min_service_days)
        self.arrays = self.sizer.arrays
        self.mu = mu_matrix(result, window_hours)
        self.capacity = self.arrays.n_servers.astype(float)
        # (workload, sla, params) -> MF rack groups (description, racks).
        self._clusterings: dict[
            tuple[str, AvailabilitySla, TreeParams | None],
            list[tuple[str, np.ndarray]],
        ] = {}

    def workload_racks(self, workload: str) -> np.ndarray:
        """Eligible rack indices assigned to ``workload``."""
        return self.sizer.workload_racks(workload)

    def pooled_fractions(self, racks: np.ndarray) -> np.ndarray:
        """All in-service μ/capacity samples of the given racks, pooled."""
        return self.sizer.pooled_fractions(
            self.mu, self.capacity, np.asarray(racks, dtype=np.int64))

    # -- the three approaches ---------------------------------------------

    def lower_bound(self, workload: str, sla: AvailabilitySla) -> SparePlan:
        """Oracle per-rack provisioning (§VI-Q1 approach (a))."""
        racks = self.workload_racks(workload)
        capacity = self.capacity[racks]
        spares = self.sizer.lower_bound(self.mu, self.capacity, racks, sla)
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
        fraction = self.sizer.single_factor(self.mu, self.capacity, racks, sla)
        capacity = self.capacity[racks]
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
        capacity = self.capacity[racks]

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
            key = (workload, sla, params)
            if key not in self._clusterings:
                self._clusterings[key] = self.sizer.clusters(
                    self.mu, self.capacity, racks, sla, params)
            # Fresh member arrays, so no two plans share one.
            groups = [(description, members.copy())
                      for description, members in self._clusterings[key]]

        per_rack_fraction, provisions = self.sizer.multi_factor(
            self.mu, self.capacity, racks, sla, groups)
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
