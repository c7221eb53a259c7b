"""Spare pooling: dedicated per-workload pools vs a shared pool.

§II poses (without answering): "Should spares be maintained for each
class of applications separately, or is it better to have a shared
pool?"  With per-rack μ in hand the answer is a diversification
computation: concurrent failures across workloads rarely align, so a
shared pool sized for the *joint* worst window needs fewer spares than
the sum of per-workload pools sized for each workload's own worst
window — at the price of cross-workload sharing (network distance,
compatibility).  This module quantifies that benefit.

μ here is aggregated at the DC level (a spare pool lives in a building;
sharing across DCs is not physical).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..failures.engine import SimulationResult
from ..telemetry.aggregate import mu_matrix
from .availability import AvailabilitySla, SpareSizer


@dataclass(frozen=True)
class PoolingAnalysis:
    """Shared-vs-dedicated pool sizing for one DC and SLA.

    Attributes:
        dc: facility name.
        sla: availability target.
        dedicated_spares: workload → spare count for its own pool.
        shared_spares: one pool covering the joint worst window.
        diversification_benefit: spares saved by sharing
            (Σ dedicated − shared).
    """

    dc: str
    sla: AvailabilitySla
    dedicated_spares: dict[str, float]
    shared_spares: float
    diversification_benefit: float

    @property
    def dedicated_total(self) -> float:
        """Sum of the per-workload pools."""
        return float(sum(self.dedicated_spares.values()))

    @property
    def benefit_fraction(self) -> float:
        """Diversification benefit relative to dedicated sizing."""
        total = self.dedicated_total
        if total <= 0:
            return 0.0
        return self.diversification_benefit / total

    def render(self) -> str:
        """Text summary."""
        lines = [f"Spare pooling in {self.dc} at the "
                 f"{self.sla.percent_label} SLA:"]
        for workload, spares in sorted(self.dedicated_spares.items()):
            lines.append(f"  dedicated pool {workload}: {spares:7.1f} spares")
        lines.append(f"  dedicated total:      {self.dedicated_total:7.1f}")
        lines.append(f"  shared pool:          {self.shared_spares:7.1f}")
        lines.append(
            f"  sharing saves {self.diversification_benefit:.1f} spares "
            f"({self.benefit_fraction:.0%})"
        )
        return "\n".join(lines)


def pooling_analysis(
    result: SimulationResult,
    dc_name: str,
    sla: AvailabilitySla | None = None,
    window_hours: float = 24.0,
) -> PoolingAnalysis:
    """Size dedicated-per-workload vs shared spare pools for one DC.

    Both sizings use the same SLA semantics as Q1: the pool must cover
    its scope's worst-window concurrent unavailability beyond the
    allowed shortfall.

    The shared pool can never need more spares than the dedicated pools
    combined (max of a sum ≤ sum of maxima, and the shortfall allowance
    only reinforces the inequality).
    """
    sla = sla or AvailabilitySla(1.0)
    sizer = SpareSizer(result, window_hours)
    arrays = sizer.arrays
    dc_names = list(arrays.dc_names)
    if dc_name not in dc_names:
        raise DataError(f"unknown DC {dc_name!r}; have {dc_names}")
    dc_code = dc_names.index(dc_name)
    in_dc = arrays.dc_code == dc_code
    if not in_dc.any():
        raise DataError(f"{dc_name} has no racks")

    mu = mu_matrix(result, window_hours)
    servers = arrays.n_servers.astype(float)
    dedicated: dict[str, float] = {}
    for code, workload in enumerate(arrays.workload_names):
        members = np.flatnonzero(in_dc & (arrays.workload_code == code))
        if members.size:
            dedicated[workload] = sizer.shared_pool(mu, servers, members, sla)
    if not dedicated:
        raise DataError(f"{dc_name} hosts no workloads")
    shared = sizer.shared_pool(mu, servers, np.flatnonzero(in_dc), sla)

    return PoolingAnalysis(
        dc=dc_name,
        sla=sla,
        dedicated_spares=dedicated,
        shared_spares=shared,
        diversification_benefit=float(sum(dedicated.values()) - shared),
    )
