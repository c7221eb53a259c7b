"""Q1-B: component-level vs server-level spare provisioning.

§VI-Q1-B: "Rather than keeping spares at the server level, it can
sometimes be more cost-effective to keep spares for the individual
components that fail within the server" — hard disks and memory, pooled
at rack level ("aggregate scale"), with every other hardware failure
still covered by server spares.  Costs use the paper's 100 : 2 : 10
server : disk : DIMM ratio.

Reproduction targets (Fig 13, 100% SLA, daily):

* MF: component-level cost clearly below server-level; ≈40% lower for
  the compute workload W1, ≈10% for the storage workload W6.
* SF: component-level cost *exceeds* server-level cost for W1 — the
  "conservative sum of peak provisioning across resources".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..failures.engine import SimulationResult
from ..failures.tickets import FaultType
from ..telemetry.aggregate import mu_matrix
from .availability import AvailabilitySla, SpareSizer
from .tco import DIMM_COST_UNITS, DISK_COST_UNITS, SERVER_COST_UNITS

# Resource split of hardware faults: disks and DIMMs get their own spare
# pools; everything else (power, server, network) consumes server spares.
COMPONENT_FAULTS: dict[str, list[FaultType]] = {
    "disk": [FaultType.DISK],
    "dimm": [FaultType.MEMORY],
    "server": [FaultType.POWER, FaultType.SERVER, FaultType.NETWORK],
}

#: Cost of one spare unit of each resource, in the paper's ratio.
UNIT_COST = {
    "disk": DISK_COST_UNITS,
    "dimm": DIMM_COST_UNITS,
    "server": SERVER_COST_UNITS,
}


@dataclass(frozen=True)
class ResourceProvision:
    """Spare fractions for one resource pool under one approach."""

    resource: str
    fraction: float
    units_total: int


@dataclass(frozen=True)
class ComponentPlan:
    """Q1-B answer for one workload/SLA/approach.

    Attributes:
        approach: ``"LB"``, ``"SF"`` or ``"MF"``.
        workload: workload name.
        component_cost: CapEx of the disk+DIMM+server mixed pool.
        server_cost: CapEx of the all-server-spares alternative.
        resources: per-resource fractions backing ``component_cost``.
        server_fraction: fraction backing ``server_cost``.
    """

    approach: str
    workload: str
    component_cost: float
    server_cost: float
    resources: tuple[ResourceProvision, ...]
    server_fraction: float

    @property
    def component_vs_server(self) -> float:
        """component cost / server cost (< 1 means components win)."""
        if self.server_cost <= 0:
            raise DataError("server-level plan has zero cost")
        return self.component_cost / self.server_cost


class ComponentProvisioner:
    """Computes Fig 13's component-vs-server spare costs.

    Each resource pool is a μ matrix plus its units per rack, sized by
    :class:`~repro.decisions.availability.SpareSizer` exactly as Q1-A
    sizes server spares.

    Args:
        result: simulation run.
        window_hours: μ window (the paper presents daily).
    """

    def __init__(self, result: SimulationResult, window_hours: float = 24.0):
        self.sizer = SpareSizer(result, window_hours)
        arrays = self.sizer.arrays
        servers = arrays.n_servers.astype(float)
        # resource -> (μ matrix, units per rack).  Raw device intervals
        # for component pools (each failed disk is a spare consumed);
        # merged per-server intervals for server pools.
        self.pools = {
            "disk": (mu_matrix(result, window_hours, COMPONENT_FAULTS["disk"],
                               per_server=False),
                     (arrays.n_servers * arrays.hdds_per_server).astype(float)),
            "dimm": (mu_matrix(result, window_hours, COMPONENT_FAULTS["dimm"],
                               per_server=False),
                     (arrays.n_servers * arrays.dimms_per_server).astype(float)),
            "server": (mu_matrix(result, window_hours, COMPONENT_FAULTS["server"],
                                 per_server=True),
                       servers),
        }
        # The all-server-spares alternative: every hardware fault.
        self.all_servers = (mu_matrix(result, window_hours, per_server=True),
                            servers)

    def _spare_units(self, approach: str, pool: tuple[np.ndarray, np.ndarray],
                     racks: np.ndarray, sla: AvailabilitySla) -> float:
        """Total spare units one pool needs over ``racks``."""
        mu, units = pool
        if approach == "LB":
            fractions = (self.sizer.lower_bound(mu, units, racks, sla)
                         / units[racks])
        elif approach == "SF":
            fractions = np.full(
                len(racks), self.sizer.single_factor(mu, units, racks, sla))
        else:
            groups = self.sizer.clusters(mu, units, racks, sla)
            fractions, _ = self.sizer.multi_factor(mu, units, racks, sla, groups)
        return float((fractions * units[racks]).sum())

    # -- the headline comparison -------------------------------------------

    def plan(self, workload: str, sla: AvailabilitySla, approach: str) -> ComponentPlan:
        """Component-vs-server plan for one workload and approach."""
        if approach not in ("LB", "SF", "MF"):
            raise DataError(f"unknown approach {approach!r}")
        racks = self.sizer.workload_racks(workload)

        resources: list[ResourceProvision] = []
        component_cost = 0.0
        for resource, pool in self.pools.items():
            spare_units = self._spare_units(approach, pool, racks, sla)
            units_total = pool[1][racks].sum()
            resources.append(ResourceProvision(
                resource=resource,
                fraction=spare_units / units_total,
                units_total=int(units_total),
            ))
            component_cost += spare_units * UNIT_COST[resource]

        server_spares = self._spare_units(approach, self.all_servers, racks, sla)
        return ComponentPlan(
            approach=approach,
            workload=workload,
            component_cost=component_cost,
            server_cost=server_spares * SERVER_COST_UNITS,
            resources=tuple(resources),
            server_fraction=server_spares / self.all_servers[1][racks].sum(),
        )

    def compare(self, workload: str, sla: AvailabilitySla) -> dict[str, ComponentPlan]:
        """All three approaches for one workload (one Fig 13 bar group)."""
        return {
            approach: self.plan(workload, sla, approach)
            for approach in ("LB", "SF", "MF")
        }
