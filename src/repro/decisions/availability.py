"""Availability SLAs and the spare-sizing math on μ distributions.

§VI-Q1: "We define the availability SLA for a workload as the
percentage of servers that needs to be available to that workload at
all times."  With capacity C, SLA level s and spare count k, every
window must satisfy

    C − μ + k  ≥  s · C      ⇔      k  ≥  μ − (1 − s) · C,

so the required spares are ``(max observed μ − allowed shortfall)⁺``:
a 100% SLA provisions for the worst observed window in full, while a
95% SLA may leave up to 5% of capacity uncovered at the worst moment.
This shortfall form keeps SF ≥ MF ≥ LB at every SLA (Fig 10's ordering).

:class:`SpareSizer` applies it the three ways §VI-Q1 compares — the
oracle per-rack lower bound (LB), one pooled fraction (SF) and
CART-clustered fractions (MF) — to any per-rack μ matrix with its pool's
units per rack.  Q1-A sizes server spares with it, Q1-B sizes its disk,
DIMM and server-component pools (and the all-server alternative), and
spare pooling sizes dedicated and shared pools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.cart.tree import RegressionTree, TreeParams
from ..analysis.clustering import clusters_from_tree
from ..errors import ConfigError, DataError
from ..failures.engine import SimulationResult
from ..telemetry.aggregate import rack_static_table
from ..telemetry.windows import n_windows

# The three example SLAs the paper evaluates (Figs 10, 12; Table IV).
PAPER_SLAS = (0.90, 0.95, 1.00)


@dataclass(frozen=True)
class AvailabilitySla:
    """An availability target.

    Attributes:
        level: fraction of servers that must be available at all times
            (0.90, 0.95, 1.00 in the paper's evaluation).
    """

    level: float

    def __post_init__(self) -> None:
        if not 0.0 < self.level <= 1.0:
            raise ConfigError(f"SLA level must be in (0, 1], got {self.level}")

    @property
    def percent_label(self) -> str:
        """Rendering such as ``"95%"``."""
        return f"{self.level * 100:g}%"

    @property
    def shortfall(self) -> float:
        """Fraction of capacity allowed to be down at the worst moment."""
        return 1.0 - self.level


def required_spares(
    mu_samples: np.ndarray,
    sla: AvailabilitySla,
    capacity: float,
) -> float:
    """Spares keeping ``sla.level`` of ``capacity`` available always.

    ``(max μ − (1 − level) · capacity)⁺`` per the module docstring.
    """
    mu_samples = np.asarray(mu_samples, dtype=float)
    if mu_samples.size == 0:
        raise DataError("no μ samples to size spares from")
    if (mu_samples < 0).any():
        raise DataError("μ samples must be non-negative")
    if capacity <= 0:
        raise DataError(f"capacity must be positive, got {capacity}")
    return float(max(0.0, mu_samples.max() - sla.shortfall * capacity))


def uniform_fraction_for_pool(
    mu_fractions: np.ndarray,
    sla: AvailabilitySla,
) -> float:
    """The single spare fraction covering a pooled μ/capacity sample.

    This is the SF provisioning rule: one fraction applied uniformly to
    every rack of the workload, read off the pooled CDF (Fig 1's solid
    curve, §VI-Q1 approach (b)): the worst pooled fraction minus the
    allowed shortfall.
    """
    mu_fractions = np.asarray(mu_fractions, dtype=float)
    if mu_fractions.size == 0:
        raise DataError("empty pooled μ-fraction sample")
    return float(max(0.0, mu_fractions.max() - sla.shortfall))


#: Deployment-time rack features MF clusters on (DC, region, SKU, age,
#: power), known before a rack's first failure.
MF_FEATURES = ("dc", "region", "sku", "age_months", "rated_power_kw")


@dataclass(frozen=True)
class ClusterProvision:
    """Provisioning decision for one MF cluster.

    Attributes:
        description: the cluster's defining feature conditions.
        rack_indices: fleet rack indices of the members.
        fraction: spare fraction provisioned for every member rack.
        requirement_samples: the members' pooled μ/units samples
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


class SpareSizer:
    """LB, SF and MF spare sizing over one run's per-rack μ matrices.

    Every entry point takes ``mu`` (n_racks, n_windows) concurrent
    unavailability at this sizer's window length, ``units`` (n_racks,)
    the capacity of the pool on each rack (servers, disks or DIMMs) and
    fleet rack indices ``racks``.  Only windows starting after a rack's
    commissioning count.

    Args:
        result: simulation run.
        window_hours: μ window length of the matrices passed in.
        min_service_days: racks observed for fewer in-service days are
            not eligible (their μ distribution is too short to provision
            from — matching how an operator would treat brand-new racks).
    """

    def __init__(
        self,
        result: SimulationResult,
        window_hours: float = 24.0,
        min_service_days: int = 56,
    ):
        if min_service_days < 1:
            raise DataError(f"min_service_days must be >= 1, got {min_service_days}")
        self.result = result
        self.arrays = result.fleet.arrays()
        window_start_day = (
            np.arange(n_windows(result.n_days, window_hours))
            * window_hours / 24.0
        )
        #: (n_racks, n_windows) bool: window starts after commissioning.
        self.in_service = (
            self.arrays.commission_day[:, np.newaxis]
            <= window_start_day[np.newaxis, :]
        )
        service_days = self.in_service.sum(axis=1) * window_hours / 24.0
        self.eligible = service_days >= min_service_days

    def workload_racks(self, workload: str) -> np.ndarray:
        """Eligible rack indices assigned to ``workload``."""
        self.result.fleet.workloads.get(workload)
        code = self.arrays.workload_names.index(workload)
        racks = np.flatnonzero((self.arrays.workload_code == code) & self.eligible)
        if racks.size == 0:
            raise DataError(f"no eligible racks for workload {workload!r}")
        return racks

    def lower_bound(self, mu: np.ndarray, units: np.ndarray, racks: np.ndarray,
                    sla: AvailabilitySla) -> np.ndarray:
        """LB: the spares each rack's own μ history demands, per rack."""
        return np.array([
            required_spares(mu[rack][self.in_service[rack]], sla, units[rack])
            for rack in racks.tolist()
        ])

    def pooled_fractions(self, mu: np.ndarray, units: np.ndarray,
                         racks: np.ndarray) -> np.ndarray:
        """All in-service μ/units samples of ``racks``, pooled in order."""
        parts = [mu[rack][self.in_service[rack]] / units[rack]
                 for rack in racks.tolist()]
        pooled = np.concatenate(parts) if parts else np.empty(0)
        if pooled.size == 0:
            raise DataError("no pooled μ samples")
        return pooled

    def single_factor(self, mu: np.ndarray, units: np.ndarray,
                      racks: np.ndarray, sla: AvailabilitySla) -> float:
        """SF: one fraction for every rack, off their pooled samples."""
        return uniform_fraction_for_pool(
            self.pooled_fractions(mu, units, racks), sla)

    def clusters(
        self,
        mu: np.ndarray,
        units: np.ndarray,
        racks: np.ndarray,
        sla: AvailabilitySla,
        params: TreeParams | None = None,
    ) -> list[tuple[str, np.ndarray]]:
        """MF rack groups ``(description, member racks)``.

        A regression tree over :data:`MF_FEATURES` fits each rack's own
        requirement fraction (LB spares / units); its leaves are the
        groups, calm ones first.
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
        requirement = self.lower_bound(mu, units, racks, sla) / units[racks]
        static = rack_static_table(self.result).take(racks)
        matrix, schema = static.feature_matrix(list(MF_FEATURES))
        tree = RegressionTree(params).fit(matrix, requirement, schema)
        return [(cluster.description, racks[cluster.member_rows])
                for cluster in clusters_from_tree(tree, matrix)]

    def multi_factor(
        self,
        mu: np.ndarray,
        units: np.ndarray,
        racks: np.ndarray,
        sla: AvailabilitySla,
        groups: list[tuple[str, np.ndarray]],
    ) -> tuple[np.ndarray, list[ClusterProvision]]:
        """MF: each group's pooled fraction for all its member racks.

        ``groups`` partition ``racks`` (see :meth:`clusters`).  Returns
        the per-rack fractions aligned with ``racks`` and each group's
        provision.
        """
        position = {rack: i for i, rack in enumerate(racks.tolist())}
        per_rack = np.empty(len(racks))
        provisions = []
        for description, members in groups:
            samples = self.pooled_fractions(mu, units, members)
            fraction = uniform_fraction_for_pool(samples, sla)
            per_rack[[position[rack] for rack in members.tolist()]] = fraction
            provisions.append(ClusterProvision(
                description=description,
                rack_indices=members,
                fraction=fraction,
                requirement_samples=samples,
            ))
        return per_rack, provisions

    def shared_pool(self, mu: np.ndarray, units: np.ndarray,
                    racks: np.ndarray, sla: AvailabilitySla) -> float:
        """Spares for one pool serving all ``racks``: their in-service μ
        summed per window against their summed units."""
        active = np.where(self.in_service[racks], mu[racks], 0)
        return required_spares(active.sum(axis=0), sla,
                               float(units[racks].sum()))
