"""Spatial hierarchy of the simulated fleet.

The paper's facilities organize servers "in a spatial hierarchy, from a
DC at the top, each having rows of racks which in turn house server
chassis" (§IV).  We model:

    Fleet → DataCenter → Region → Row → Rack → Server → Component

Rack is the pivotal granularity: workloads are assigned per rack,
spares are provisioned per rack, and the failure metrics λ and μ are
computed per rack.  For simulation speed the :class:`Fleet` also exposes
a flat, vectorized view (:class:`FleetArrays`) with one numpy entry per
rack; the failure engine operates on those arrays and only materializes
individual servers when a ticket is actually generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..errors import ConfigError
from ..groundtruth import GROUND_TRUTH
from .sku import SkuCatalog, SkuSpec
from .workload import WorkloadCatalog

#: ``FleetArrays`` attributes that carry planted hazard inputs.  The
#: GT-leak rule folds these into its forbidden-attribute set; keep the
#: tuple next to the class so adding an array updates the lint too.
GROUND_TRUTH_ARRAY_FIELDS: tuple[str, ...] = (
    "sku_intrinsic", "batch_rate", "batch_mean_size",
    "region_thermal_offset", "region_humidity_offset", "region_hazard",
)


class CoolingKind(Enum):
    """Cooling plant technology (Table I)."""

    ADIABATIC = "adiabatic"
    CHILLED_WATER = "chilled-water"


class PackagingKind(Enum):
    """Physical packaging of the IT infrastructure (Table I)."""

    CONTAINER = "container"
    COLOCATED = "colocated"


@dataclass(frozen=True)
class RegionSpec:
    """A thermal/electrical zone within a datacenter.

    The paper's Fig 2 shows intra-DC failure-rate variation (DC1-1..4,
    DC2-1..3); regions carry the planted spatial offsets that create it.

    Attributes:
        name: region label, e.g. ``DC1-2``.
        thermal_offset_f: inlet-temperature offset (°F) relative to the
            DC-wide cooling output — hot spots are positive.
        humidity_offset: relative-humidity offset (percentage points).
        hazard_multiplier: residual spatial hazard factor not explained
            by temperature (airflow quality, vibration, dust).
    """

    name: str
    # Planted spatial ground truth (see repro.groundtruth): Fig 2's
    # intra-DC variation must be recovered, never read.
    thermal_offset_f: float = field(default=0.0, metadata=GROUND_TRUTH)
    humidity_offset: float = field(default=0.0, metadata=GROUND_TRUTH)
    hazard_multiplier: float = field(default=1.0, metadata=GROUND_TRUTH)

    def __post_init__(self) -> None:
        if self.hazard_multiplier <= 0:
            raise ConfigError(f"region {self.name}: hazard_multiplier must be positive")


@dataclass(frozen=True)
class Rack:
    """One rack: the unit of workload assignment and spare provisioning.

    Attributes:
        rack_id: globally unique label, e.g. ``DC1-R017``.
        dc_name: owning datacenter name.
        region_name: owning region label.
        row: row number within the DC (Table III: DC1 rows 1-18,
            DC2 rows 1-32).
        slot: position within the row.
        sku: hardware SKU populating the rack.
        workload: name of the workload owning the rack (``W1``..``W7``).
        rated_power_kw: provisioned power rating (Table III: 4-15 kW);
            may differ slightly from the SKU nominal due to per-site
            power-delivery choices.
        commission_day: simulation day the rack entered service; negative
            values mean it predates the observation window (devices can
            be up to 5 years old per Table III).
    """

    rack_id: str
    dc_name: str
    region_name: str
    row: int
    slot: int
    sku: SkuSpec
    workload: str
    rated_power_kw: float
    commission_day: int

    def __post_init__(self) -> None:
        if self.row < 1 or self.slot < 0:
            raise ConfigError(f"{self.rack_id}: invalid row/slot ({self.row}, {self.slot})")
        if self.rated_power_kw <= 0:
            raise ConfigError(f"{self.rack_id}: rated power must be positive")

    @property
    def n_servers(self) -> int:
        """Number of servers housed in this rack."""
        return self.sku.servers_per_rack

    @property
    def n_hdds(self) -> int:
        """Total HDDs in this rack."""
        return self.sku.hdds_per_rack

    @property
    def n_dimms(self) -> int:
        """Total DIMMs in this rack."""
        return self.sku.dimms_per_rack

    def age_months(self, day_index: int) -> float:
        """Device age in months on simulation day ``day_index``."""
        from ..units import months_between_days

        return months_between_days(self.commission_day, day_index)


@dataclass(frozen=True)
class DataCenterSpec:
    """Facility-level properties of one datacenter (Table I).

    Attributes:
        name: ``DC1`` or ``DC2`` (any label is accepted).
        packaging: container vs colocated.
        availability_nines: power-infrastructure design target (3 or 5).
        cooling: adiabatic vs chilled-water plant.
        n_rows: number of rack rows.
        regions: thermal/electrical zones within the facility.
    """

    name: str
    packaging: PackagingKind
    availability_nines: int
    cooling: CoolingKind
    n_rows: int
    regions: tuple[RegionSpec, ...]

    def __post_init__(self) -> None:
        if self.availability_nines not in (3, 4, 5):
            raise ConfigError(f"{self.name}: availability_nines must be 3, 4 or 5")
        if self.n_rows < 1:
            raise ConfigError(f"{self.name}: need at least one row")
        if not self.regions:
            raise ConfigError(f"{self.name}: need at least one region")


@dataclass
class DataCenter:
    """A datacenter: its spec plus the racks deployed inside it."""

    spec: DataCenterSpec
    racks: list[Rack] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Facility name (``DC1`` / ``DC2``)."""
        return self.spec.name

    @property
    def n_racks(self) -> int:
        """Number of racks deployed."""
        return len(self.racks)

    @property
    def n_servers(self) -> int:
        """Total servers across all racks."""
        return sum(rack.n_servers for rack in self.racks)

    def region(self, name: str) -> RegionSpec:
        """Look up a region spec by label."""
        for region in self.spec.regions:
            if region.name == name:
                return region
        raise ConfigError(f"{self.name}: unknown region {name!r}")


class FleetArrays:
    """Flat per-rack numpy view of a fleet, used by the failure engine.

    All arrays are aligned: index ``i`` refers to the same rack
    everywhere.  Categorical attributes are stored as integer codes into
    the corresponding catalog/name lists.
    """

    def __init__(self, fleet: "Fleet"):
        racks = fleet.racks
        n = len(racks)
        if n == 0:
            raise ConfigError("cannot build FleetArrays for an empty fleet")
        self.n_racks = n
        self.dc_names = [dc.name for dc in fleet.datacenters]
        self.region_names = fleet.region_names
        self.sku_names = fleet.skus.names
        self.workload_names = fleet.workloads.names

        dc_index = {name: i for i, name in enumerate(self.dc_names)}
        region_index = {name: i for i, name in enumerate(self.region_names)}
        sku_index = {name: i for i, name in enumerate(self.sku_names)}
        workload_index = {name: i for i, name in enumerate(self.workload_names)}

        self.rack_ids = np.array([rack.rack_id for rack in racks])
        self.dc_code = np.array([dc_index[rack.dc_name] for rack in racks], dtype=np.int32)
        self.region_code = np.array(
            [region_index[rack.region_name] for rack in racks], dtype=np.int32
        )
        self.row = np.array([rack.row for rack in racks], dtype=np.int32)
        self.sku_code = np.array([sku_index[rack.sku.name] for rack in racks], dtype=np.int32)
        self.workload_code = np.array(
            [workload_index[rack.workload] for rack in racks], dtype=np.int32
        )
        self.rated_power_kw = np.array([rack.rated_power_kw for rack in racks])
        self.commission_day = np.array([rack.commission_day for rack in racks], dtype=np.int64)
        self.n_servers = np.array([rack.n_servers for rack in racks], dtype=np.int32)
        self.hdds_per_server = np.array(
            [rack.sku.hdds_per_server for rack in racks], dtype=np.int32
        )
        self.dimms_per_server = np.array(
            [rack.sku.dimms_per_server for rack in racks], dtype=np.int32
        )

        # Ground-truth hazard inputs (never exposed to the analysis layer).
        self.sku_intrinsic = np.array([rack.sku.intrinsic_hazard for rack in racks])
        self.batch_rate = np.array([rack.sku.batch_failure_rate for rack in racks])
        self.batch_mean_size = np.array([rack.sku.batch_failure_mean_size for rack in racks])
        region_by_name = {
            region.name: region
            for dc in fleet.datacenters
            for region in dc.spec.regions
        }
        self.region_thermal_offset = np.array(
            [region_by_name[rack.region_name].thermal_offset_f for rack in racks]
        )
        self.region_humidity_offset = np.array(
            [region_by_name[rack.region_name].humidity_offset for rack in racks]
        )
        self.region_hazard = np.array(
            [region_by_name[rack.region_name].hazard_multiplier for rack in racks]
        )

        # First global server index of each rack: rack i owns server
        # indices [server_base[i], server_base[i] + n_servers[i]).
        self.server_base = np.concatenate(([0], np.cumsum(self.n_servers)[:-1]))
        self.n_servers_total = int(self.n_servers.sum())

    def age_months(self, day_index: int) -> np.ndarray:
        """Per-rack equipment age in months on ``day_index``."""
        from ..units import DAYS_PER_MONTH

        return (day_index - self.commission_day) / DAYS_PER_MONTH


class Fleet:
    """The complete simulated estate: every datacenter and rack.

    Args:
        datacenters: the facilities, each already populated with racks.
        skus: SKU catalog used to build the racks.
        workloads: workload catalog used for assignment.
    """

    def __init__(
        self,
        datacenters: list[DataCenter],
        skus: SkuCatalog,
        workloads: WorkloadCatalog,
    ):
        if not datacenters:
            raise ConfigError("fleet needs at least one datacenter")
        names = [dc.name for dc in datacenters]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate datacenter names: {names}")
        self.datacenters = list(datacenters)
        self.skus = skus
        self.workloads = workloads
        self._arrays: FleetArrays | None = None

    @property
    def racks(self) -> list[Rack]:
        """All racks across all datacenters, DC-major order."""
        return [rack for dc in self.datacenters for rack in dc.racks]

    @property
    def n_racks(self) -> int:
        """Total number of racks in the fleet."""
        return sum(dc.n_racks for dc in self.datacenters)

    @property
    def n_servers(self) -> int:
        """Total number of servers in the fleet."""
        return sum(dc.n_servers for dc in self.datacenters)

    @property
    def region_names(self) -> list[str]:
        """All region labels across DCs, in facility order."""
        return [region.name for dc in self.datacenters for region in dc.spec.regions]

    def datacenter(self, name: str) -> DataCenter:
        """Look up a datacenter by name."""
        for dc in self.datacenters:
            if dc.name == name:
                return dc
        raise ConfigError(f"unknown datacenter {name!r}; have {[d.name for d in self.datacenters]}")

    def arrays(self) -> FleetArrays:
        """Return (and cache) the vectorized per-rack view."""
        if self._arrays is None:
            self._arrays = FleetArrays(self)
        return self._arrays

    def racks_for_workload(self, workload: str) -> list[Rack]:
        """All racks assigned to ``workload``."""
        self.workloads.get(workload)
        return [rack for rack in self.racks if rack.workload == workload]

    def swap_sku(self, rack_ids, sku_name: str) -> int:
        """Re-SKU the named racks — the sanctioned inventory mutation
        point for autonomics hardware-refresh actions.

        Only drop-in refreshes are allowed: the replacement SKU must
        house the same number of servers per rack, so rack capacities,
        server indexing and any streaming inventory derived from the
        fleet stay valid mid-run.  The cached :class:`FleetArrays` view
        is invalidated; callers re-derive dependent models afterwards.

        Returns the number of racks swapped.
        """
        import dataclasses

        spec = self.skus.get(sku_name)
        wanted = set(rack_ids)
        if not wanted:
            return 0
        swapped = 0
        for dc in self.datacenters:
            for index, rack in enumerate(dc.racks):
                if rack.rack_id not in wanted:
                    continue
                if spec.servers_per_rack != rack.sku.servers_per_rack:
                    raise ConfigError(
                        f"{rack.rack_id}: refresh SKU {spec.name!r} houses "
                        f"{spec.servers_per_rack} servers/rack, rack has "
                        f"{rack.sku.servers_per_rack}; only drop-in "
                        "refreshes are supported"
                    )
                dc.racks[index] = dataclasses.replace(rack, sku=spec)
                wanted.discard(rack.rack_id)
                swapped += 1
        if wanted:
            raise ConfigError(f"unknown rack ids for SKU swap: {sorted(wanted)}")
        self._arrays = None
        return swapped
