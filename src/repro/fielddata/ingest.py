"""Typed ingestion of exported field-data CSVs.

:func:`~repro.telemetry.io.read_csv_table` deliberately returns raw
strings; this module layers the domain schemas on top and reports
failures with per-row context (``tickets.csv: row 17: ...``), the way
an operator debugging a warehouse extract needs them.  Loaders
round-trip: ``export → load → export`` reproduces the original file
byte-for-byte.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..datacenter.builder import build_fleet
from ..datacenter.topology import Fleet
from ..errors import DataError
from ..failures.tickets import FAULT_CATEGORY, FAULT_TYPES, TicketLog
from ..rng import RngRegistry
from ..telemetry.io import (
    INVENTORY_COLUMNS,
    TICKET_COLUMNS,
    export_fleet_inventory_csv,
    export_ticket_log_csv,
    load_array_bundle,
    read_csv_table,
)
from ..telemetry.schema import INVENTORY_CSV, TICKET_CSV, TICKET_LOG
from .dataset import FieldDataset, log_from_columns

if TYPE_CHECKING:
    from ..config import SimulationConfig

#: Label → integer fault code, as written by the ticket exporter.
FAULT_CODE_BY_LABEL: dict[str, int] = {
    fault.value: code for code, fault in enumerate(FAULT_TYPES)
}

_SENSOR_BUNDLE = "sensors.npz"


def _column(columns: dict[str, list[str]], name: str, path: pathlib.Path) -> list[str]:
    if name not in columns:
        raise DataError(
            f"{path}: missing column {name!r}; have {sorted(columns)}"
        )
    return columns[name]


def _parse_column(raw: list[str], converter, name: str, path: pathlib.Path,
                  dtype) -> np.ndarray:
    """Convert one raw string column, naming the first offending row.

    Data rows start at line 2 (line 1 is the header), so the reported
    row number matches what an editor shows.
    """
    parsed = []
    for index, cell in enumerate(raw):
        try:
            parsed.append(converter(cell))
        except (ValueError, KeyError):
            raise DataError(
                f"{path}: row {index + 2}: column {name!r}: "
                f"cannot parse {cell!r}"
            ) from None
    return np.array(parsed, dtype=dtype)


def _require_rows(ok: np.ndarray, raw: list[str], name: str,
                  path: pathlib.Path, what: str) -> None:
    """Reject the first row failing a domain check, like a parse error."""
    bad = np.flatnonzero(~ok)
    if len(bad):
        row = int(bad[0])
        raise DataError(
            f"{path}: row {row + 2}: column {name!r}: "
            f"{raw[row]!r} is not {what}"
        )


def _parse_bool(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(cell)
    return cell == "1"


def load_tickets_csv(path: str | pathlib.Path, fleet: Fleet) -> TicketLog:
    """Load an exported tickets CSV back into a typed :class:`TicketLog`.

    Fault-type labels are mapped back to codes and ``(dc, rack_id)``
    pairs back to flat rack indices against ``fleet``; any unknown
    label, unknown rack, malformed cell, non-finite ticket hour or
    non-finite or negative repair time raises a
    :class:`~repro.errors.DataError` naming the offending row.  Row order
    is preserved exactly (the exporter's ``ticket_id`` column is
    positional and regenerated on re-export).
    """
    path = pathlib.Path(path)
    columns = read_csv_table(path)
    for name in TICKET_COLUMNS:
        _column(columns, name, path)

    arrays = fleet.arrays()
    rack_index_by_id = {rack_id: index
                        for index, rack_id in enumerate(arrays.rack_ids)}
    dc_of_rack = {
        rack_id: arrays.dc_names[int(arrays.dc_code[index])]
        for rack_id, index in rack_index_by_id.items()
    }

    rack_index = _parse_column(
        columns[TICKET_CSV.rack_id], rack_index_by_id.__getitem__,
        TICKET_CSV.rack_id, path, np.int64,
    )
    fault_code = _parse_column(
        columns[TICKET_CSV.fault_type], FAULT_CODE_BY_LABEL.__getitem__,
        TICKET_CSV.fault_type, path, np.int64,
    )
    loaded = {
        TICKET_LOG.day_index: _parse_column(
            columns[TICKET_CSV.day_index], int, TICKET_CSV.day_index,
            path, np.int64),
        TICKET_LOG.start_hour_abs: _parse_column(
            columns[TICKET_CSV.start_hour_abs], float,
            TICKET_CSV.start_hour_abs, path, float),
        TICKET_LOG.rack_index: rack_index,
        TICKET_LOG.server_offset: _parse_column(
            columns[TICKET_CSV.server_offset], int, TICKET_CSV.server_offset,
            path, np.int64),
        TICKET_LOG.fault_code: fault_code,
        TICKET_LOG.false_positive: _parse_column(
            columns[TICKET_CSV.false_positive], _parse_bool,
            TICKET_CSV.false_positive, path, bool),
        TICKET_LOG.repair_hours: _parse_column(
            columns[TICKET_CSV.repair_hours], float, TICKET_CSV.repair_hours,
            path, float),
        TICKET_LOG.batch_id: _parse_column(
            columns[TICKET_CSV.batch_id], int, TICKET_CSV.batch_id,
            path, np.int64),
    }
    # Ticket times feed every λ/μ window: a NaN or infinite hour would
    # land in no window (or a wrong one) rather than fail.
    _require_rows(
        np.isfinite(loaded[TICKET_LOG.start_hour_abs]),
        columns[TICKET_CSV.start_hour_abs], TICKET_CSV.start_hour_abs, path,
        "a finite hour",
    )
    repair = loaded[TICKET_LOG.repair_hours]
    _require_rows(
        np.isfinite(repair) & (repair >= 0),
        columns[TICKET_CSV.repair_hours], TICKET_CSV.repair_hours, path,
        "a finite, non-negative duration",
    )
    for row, (dc, rack_id) in enumerate(zip(columns[TICKET_CSV.dc],
                                            columns[TICKET_CSV.rack_id])):
        if dc_of_rack[rack_id] != dc:
            raise DataError(
                f"{path}: row {row + 2}: rack {rack_id!r} belongs to "
                f"{dc_of_rack[rack_id]!r}, not {dc!r}"
            )
    for row, (label, category) in enumerate(zip(columns[TICKET_CSV.fault_type],
                                                columns[TICKET_CSV.category])):
        expected = FAULT_CATEGORY[FAULT_TYPES[FAULT_CODE_BY_LABEL[label]]].value
        if category != expected:
            raise DataError(
                f"{path}: row {row + 2}: fault {label!r} is category "
                f"{expected!r}, not {category!r}"
            )
    return log_from_columns(loaded)


@dataclass(frozen=True)
class InventoryTable:
    """Typed view of an exported inventory CSV, one entry per rack.

    String columns stay as tuples of labels; numeric columns become
    typed numpy arrays.  ``decommission_day`` is ``None`` for plain
    exports (the column only appears in censored field datasets).
    """

    rack_id: tuple[str, ...]
    dc: tuple[str, ...]
    region: tuple[str, ...]
    row: np.ndarray
    sku: tuple[str, ...]
    vendor: tuple[str, ...]
    workload: tuple[str, ...]
    rated_power_kw: np.ndarray
    commission_day: np.ndarray
    n_servers: np.ndarray
    hdds_per_server: np.ndarray
    dimms_per_server: np.ndarray
    decommission_day: np.ndarray | None = None

    @property
    def n_racks(self) -> int:
        """Number of inventory rows."""
        return len(self.rack_id)

    def validate_against(self, fleet: Fleet) -> None:
        """Check the inventory matches a fleet row-for-row."""
        racks = fleet.racks
        if self.n_racks != len(racks):
            raise DataError(
                f"inventory has {self.n_racks} racks, fleet has {len(racks)}"
            )
        for index, rack in enumerate(racks):
            if self.rack_id[index] != rack.rack_id:
                raise DataError(
                    f"inventory row {index + 2}: rack {self.rack_id[index]!r} "
                    f"does not match fleet rack {rack.rack_id!r}"
                )
            if int(self.n_servers[index]) != rack.n_servers:
                raise DataError(
                    f"inventory row {index + 2}: {self.rack_id[index]} has "
                    f"{self.n_servers[index]} servers, fleet says {rack.n_servers}"
                )


def load_inventory_csv(path: str | pathlib.Path) -> InventoryTable:
    """Load an exported inventory CSV into a typed :class:`InventoryTable`."""
    path = pathlib.Path(path)
    columns = read_csv_table(path)
    for name in INVENTORY_COLUMNS:
        _column(columns, name, path)
    inv = INVENTORY_CSV
    decommission = None
    if inv.decommission_day in columns:
        decommission = _parse_column(columns[inv.decommission_day], int,
                                     inv.decommission_day, path, np.int64)
    return InventoryTable(
        rack_id=tuple(columns[inv.rack_id]),
        dc=tuple(columns[inv.dc]),
        region=tuple(columns[inv.region]),
        row=_parse_column(columns[inv.row], int, inv.row, path, np.int64),
        sku=tuple(columns[inv.sku]),
        vendor=tuple(columns[inv.vendor]),
        workload=tuple(columns[inv.workload]),
        rated_power_kw=_parse_column(columns[inv.rated_power_kw], float,
                                     inv.rated_power_kw, path, float),
        commission_day=_parse_column(columns[inv.commission_day], int,
                                     inv.commission_day, path, np.int64),
        n_servers=_parse_column(columns[inv.n_servers], int, inv.n_servers,
                                path, np.int64),
        hdds_per_server=_parse_column(columns[inv.hdds_per_server], int,
                                      inv.hdds_per_server, path, np.int64),
        dimms_per_server=_parse_column(columns[inv.dimms_per_server], int,
                                       inv.dimms_per_server, path, np.int64),
        decommission_day=decommission,
    )


def export_dataset(
    dataset: FieldDataset, out_dir: str | pathlib.Path,
) -> dict[str, pathlib.Path]:
    """Write a field dataset as ``tickets.csv`` + ``inventory.csv`` +
    ``sensors.npz`` under ``out_dir``; returns the paths written."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "tickets": out_dir / "tickets.csv",
        "inventory": out_dir / "inventory.csv",
        "sensors": out_dir / _SENSOR_BUNDLE,
    }
    export_ticket_log_csv(dataset.tickets, dataset.fleet, paths["tickets"])
    export_fleet_inventory_csv(
        dataset.fleet, paths["inventory"],
        decommission_day=dataset.decommission_day,
    )
    np.savez_compressed(
        paths["sensors"],
        temp_f=dataset.temp_f, rh=dataset.rh,
        decommission_day=dataset.decommission_day,
    )
    return paths


def load_field_dataset(
    in_dir: str | pathlib.Path, config: "SimulationConfig",
) -> FieldDataset:
    """Load an exported field dataset directory back into memory.

    The fleet is rebuilt deterministically from ``config`` and the
    inventory CSV is validated against it; tickets come from
    ``tickets.csv`` and sensor streams from ``sensors.npz``.
    """
    in_dir = pathlib.Path(in_dir)
    fleet = build_fleet(config.fleet, RngRegistry(config.seed))
    inventory = load_inventory_csv(in_dir / "inventory.csv")
    inventory.validate_against(fleet)
    tickets = load_tickets_csv(in_dir / "tickets.csv", fleet)
    bundle_path = in_dir / _SENSOR_BUNDLE
    if not bundle_path.exists():
        raise DataError(f"no sensor bundle at {bundle_path}")
    arrays, _ = load_array_bundle(bundle_path, mmap=False)
    missing = [name for name in ("temp_f", "rh") if name not in arrays]
    if missing:
        raise DataError(f"{bundle_path} is missing {missing}")
    temp_f, rh = arrays["temp_f"], arrays["rh"]
    decommission = inventory.decommission_day
    if decommission is None:
        decommission = np.full(fleet.n_racks, config.n_days, dtype=np.int64)
    return FieldDataset(
        config=config, fleet=fleet, tickets=tickets,
        temp_f=temp_f, rh=rh, decommission_day=decommission,
    )
