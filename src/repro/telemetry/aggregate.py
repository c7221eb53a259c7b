"""Builds analysis datasets (λ and μ at chosen granularities) from a run.

This is the boundary between "field data" and "analysis": everything
here consumes only what an operator would have — the RMA ticket log,
BMS sensor readings and the rack inventory — and produces the tables
the single-factor and multi-factor analyses consume.

Main products:

* :func:`lambda_matrix` — per-rack per-day ticket counts (the paper's
  failure-generation rate λ at rack/day granularity).
* :func:`mu_matrix` — per-rack per-window concurrent-failure counts
  (the paper's μ, at daily or hourly windows).
* :func:`build_rack_day_table` — one row per commissioned rack-day with
  every Table III feature plus the day's failure count; feeds Figs 2-9
  and the CART fits.
* :func:`rack_static_table` — one row per rack with deployment-time
  features; feeds the provisioning cluster analyses (Q1).
"""

from __future__ import annotations

# repro: noqa-file[schema-fields] — dict keys in this module name Table
# features (table_iii_schema), which deliberately share spellings with
# inventory columns; they are not ticket/inventory artifact keys.

import numpy as np

from ..errors import DataError
from ..failures.engine import SimulationResult
from ..failures.tickets import FaultType, HARDWARE_FAULTS
from .schema import FeatureKind, FeatureSpec, Schema, table_iii_schema
from .table import Table
from .windows import (
    event_day_counts,
    merge_sorted_intervals,
    n_windows,
    per_group_window_counts,
)


def ticket_mask(
    result: SimulationResult,
    faults: list[FaultType] | tuple[FaultType, ...] | None = None,
    true_positives_only: bool = True,
    dedupe_batches: bool = False,
) -> np.ndarray:
    """Boolean selector over the run's tickets.

    Args:
        result: simulation run.
        faults: restrict to these fault types (None = all types).
        true_positives_only: drop false-positive tickets, as the paper
            does ("we use only the true positives in our analysis").
        dedupe_batches: keep one row per correlated batch event (a batch
            is filed as a single RMA with a repeat count); λ counting
            wants this, μ counting does not.
    """
    log = result.tickets
    mask = np.ones(len(log), dtype=bool)
    if true_positives_only:
        mask &= log.true_positive_mask()
    if faults is not None:
        mask &= log.mask_for_faults(list(faults))
    if dedupe_batches:
        mask &= log.batch_dedupe_mask()
    return mask


def lambda_matrix(
    result: SimulationResult,
    faults: list[FaultType] | tuple[FaultType, ...] | None = None,
    true_positives_only: bool = True,
    dedupe_batches: bool = True,
) -> np.ndarray:
    """Per-rack per-day filed-RMA counts, shape (n_racks, n_days).

    Batch events count once (one filed ticket per event) by default.
    """
    mask = ticket_mask(result, faults, true_positives_only, dedupe_batches)
    log = result.tickets
    return event_day_counts(
        group_index=log.rack_index[mask],
        day_index=log.day_index[mask],
        n_groups=result.fleet.arrays().n_racks,
        total_days=result.n_days,
    )


def merge_per_server_intervals(
    server_gid: np.ndarray,
    start_hours: np.ndarray,
    end_hours: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge overlapping downtime intervals belonging to the same server.

    Two disk failures on one server within the same repair window leave
    *one* server down, not two; server-level μ must not double count.

    Returns (server_gid, start, end) of the merged intervals.
    """
    server_gid = np.asarray(server_gid, dtype=np.int64)
    starts = np.asarray(start_hours, dtype=float)
    ends = np.asarray(end_hours, dtype=float)
    if not (len(server_gid) == len(starts) == len(ends)):
        raise DataError("gid/start/end arrays must be aligned")
    order = np.lexsort((starts, server_gid))
    gid, starts, ends = server_gid[order], starts[order], ends[order]
    first_row, merged_end = merge_sorted_intervals(gid, starts, ends)
    return gid[first_row], starts[first_row], merged_end


def mu_matrix(
    result: SimulationResult,
    window_hours: float = 24.0,
    faults: list[FaultType] | tuple[FaultType, ...] | None = None,
    per_server: bool = True,
) -> np.ndarray:
    """Concurrent-unavailability counts μ, shape (n_racks, n_windows).

    μ counts, per rack and window, the devices whose downtime interval
    intersects the window.  Defaults to all hardware faults (§VI-Q1:
    software failures are handled by the application layer, hardware
    failures consume spares).  Only true positives create downtime.

    Args:
        per_server: count distinct *servers* down (overlapping downtime
            on one server merged) — the right unit for server spares.
            Set False to count raw device intervals (component spares:
            each failed disk/DIMM consumes its own spare).
    """
    if faults is None:
        faults = list(HARDWARE_FAULTS)
    mask = ticket_mask(result, faults, true_positives_only=True)
    log = result.tickets
    arrays = result.fleet.arrays()
    total = n_windows(result.n_days, window_hours)

    rack_index = log.rack_index[mask]
    starts = log.start_hour_abs[mask]
    ends = log.end_hour_abs[mask]
    if per_server:
        gid = arrays.server_base[rack_index] + log.server_offset[mask]
        gid, starts, ends = merge_per_server_intervals(gid, starts, ends)
        rack_index = np.searchsorted(arrays.server_base, gid, side="right") - 1
    counts = per_group_window_counts(
        group_index=rack_index,
        start_hours=starts,
        end_hours=ends,
        n_groups=arrays.n_racks,
        window_hours=window_hours,
        total_windows=total,
    )
    if per_server:
        # Sequential failures of one server within a window can still
        # stack after merging; a rack can never have more servers down
        # than it has servers.
        counts = np.minimum(counts, arrays.n_servers[:, np.newaxis])
    return counts


def commissioned_mask_matrix(result: SimulationResult) -> np.ndarray:
    """(n_racks, n_days) boolean: rack in service on that day."""
    arrays = result.fleet.arrays()
    days = np.arange(result.n_days)
    return arrays.commission_day[:, np.newaxis] <= days[np.newaxis, :]


def day_feature_arrays(result: SimulationResult) -> dict[str, np.ndarray]:
    """Per-day calendar feature arrays (day_of_week, month, ...)."""
    calendar = result.calendar
    days = [calendar.day(d) for d in range(result.n_days)]
    return {
        "day_of_week": np.array([d.day_of_week for d in days], dtype=np.int64),
        "week_of_year": np.array([d.week_of_year for d in days], dtype=np.int64),
        "month": np.array([d.month - 1 for d in days], dtype=np.int64),
        "year": np.array([min(d.year, 2) for d in days], dtype=np.int64),
    }


def fleet_schema(result: SimulationResult) -> Schema:
    """Table III schema instantiated with this fleet's category lists."""
    arrays = result.fleet.arrays()
    return table_iii_schema(
        dc_names=list(arrays.dc_names),
        region_names=list(arrays.region_names),
        sku_names=list(arrays.sku_names),
        workload_names=list(arrays.workload_names),
    )


def build_rack_day_table(
    result: SimulationResult,
    faults: list[FaultType] | tuple[FaultType, ...] | None = None,
    extra_fault_columns: dict[str, list[FaultType]] | None = None,
    use_observed_environment: bool = True,
    include_mu: bool = False,
) -> Table:
    """One row per commissioned rack-day, with features and failure counts.

    Columns: every Table III feature (categorical columns as codes) plus

    * ``failures`` — ticket count for the selected fault set,
    * one extra count column per ``extra_fault_columns`` entry
      (e.g. ``{"disk_failures": [FaultType.DISK]}``), and
    * with ``include_mu``: ``mu`` (daily concurrent server
      unavailability from hardware faults) and ``mu_fraction``
      (μ / rack capacity) — the basis of the paper's μmax peak metric.

    Args:
        result: simulation run.
        faults: fault set for the main ``failures`` column (None = all).
        extra_fault_columns: additional named count columns.
        use_observed_environment: read temperature/RH from the BMS
            (noisy, interpolated) rather than simulator ground truth.
        include_mu: add the μ columns described above.
    """
    arrays = result.fleet.arrays()
    n_racks, total_days = arrays.n_racks, result.n_days

    if use_observed_environment:
        temp = result.bms.filled_temp_f().T  # (racks, days)
        rh = result.bms.filled_rh().T
    else:
        temp = result.environment.temp_f.T
        rh = result.environment.rh.T

    day_features = day_feature_arrays(result)
    in_service = commissioned_mask_matrix(result)
    flat = in_service.ravel()  # rack-major order

    def tile_rack(values: np.ndarray) -> np.ndarray:
        return np.repeat(values, total_days)[flat]

    def tile_day(values: np.ndarray) -> np.ndarray:
        return np.tile(values, n_racks)[flat]

    day_grid = np.tile(np.arange(total_days), n_racks)[flat]
    commission = np.repeat(arrays.commission_day, total_days)[flat]
    from ..units import DAYS_PER_MONTH

    columns = {
        "rack_index": np.repeat(np.arange(n_racks), total_days)[flat],
        "day_index": day_grid,
        "sku": tile_rack(arrays.sku_code),
        "age_months": (day_grid - commission) / DAYS_PER_MONTH,
        "rated_power_kw": tile_rack(arrays.rated_power_kw),
        "workload": tile_rack(arrays.workload_code),
        "temp_f": temp.ravel()[flat],
        "rh": rh.ravel()[flat],
        "dc": tile_rack(arrays.dc_code),
        "region": tile_rack(arrays.region_code),
        "row": tile_rack(arrays.row - 1),
        "day_of_week": tile_day(day_features["day_of_week"]),
        "week_of_year": tile_day(day_features["week_of_year"]),
        "month": tile_day(day_features["month"]),
        "year": tile_day(day_features["year"]),
        "failures": lambda_matrix(result, faults).ravel()[flat].astype(float),
    }
    for name, fault_list in (extra_fault_columns or {}).items():
        columns[name] = lambda_matrix(result, fault_list).ravel()[flat].astype(float)
    if include_mu:
        mu = mu_matrix(result, window_hours=24.0)
        columns["mu"] = mu.ravel()[flat].astype(float)
        capacity = np.repeat(arrays.n_servers.astype(float), total_days)[flat]
        columns["mu_fraction"] = columns["mu"] / capacity

    return Table(columns, schema=fleet_schema(result))


def rack_static_table(result: SimulationResult) -> Table:
    """One row per rack: deployment-time features for cluster analyses.

    ``age_months`` is the rack's age at the midpoint of the observation
    window (a single representative value for per-rack clustering;
    per-day analyses use the exact daily age).
    """
    arrays = result.fleet.arrays()
    midpoint = result.n_days / 2.0
    from ..units import DAYS_PER_MONTH

    schema = fleet_schema(result).subset(
        ["sku", "workload", "dc", "region", "row"]
    ).with_feature(FeatureSpec("age_months", FeatureKind.CONTINUOUS)).with_feature(
        FeatureSpec("rated_power_kw", FeatureKind.CONTINUOUS)
    )
    columns = {
        "rack_index": np.arange(arrays.n_racks),
        "sku": arrays.sku_code.astype(np.int64),
        "workload": arrays.workload_code.astype(np.int64),
        "dc": arrays.dc_code.astype(np.int64),
        "region": arrays.region_code.astype(np.int64),
        "row": (arrays.row - 1).astype(np.int64),
        "age_months": (midpoint - arrays.commission_day) / DAYS_PER_MONTH,
        "rated_power_kw": arrays.rated_power_kw,
        "n_servers": arrays.n_servers.astype(np.int64),
        "n_hdds": (arrays.n_servers * arrays.hdds_per_server).astype(np.int64),
        "n_dimms": (arrays.n_servers * arrays.dimms_per_server).astype(np.int64),
    }
    return Table(columns, schema=schema)


def mean_rate_by(
    table: Table,
    key: str,
    value: str = "failures",
) -> dict[str, tuple[float, float, int]]:
    """Mean/sd/count of a rate column per category of ``key``.

    The backbone of Figs 2-9: e.g. ``mean_rate_by(rack_days, "workload")``
    gives each workload's mean rack-day failure rate and its spread.
    """
    if table.n_rows == 0:
        raise DataError("empty table")
    result: dict[str, tuple[float, float, int]] = {}
    for group_key, stats in table.group_reduce(
        [key], value, {"mean": np.mean, "sd": np.std, "count": len}
    ).items():
        label = group_key[0] if isinstance(group_key[0], str) else f"{group_key[0]:g}"
        result[label] = (stats["mean"], stats["sd"], int(stats["count"]))
    return result
