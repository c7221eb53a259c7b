"""File interchange: CSV tickets/inventory and ``.npz`` array bundles.

Lets downstream users pull the simulated "field data" into their own
tooling (pandas, R, spreadsheets) and, conversely, lets the analysis
layer run on externally produced ticket CSVs with the same layout.

:func:`load_array_bundle` is the one reader of ``.npz`` files from
outside the process — store entries, block segments, stream and feature
checkpoints, field-data sensor bundles — so a truncated or garbled file
always fails as a :class:`~repro.errors.DataError` naming it.
"""

from __future__ import annotations

import csv
import json
import pathlib
import struct
import zipfile
import zlib

import numpy as np

from ..datacenter.topology import Fleet
from ..errors import DataError
from ..failures.engine import SimulationResult
from ..failures.tickets import FAULT_CATEGORY, FAULT_TYPES, TicketLog
from .schema import INVENTORY_CSV, INVENTORY_CSV_COLUMNS, TICKET_CSV_COLUMNS

#: CSV headers (the declared schema orders, re-exported under the names
#: this module has always published).
TICKET_COLUMNS = TICKET_CSV_COLUMNS
INVENTORY_COLUMNS = INVENTORY_CSV_COLUMNS


def export_tickets_csv(result: SimulationResult, path: str | pathlib.Path) -> int:
    """Write the run's RMA ticket log as CSV; returns the row count."""
    return export_ticket_log_csv(result.tickets, result.fleet, path)


def export_ticket_log_csv(
    log: TicketLog, fleet: Fleet, path: str | pathlib.Path,
) -> int:
    """Write any :class:`TicketLog` as CSV (same layout as
    :func:`export_tickets_csv`); returns the row count."""
    arrays = fleet.arrays()
    path = pathlib.Path(path)

    day = log.day_index
    start = log.start_hour_abs
    rack = log.rack_index
    offset = log.server_offset
    fault = log.fault_code
    fp = log.false_positive
    repair = log.repair_hours
    batch = log.batch_id

    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TICKET_COLUMNS)
        for i in range(len(log)):
            fault_type = FAULT_TYPES[int(fault[i])]
            writer.writerow([
                i,
                int(day[i]),
                f"{float(start[i]):.3f}",
                arrays.dc_names[int(arrays.dc_code[rack[i]])],
                arrays.rack_ids[rack[i]],
                int(offset[i]),
                fault_type.value,
                FAULT_CATEGORY[fault_type].value,
                int(fp[i]),
                f"{float(repair[i]):.3f}",
                int(batch[i]),
            ])
    return len(log)


def export_inventory_csv(result: SimulationResult, path: str | pathlib.Path) -> int:
    """Write the rack inventory (deployment-time features) as CSV."""
    return export_fleet_inventory_csv(result.fleet, path)


def export_fleet_inventory_csv(
    fleet: Fleet,
    path: str | pathlib.Path,
    decommission_day: np.ndarray | None = None,
) -> int:
    """Write a fleet's rack inventory as CSV; returns the row count.

    Args:
        fleet: the inventory to write, one row per rack.
        decommission_day: optional per-rack exit days; when given, a
            ``decommission_day`` column is appended (field datasets with
            right-censored racks carry it; plain exports do not).
    """
    path = pathlib.Path(path)
    racks = fleet.racks
    if decommission_day is not None and len(decommission_day) != len(racks):
        raise DataError(
            f"decommission_day has {len(decommission_day)} entries "
            f"for {len(racks)} racks"
        )
    header = list(INVENTORY_COLUMNS)
    if decommission_day is not None:
        header.append(INVENTORY_CSV.decommission_day)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for index, rack in enumerate(racks):
            row = [
                rack.rack_id, rack.dc_name, rack.region_name, rack.row,
                rack.sku.name, rack.sku.vendor, rack.workload,
                rack.rated_power_kw, rack.commission_day, rack.n_servers,
                rack.sku.hdds_per_server, rack.sku.dimms_per_server,
            ]
            if decommission_day is not None:
                row.append(int(decommission_day[index]))
            writer.writerow(row)
    return len(racks)


#: Default data-row chunk size of :func:`iter_csv_rows`.
CSV_CHUNK_ROWS = 8192


def iter_csv_rows(
    path: str | pathlib.Path,
    chunk_rows: int = CSV_CHUNK_ROWS,
):
    """Stream a CSV as ``(header, rows)`` chunks of raw string cells.

    The incremental counterpart of :func:`read_csv_table`: at most
    ``chunk_rows`` data rows are resident at a time, so arbitrarily
    large ticket logs can be consumed without materializing the file
    (``repro.stream`` flattens growing exports through this, and
    :func:`read_csv_table` itself is a thin accumulation over it).

    Yields:
        ``(header, rows)`` pairs, the header repeated with every chunk
        so consumers can stay stateless.  A header-only file yields a
        single ``(header, [])`` pair.  Ragged rows raise
        :class:`~repro.errors.DataError` naming the file and the
        absolute data-row number (1-based, counted across chunks — the
        chunking must never blur where in the file the damage is).
    """
    path = pathlib.Path(path)
    if chunk_rows < 1:
        raise DataError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        rows: list[list[str]] = []
        yielded = False
        for row_number, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: ragged row {row_number} "
                    f"({len(row)} cells, header has {len(header)}): {row!r}"
                )
            rows.append(row)
            if len(rows) >= chunk_rows:
                yield header, rows
                yielded = True
                rows = []
        if rows or not yielded:
            yield header, rows


def read_csv_table(path: str | pathlib.Path) -> dict[str, list[str]]:
    """Read a CSV into column lists (header-keyed); raw strings.

    A deliberately small reader for round-trip checks and external-data
    ingestion experiments; converting to a typed :class:`Table` is the
    caller's job (schemas are domain knowledge).  Implemented as an
    accumulation over :func:`iter_csv_rows`.
    """
    columns: dict[str, list[str]] | None = None
    for header, rows in iter_csv_rows(path):
        if columns is None:
            columns = {name: [] for name in header}
        for row in rows:
            for name, cell in zip(header, row):
                columns[name].append(cell)
    assert columns is not None  # iter_csv_rows raises on empty files
    return columns


def save_array_bundle(
    path: str | pathlib.Path,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
) -> pathlib.Path:
    """Write named arrays plus a JSON ``meta`` dict to one ``.npz`` file.

    Uses the *uncompressed* npz container on purpose: ``np.savez`` stores
    members with ``ZIP_STORED``, so :func:`load_array_bundle` can hand
    back zero-copy memory maps of the raw array bytes.  The metadata
    rides along as a ``meta_json`` uint8 member (same convention as the
    stream checkpoints).
    """
    path = pathlib.Path(path)
    if "meta_json" in arrays:
        raise DataError("'meta_json' is reserved for bundle metadata")
    payload = dict(arrays)
    payload["meta_json"] = np.frombuffer(
        json.dumps(meta or {}, sort_keys=True).encode("utf-8"), dtype=np.uint8,
    )
    with path.open("wb") as handle:
        np.savez(handle, **payload)
    return path


def _npz_member_windows(path: pathlib.Path) -> dict[str, tuple[int, int]]:
    """``name -> (absolute data offset, compress_type)`` per npz member.

    The zip central directory records where each member's *local header*
    starts; the variable-length local header (30 fixed bytes + name +
    extra field) is parsed to find where the member's bytes begin.
    """
    windows: dict[str, tuple[int, int]] = {}
    with zipfile.ZipFile(path) as bundle, path.open("rb") as raw:
        for info in bundle.infolist():
            raw.seek(info.header_offset)
            header = raw.read(30)
            if len(header) != 30 or header[:4] != b"PK\x03\x04":
                raise DataError(f"{path}: corrupt zip member {info.filename!r}")
            name_len, extra_len = struct.unpack("<HH", header[26:30])
            offset = info.header_offset + 30 + name_len + extra_len
            windows[info.filename] = (offset, info.compress_type)
    return windows


def load_array_bundle(
    path: str | pathlib.Path,
    mmap: bool = True,
) -> tuple[dict[str, np.ndarray], dict]:
    """Read back an ``.npz`` file: ``(arrays, meta)``.

    ``meta`` is the decoded ``meta_json`` member (``{}`` when the file
    has none, as in :func:`numpy.savez_compressed` bundles written
    without one).  With ``mmap=True`` each stored member is returned as
    a read-only :class:`numpy.memmap` onto the npz file itself (no copy,
    lazily paged), falling back to a plain load for members that cannot
    be mapped (compressed or pickled).  ``np.load(mmap_mode=...)`` does
    not map npz members, hence the manual offset walk.  A missing,
    truncated or garbled file raises :class:`DataError` naming it.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise DataError(f"no such bundle: {path}")
    try:
        arrays: dict[str, np.ndarray] = {}
        windows = _npz_member_windows(path) if mmap else {}
        with np.load(path, allow_pickle=False) as bundle:
            for name in bundle.files:
                member = f"{name}.npy"
                mapped = None
                if mmap and windows.get(member, (0, -1))[1] == zipfile.ZIP_STORED:
                    mapped = _mmap_npy_member(path, windows[member][0])
                arrays[name] = bundle[name] if mapped is None else mapped
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile,
            zlib.error) as error:
        raise DataError(f"bundle {path} is corrupt: {error}") from error
    raw = arrays.pop("meta_json", None)
    meta: dict = {}
    if raw is not None:
        try:
            meta = json.loads(np.asarray(raw, dtype=np.uint8).tobytes().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise DataError(f"bundle {path} metadata is corrupt: {error}") from None
        if not isinstance(meta, dict):
            raise DataError(f"bundle {path} metadata is not a JSON object")
    return arrays, meta


def require_meta_keys(
    path: pathlib.Path, meta: dict, keys: tuple[str, ...], what: str = "metadata",
) -> None:
    """Raise :class:`DataError` naming ``path`` and the ``keys`` that
    ``meta`` (a bundle's decoded metadata, or a part of it) lacks."""
    missing = [key for key in keys if key not in meta]
    if missing:
        raise DataError(
            f"{path}: {what} lacks required key(s) "
            f"{', '.join(repr(key) for key in missing)}"
        )


def _mmap_npy_member(path: pathlib.Path, offset: int) -> np.ndarray | None:
    """Memory-map one stored ``.npy`` member at ``offset``, or None."""
    with path.open("rb") as handle:
        handle.seek(offset)
        try:
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                header = np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                header = np.lib.format.read_array_header_2_0(handle)
            else:
                return None
            shape, fortran, dtype = header
        except (ValueError, OSError):
            return None
        if dtype.hasobject:
            return None
        data_offset = handle.tell()
    return np.memmap(
        path, dtype=dtype, mode="r", offset=data_offset, shape=shape,
        order="F" if fortran else "C",
    )
