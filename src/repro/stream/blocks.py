"""Columnar event core: the stream as chunked structured-array blocks.

:class:`EventBlock` is the stream layer's only unit of work — every
flattener yields blocks and every consumer folds them in through its
``update_block``:

* :data:`EVENT_DTYPE` — one packed record per event (64 bytes, exact
  ``float64`` times and readings so every consumer stays bit-identical
  to the batch path);
* :class:`EventBlock` — a contiguous slab of records plus its absolute
  ``start_seq`` stream position (``seq`` is derived, never stored);
* :func:`blocks_from_parts` — the columnar flatten: per-kind column
  sources, each pre-ordered by event time (ticket ties by log
  ordinal), merged on ``(time_hours, kind rank, source order)`` — the
  stream's total order;
* :func:`follow_directory` — the same flatten over a still-growing
  export, released as far as the appended rows make it final;
* :class:`BlockSegment` — a flattened stream spilled to a single
  ``.npz`` bundle (via :func:`repro.telemetry.io.save_array_bundle`) and read
  back as zero-copy memory maps;
* :class:`StringPool` — interning of rack/SKU/DC labels so segments and
  tables carry small integer codes plus one label table, never
  per-event strings.

The event *model* (kinds, ranks, the rack-geometry inventory) lives
here too, at the bottom of the ``stream`` package's internal layering
(see ``PACKAGE_LAYER_ORDER``).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..errors import DataError
from ..telemetry.schema import INVENTORY_CSV, TICKET_LOG

if TYPE_CHECKING:
    from ..config import SimulationConfig
    from ..datacenter.topology import Fleet
    from ..failures.engine import SimulationResult
    from ..failures.tickets import TicketLog


class EventKind(Enum):
    """The four event kinds of the operator-visible stream."""

    INVENTORY_CHANGE = "inventory-change"
    SENSOR_SAMPLE = "sensor-sample"
    TICKET_OPEN = "ticket-open"
    TICKET_CLOSE = "ticket-close"


#: Tie-break rank at equal timestamps.  Inventory changes land first (a
#: rack exists before it can fail), then sensor samples, then ticket
#: opens, then closes — open-before-close at equal instants keeps the
#: live down-gauge consistent with the batch path's touching-interval
#: merge.  The rank doubles as the stored ``kind`` code in blocks.
KIND_RANK: dict[EventKind, int] = {
    EventKind.INVENTORY_CHANGE: 0,
    EventKind.SENSOR_SAMPLE: 1,
    EventKind.TICKET_OPEN: 2,
    EventKind.TICKET_CLOSE: 3,
}

#: Inverse of :data:`KIND_RANK`: code → kind.
KIND_BY_CODE: tuple[EventKind, ...] = tuple(
    kind for kind, _ in sorted(KIND_RANK.items(), key=lambda item: item[1])
)

ALL_KINDS: frozenset[EventKind] = frozenset(EventKind)

#: Records per block unless the caller chooses otherwise: large enough
#: that per-block Python overhead vanishes against the vectorized ops,
#: small enough that a resident block (~0.5 MB) stays cache- and
#: memory-friendly.
DEFAULT_BLOCK_SIZE = 8192

#: One event as a packed record.  Times and readings are ``float64`` —
#: narrowing them would break the bit-identity contract with the batch
#: path — while indices use the narrowest width that holds real fleets.
EVENT_DTYPE = np.dtype([
    ("time_hours", np.float64),
    ("kind", np.int8),
    (TICKET_LOG.rack_index, np.int32),
    (TICKET_LOG.server_offset, np.int32),
    (TICKET_LOG.day_index, np.int32),
    (TICKET_LOG.fault_code, np.int16),
    (TICKET_LOG.false_positive, np.bool_),
    (TICKET_LOG.repair_hours, np.float64),
    (TICKET_LOG.batch_id, np.int64),
    ("ticket_ordinal", np.int64),
    ("value", np.float64),
    ("value2", np.float64),
])

#: Current on-disk layout version of :class:`BlockSegment` bundles.
SEGMENT_SCHEMA = 1


def _normalize_kinds(
    kinds: Iterable[EventKind] | None,
) -> frozenset[EventKind]:
    if kinds is None:
        return ALL_KINDS
    normalized = frozenset(kinds)
    if not normalized:
        raise DataError("kinds must not be empty")
    unknown = normalized - ALL_KINDS
    if unknown:
        raise DataError(f"unknown event kinds: {sorted(k.value for k in unknown)!r}")
    return normalized


class StringPool:
    """Interning pool: labels in, dense integer codes out.

    Blocks and segments never carry strings — rack/SKU/DC identities
    travel as codes against one shared label table.  ``intern`` is
    idempotent; ``encode`` vectorizes it over label sequences.
    """

    def __init__(self, labels: Iterable[str] = ()):
        self._labels: list[str] = []
        self._index: dict[str, int] = {}
        for label in labels:
            self.intern(label)

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple[str, ...]:
        """All interned labels, in code order."""
        return tuple(self._labels)

    def intern(self, label: str) -> int:
        """The label's code, assigning the next free one if new."""
        code = self._index.get(label)
        if code is None:
            code = len(self._labels)
            self._index[label] = code
            self._labels.append(label)
        return code

    def code_of(self, label: str) -> int:
        """The label's code; raises :class:`DataError` when unknown."""
        try:
            return self._index[label]
        except KeyError:
            raise DataError(f"unknown label {label!r}") from None

    def encode(self, labels: Iterable[str]) -> np.ndarray:
        """Codes for a label sequence (interning new ones)."""
        return np.array([self.intern(label) for label in labels], dtype=np.int64)

    def decode(self, codes: np.ndarray) -> tuple[str, ...]:
        """Labels for a code array."""
        table = self._labels
        try:
            return tuple(table[int(code)] for code in np.asarray(codes).ravel())
        except IndexError:
            raise DataError("code outside the pool") from None


@dataclass(frozen=True)
class StreamInventory:
    """The static substrate a stream consumer needs: rack geometry only.

    A deliberately small projection of the fleet — capacities, service
    dates and grouping labels, nothing the simulator knows that an
    operator would not.  Built from a run, a field dataset, or a bare
    inventory CSV, so the streaming layer never requires the simulator.
    """

    rack_ids: tuple[str, ...]
    n_servers: np.ndarray
    server_base: np.ndarray
    commission_day: np.ndarray
    decommission_day: np.ndarray
    sku_code: np.ndarray
    sku_names: tuple[str, ...]
    dc_code: np.ndarray
    dc_names: tuple[str, ...]
    n_days: int

    @property
    def n_racks(self) -> int:
        """Number of racks."""
        return len(self.rack_ids)

    def fingerprint(self) -> str:
        """Stable digest for checkpoint compatibility checks."""
        import hashlib

        payload = "|".join([
            ",".join(self.rack_ids),
            ",".join(str(int(n)) for n in self.n_servers),
            str(self.n_days),
        ])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def label_pools(self) -> dict[str, StringPool]:
        """Interning pools of the inventory's label columns."""
        return {
            TICKET_LOG.rack_index: StringPool(self.rack_ids),
            INVENTORY_CSV.sku: StringPool(self.sku_names),
            INVENTORY_CSV.dc: StringPool(self.dc_names),
        }

    @staticmethod
    def from_fleet(
        fleet: "Fleet",
        n_days: int,
        decommission_day: np.ndarray | None = None,
    ) -> "StreamInventory":
        """Project a fleet's arrays (decommission defaults to none)."""
        arrays = fleet.arrays()
        if decommission_day is None:
            decommission_day = np.full(arrays.n_racks, n_days, dtype=np.int64)
        return StreamInventory(
            rack_ids=tuple(arrays.rack_ids),
            n_servers=arrays.n_servers.astype(np.int64),
            server_base=arrays.server_base.astype(np.int64),
            commission_day=arrays.commission_day.astype(np.int64),
            decommission_day=np.asarray(decommission_day, dtype=np.int64),
            sku_code=arrays.sku_code.astype(np.int64),
            sku_names=tuple(arrays.sku_names),
            dc_code=arrays.dc_code.astype(np.int64),
            dc_names=tuple(arrays.dc_names),
            n_days=n_days,
        )

    @staticmethod
    def from_result(result: "SimulationResult") -> "StreamInventory":
        """Project a simulation run."""
        return StreamInventory.from_fleet(result.fleet, result.n_days)


def _default_records(n: int) -> np.ndarray:
    """A fresh record slab with every field at its not-applicable value."""
    data = np.zeros(n, dtype=EVENT_DTYPE)
    data[TICKET_LOG.rack_index] = -1
    data[TICKET_LOG.server_offset] = -1
    data[TICKET_LOG.day_index] = -1
    data[TICKET_LOG.fault_code] = -1
    data[TICKET_LOG.batch_id] = -1
    data["ticket_ordinal"] = -1
    return data


class EventBlock:
    """One contiguous chunk of the flattened stream.

    Wraps a structured array of :data:`EVENT_DTYPE` records plus the
    absolute stream position of its first record.  ``seq`` numbers are
    derived (``start_seq + arange``), so slicing is zero-copy and a
    memory-mapped segment never stores them.
    """

    __slots__ = ("data", "start_seq", "_open_columns")

    def __init__(self, data: np.ndarray, start_seq: int = 0):
        if data.dtype != EVENT_DTYPE:
            raise DataError(
                f"EventBlock needs EVENT_DTYPE records, got {data.dtype}"
            )
        if start_seq < 0:
            raise DataError(f"start_seq must be >= 0, got {start_seq}")
        self.data = data
        self.start_seq = int(start_seq)
        self._open_columns: dict[str, np.ndarray] | None | bool = False

    def __len__(self) -> int:
        return len(self.data)

    @property
    def end_seq(self) -> int:
        """Stream position one past the last record."""
        return self.start_seq + len(self.data)

    @property
    def seq(self) -> np.ndarray:
        """Absolute stream positions of the records."""
        return np.arange(self.start_seq, self.end_seq, dtype=np.int64)

    # Column views — attribute access keeps consumers free of string
    # field spelling (and the schema-fields lint quiet).

    @property
    def time_hours(self) -> np.ndarray:
        return self.data["time_hours"]

    @property
    def kind_code(self) -> np.ndarray:
        return self.data["kind"]

    @property
    def rack_index(self) -> np.ndarray:
        return self.data[TICKET_LOG.rack_index]

    @property
    def server_offset(self) -> np.ndarray:
        return self.data[TICKET_LOG.server_offset]

    @property
    def day_index(self) -> np.ndarray:
        return self.data[TICKET_LOG.day_index]

    @property
    def fault_code(self) -> np.ndarray:
        return self.data[TICKET_LOG.fault_code]

    @property
    def false_positive(self) -> np.ndarray:
        return self.data[TICKET_LOG.false_positive]

    @property
    def repair_hours(self) -> np.ndarray:
        return self.data[TICKET_LOG.repair_hours]

    @property
    def batch_id(self) -> np.ndarray:
        return self.data[TICKET_LOG.batch_id]

    @property
    def ticket_ordinal(self) -> np.ndarray:
        return self.data["ticket_ordinal"]

    @property
    def value(self) -> np.ndarray:
        return self.data["value"]

    @property
    def value2(self) -> np.ndarray:
        return self.data["value2"]

    def slice(self, start: int, stop: int | None = None) -> "EventBlock":
        """A zero-copy sub-block (``seq`` numbering preserved)."""
        if start < 0:
            raise DataError(f"slice start must be >= 0, got {start}")
        stop = len(self.data) if stop is None else stop
        return EventBlock(self.data[start:stop], self.start_seq + start)

    def open_ticket_columns(self) -> dict[str, np.ndarray] | None:
        """The ticket-open rows as int64/float64 columns (or None).

        Computed once and cached on the block: every ticket consumer
        (λ, μ, the group counters, the drift detector) needs the same
        gather, and re-doing it per consumer is a measurable share of
        analyze throughput.  Keys deliberately differ from the
        telemetry schema's column names (``rack`` vs ``rack_index``):
        these are transient gather buffers, not a serialized layout.
        """
        if self._open_columns is False:
            mask = self.kind_code == KIND_RANK[EventKind.TICKET_OPEN]
            if not mask.any():
                self._open_columns = None
            else:
                self._open_columns = {
                    "rows": np.nonzero(mask)[0],
                    "time": self.time_hours[mask].astype(np.float64),
                    "rack": self.rack_index[mask].astype(np.int64),
                    "offset": self.server_offset[mask].astype(np.int64),
                    "day": self.day_index[mask].astype(np.int64),
                    "fault": self.fault_code[mask].astype(np.int64),
                    "fp": self.false_positive[mask],
                    "repair": self.repair_hours[mask].astype(np.float64),
                    "batch": self.batch_id[mask].astype(np.int64),
                    "ordinal": self.ticket_ordinal[mask].astype(np.int64),
                }
        return self._open_columns


# ---------------------------------------------------------------------------
# Columnar flatten: per-kind pre-ordered column sources + one stable sort.


class _Source:
    """One pre-ordered per-kind column source feeding the merge.

    ``time_at(a, b)`` materializes the source's sorted event times for
    positions ``[a, b)`` on demand — sources never hold their full time
    column, so flatten memory is bounded by the merge window rather
    than the stream length.
    """

    __slots__ = ("code", "n", "time_at", "fill")

    def __init__(self, code: int, n: int, time_at, fill) -> None:
        self.code = code
        self.n = n
        self.time_at = time_at
        self.fill = fill


def _compact_order(order: np.ndarray) -> np.ndarray:
    return order.astype(np.int32) if len(order) < 2**31 else order


def _inventory_source(inventory: StreamInventory) -> _Source:
    n_days = inventory.n_days
    racks = np.arange(inventory.n_racks, dtype=np.int64)
    exit_mask = inventory.decommission_day < n_days
    time = np.concatenate([
        inventory.commission_day.astype(np.float64) * 24.0,
        inventory.decommission_day[exit_mask].astype(np.float64) * 24.0,
    ])
    rack = np.concatenate([racks, racks[exit_mask]])
    delta = np.concatenate([
        np.ones(inventory.n_racks),
        -np.ones(int(exit_mask.sum())),
    ])
    # Total order within the kind: (time, rack, delta).
    order = np.lexsort((delta, rack, time))
    time, rack, delta = time[order], rack[order], delta[order]

    def fill(out: np.ndarray, rows: np.ndarray, idx: np.ndarray) -> None:
        out["time_hours"][rows] = time[idx]
        out["kind"][rows] = KIND_RANK[EventKind.INVENTORY_CHANGE]
        out[TICKET_LOG.rack_index][rows] = rack[idx]
        out["value"][rows] = delta[idx]

    return _Source(
        KIND_RANK[EventKind.INVENTORY_CHANGE],
        len(time),
        lambda a, b: time[a:b],
        fill,
    )


def _sensor_source(temp_f: np.ndarray, rh: np.ndarray) -> _Source:
    n_days, n_racks = temp_f.shape
    temp_flat = np.ascontiguousarray(temp_f).reshape(-1)
    rh_flat = np.ascontiguousarray(rh).reshape(-1)

    # Sample times are derived, never stored: position // n_racks is
    # the day, and day * 24.0 is exact in float64.
    def time_at(a: int, b: int) -> np.ndarray:
        return (np.arange(a, b, dtype=np.int64) // n_racks) * 24.0

    def fill(out: np.ndarray, rows: np.ndarray, idx: np.ndarray) -> None:
        out["time_hours"][rows] = (idx // n_racks) * 24.0
        out["kind"][rows] = KIND_RANK[EventKind.SENSOR_SAMPLE]
        out[TICKET_LOG.rack_index][rows] = idx % n_racks
        out[TICKET_LOG.day_index][rows] = idx // n_racks
        out["value"][rows] = temp_flat[idx]
        out["value2"][rows] = rh_flat[idx]

    return _Source(
        KIND_RANK[EventKind.SENSOR_SAMPLE], n_days * n_racks, time_at, fill,
    )


def _ticket_source(log: "TicketLog", close: bool) -> _Source:
    kind = EventKind.TICKET_CLOSE if close else EventKind.TICKET_OPEN
    # Zero-copy column views: the typed TicketLog properties copy the
    # whole column per access, which a per-block gather path cannot
    # afford.  float64 is forced for the time math so sort keys are
    # exact.
    start = np.asarray(
        log.column_view(TICKET_LOG.start_hour_abs), dtype=np.float64,
    )
    repair = np.asarray(
        log.column_view(TICKET_LOG.repair_hours), dtype=np.float64,
    )
    event_time = start + repair if close else start
    # Stable sort by event time: positions are log ordinals, so ties
    # break by ordinal.  Only the permutation is retained; sorted times
    # are regathered per merge window from the log's own columns.
    order = _compact_order(np.argsort(event_time, kind="stable"))
    del event_time
    columns = {
        name: log.column_view(name)
        for name in (
            TICKET_LOG.rack_index, TICKET_LOG.server_offset,
            TICKET_LOG.day_index, TICKET_LOG.fault_code,
            TICKET_LOG.false_positive, TICKET_LOG.batch_id,
        )
    }

    def time_at(a: int, b: int) -> np.ndarray:
        ordinal = order[a:b]
        if close:
            return start[ordinal] + repair[ordinal]
        return start[ordinal]

    def fill(out: np.ndarray, rows: np.ndarray, idx: np.ndarray) -> None:
        ordinal = order[idx]
        if close:
            out["time_hours"][rows] = start[ordinal] + repair[ordinal]
        else:
            out["time_hours"][rows] = start[ordinal]
        out["kind"][rows] = KIND_RANK[kind]
        for name, column in columns.items():
            out[name][rows] = column[ordinal]
        out[TICKET_LOG.repair_hours][rows] = repair[ordinal]
        out["ticket_ordinal"][rows] = ordinal

    return _Source(KIND_RANK[kind], len(order), time_at, fill)


def blocks_from_parts(
    inventory: StreamInventory,
    tickets: "TicketLog",
    temp_f: np.ndarray | None = None,
    rh: np.ndarray | None = None,
    kinds: Iterable[EventKind] | None = None,
    skip: int = 0,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Iterator[EventBlock]:
    """Flatten inventory + tickets (+ optional sensors) into blocks.

    The columnar engine behind every flattener: each wanted kind
    contributes a pre-ordered column source, one stable
    ``np.lexsort((kind rank, time))`` derives the global order, and
    blocks of ``block_size`` records are gathered lazily — the permuted
    source columns are never materialized whole.  ``skip`` drops the
    first *n* stream positions while preserving global ``seq``
    numbering, the checkpoint/resume primitive.
    """
    if block_size < 1:
        raise DataError(f"block_size must be >= 1, got {block_size}")
    if skip < 0:
        raise DataError(f"skip must be >= 0, got {skip}")
    wanted = _normalize_kinds(kinds)
    sources: list[_Source] = []
    if EventKind.INVENTORY_CHANGE in wanted:
        sources.append(_inventory_source(inventory))
    if EventKind.SENSOR_SAMPLE in wanted and temp_f is not None:
        if rh is None or temp_f.shape != rh.shape:
            raise DataError("sensor matrices must be aligned")
        sources.append(_sensor_source(temp_f, rh))
    if EventKind.TICKET_OPEN in wanted:
        sources.append(_ticket_source(tickets, close=False))
    if EventKind.TICKET_CLOSE in wanted:
        sources.append(_ticket_source(tickets, close=True))
    return _merge_sources(sources, skip=skip, block_size=block_size)


# Per-source events offered to each merge window.  Windows bound the
# flatten working set to O(window) regardless of stream length; the
# floor keeps the per-window stable sort amortized when callers ask
# for tiny blocks.
_MIN_MERGE_WINDOW = 512


def _merge_sources(
    sources: list[_Source], skip: int, block_size: int,
) -> Iterator[EventBlock]:
    """Windowed k-way merge of time-sorted sources into event blocks.

    Each round, every unexhausted source offers its next ``window``
    times; the cut is the smallest of their final offered times, so
    every record with time <= cut (in any source) sits inside some
    offered slice.  Records up to the cut are concatenated in
    kind-rank order and stable-sorted on time alone — equal times fall
    back to rank then per-source canonical order, the tie-break the
    heap-merge oracle in ``tests/stream_oracle.py`` pins.  A tie run
    that straddles an offered slice is pulled in whole, so equal-time
    records never split across windows.  Peak memory is
    O(window + block_size), independent of the stream length.
    """
    sources = sorted(sources, key=lambda source: source.code)
    total = sum(source.n for source in sources)
    if total == 0 or skip >= total:
        return
    window = max(block_size, _MIN_MERGE_WINDOW)
    cursors = [0] * len(sources)
    position = 0  # absolute seq of the next record to leave the buffer
    pending_src = np.empty(0, dtype=np.int8)
    pending_idx = np.empty(0, dtype=np.int64)
    while True:
        active = [
            index for index, source in enumerate(sources)
            if cursors[index] < source.n
        ]
        if not active:
            break
        offered: dict[int, np.ndarray] = {}
        cut = None
        for index in active:
            a = cursors[index]
            source = sources[index]
            t = source.time_at(a, min(a + window, source.n))
            offered[index] = t
            cut = t[-1] if cut is None else min(cut, t[-1])
        parts_time: list[np.ndarray] = []
        parts_src: list[np.ndarray] = []
        parts_idx: list[np.ndarray] = []

        def take_slice(index: int, a: int, t: np.ndarray) -> int:
            take = int(np.searchsorted(t, cut, side="right"))
            if take:
                parts_time.append(t[:take])
                parts_src.append(np.full(take, index, dtype=np.int8))
                parts_idx.append(np.arange(a, a + take, dtype=np.int64))
                cursors[index] = a + take
            return take

        for index in active:
            source = sources[index]
            t = offered[index]
            take = take_slice(index, cursors[index], t)
            # Extend while the offered slice was consumed whole and
            # rows at exactly `cut` remain beyond it: a tie run must
            # land in one window for the rank tie-break to hold.
            while take == len(t) and cursors[index] < source.n:
                a = cursors[index]
                t = source.time_at(a, min(a + window, source.n))
                take = take_slice(index, a, t)
        del offered
        window_time = np.concatenate(parts_time)
        window_order = np.argsort(window_time, kind="stable")
        window_src = np.concatenate(parts_src)[window_order]
        window_idx = np.concatenate(parts_idx)[window_order]
        del window_time, window_order, parts_time, parts_src, parts_idx
        pending_src = np.concatenate([pending_src, window_src])
        pending_idx = np.concatenate([pending_idx, window_idx])
        del window_src, window_idx
        if position < skip:
            drop = min(skip - position, len(pending_src))
            pending_src = pending_src[drop:]
            pending_idx = pending_idx[drop:]
            position += drop
        offset = 0
        while len(pending_src) - offset >= block_size:
            yield _gather_block(
                sources,
                pending_src[offset:offset + block_size],
                pending_idx[offset:offset + block_size],
                position,
            )
            offset += block_size
            position += block_size
        if offset:
            pending_src = pending_src[offset:].copy()
            pending_idx = pending_idx[offset:].copy()
    if len(pending_src):
        yield _gather_block(sources, pending_src, pending_idx, position)


def _gather_block(
    sources: list[_Source],
    src: np.ndarray,
    idx: np.ndarray,
    start_seq: int,
) -> EventBlock:
    data = _default_records(len(src))
    for index, source in enumerate(sources):
        rows = np.nonzero(src == index)[0]
        if len(rows):
            source.fill(data, rows, idx[rows])
    return EventBlock(data, start_seq=start_seq)


def blocks_from_result(
    result: "SimulationResult",
    kinds: Iterable[EventKind] | None = None,
    skip: int = 0,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Iterator[EventBlock]:
    """Flatten a simulation run into blocks (BMS sensor readings)."""
    return blocks_from_parts(
        StreamInventory.from_result(result),
        tickets=result.tickets,
        temp_f=result.bms.temp_f,
        rh=result.bms.rh,
        kinds=kinds,
        skip=skip,
        block_size=block_size,
    )


def _load_directory(
    in_dir: pathlib.Path, config: "SimulationConfig",
) -> tuple[StreamInventory, "Fleet"]:
    from ..datacenter.builder import build_fleet
    from ..fielddata.ingest import load_inventory_csv
    from ..rng import RngRegistry

    fleet = build_fleet(config.fleet, RngRegistry(config.seed))
    inventory = load_inventory_csv(in_dir / "inventory.csv")
    inventory.validate_against(fleet)
    stream_inventory = StreamInventory.from_fleet(
        fleet, config.n_days, decommission_day=inventory.decommission_day,
    )
    return stream_inventory, fleet


def directory_inventory(
    in_dir: str | pathlib.Path, config: "SimulationConfig",
) -> StreamInventory:
    """The :class:`StreamInventory` of an exported run/field directory.

    The fleet is rebuilt deterministically from ``config`` and checked
    against ``inventory.csv`` (same contract as
    :func:`repro.fielddata.ingest.load_field_dataset`); censoring dates
    are honored when the export carries them.
    """
    return _load_directory(pathlib.Path(in_dir), config)[0]


def _load_sensors(
    in_dir: pathlib.Path,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    from ..telemetry.io import load_array_bundle

    bundle_path = in_dir / "sensors.npz"
    if not bundle_path.exists():
        return None, None
    arrays, _ = load_array_bundle(bundle_path, mmap=False)
    if "temp_f" not in arrays or "rh" not in arrays:
        raise DataError(f"{bundle_path} is not a sensor bundle")
    return arrays["temp_f"], arrays["rh"]


def blocks_from_directory(
    in_dir: str | pathlib.Path,
    config: "SimulationConfig",
    kinds: Iterable[EventKind] | None = None,
    skip: int = 0,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Iterator[EventBlock]:
    """Flatten an exported directory (``repro simulate``/``corrupt``).

    ``tickets.csv`` and ``inventory.csv`` are required; the
    ``sensors.npz`` bundle is optional (plain ``simulate`` exports do
    not carry one — sensor-sample events are simply absent then).
    """
    from ..fielddata.ingest import load_tickets_csv

    in_dir = pathlib.Path(in_dir)
    inventory, fleet = _load_directory(in_dir, config)
    temp_f, rh = _load_sensors(in_dir)
    return blocks_from_parts(
        inventory, load_tickets_csv(in_dir / "tickets.csv", fleet),
        temp_f=temp_f, rh=rh, kinds=kinds, skip=skip, block_size=block_size,
    )


def _check_appended(
    tickets: "TicketLog", first_new: int, path: pathlib.Path,
) -> None:
    """Refuse appended rows that could sort ahead of released records.

    Released records end at the last row's start; an appended row that
    starts no earlier cannot open or (its repair time being
    non-negative, which ingest enforces) close before them.
    """
    start = np.asarray(
        tickets.column_view(TICKET_LOG.start_hour_abs), dtype=np.float64,
    )
    begin = max(first_new - 1, 0)
    backwards = np.nonzero(np.diff(start[begin:]) < 0)[0]
    if len(backwards):
        row = begin + int(backwards[0]) + 1
        raise DataError(
            f"{path}: row {row + 2}: tickets must be appended in "
            "start-time order for --follow"
        )


def follow_directory(
    in_dir: str | pathlib.Path,
    config: "SimulationConfig",
    poll_interval: float = 1.0,
    max_idle_polls: int = 3,
    sleep=None,
    skip: int = 0,
) -> Iterator[EventBlock]:
    """Stream a *growing* export directory as the one-shot stream.

    Each poll that finds ``tickets.csv`` grown re-runs the one-shot
    flatten over the rows present and releases the records ordered
    before ``(last row's start_hour_abs, ticket-open rank)``.  The
    producer must append rows in non-decreasing ``start_hour_abs``
    order (the exporters' canonical order; anything else raises
    :class:`~repro.errors.DataError`), so no later row can sort ahead
    of a released record.  After ``max_idle_polls`` consecutive polls
    with no growth the rest of the stream is drained.  The yielded
    blocks therefore carry exactly the records and ``seq`` numbers of
    :func:`blocks_from_directory` with the same ``skip`` — inventory
    changes and sensor samples included.

    ``sleep`` is injectable for tests (defaults to :func:`time.sleep`).
    """
    import time

    from ..fielddata.ingest import load_tickets_csv

    if max_idle_polls < 1:
        raise DataError(f"max_idle_polls must be >= 1, got {max_idle_polls}")
    if sleep is None:
        sleep = time.sleep
    in_dir = pathlib.Path(in_dir)
    inventory, fleet = _load_directory(in_dir, config)
    temp_f, rh = _load_sensors(in_dir)
    tickets_path = in_dir / "tickets.csv"
    open_rank = KIND_RANK[EventKind.TICKET_OPEN]
    tickets: "TicketLog | None" = None
    released = float("-inf")
    emitted = skip
    idle_polls = 0

    def flatten(log: "TicketLog") -> Iterator[EventBlock]:
        return blocks_from_parts(
            inventory, log, temp_f=temp_f, rh=rh, skip=emitted,
        )

    while True:
        seen = 0 if tickets is None else len(tickets)
        grown = None
        if tickets_path.exists():
            grown = load_tickets_csv(tickets_path, fleet)
        if grown is None or len(grown) <= seen:
            idle_polls += 1
            if idle_polls >= max_idle_polls:
                break
        else:
            idle_polls = 0
            _check_appended(grown, seen, tickets_path)
            tickets = grown
            released = float(
                tickets.column_view(TICKET_LOG.start_hour_abs)[-1]
            )
            for block in flatten(tickets):
                time_hours = block.time_hours
                final = (time_hours < released) | (
                    (time_hours == released) & (block.kind_code < open_rank)
                )
                keep = len(block) if final.all() else int(np.argmin(final))
                if keep:
                    yield block.slice(0, keep)
                    emitted += keep
                if keep < len(block):
                    break
        sleep(poll_interval)
    if tickets is None:
        # Never saw a row: the one-shot engine reports the missing or
        # empty file exactly as a one-shot run would.
        tickets = load_tickets_csv(tickets_path, fleet)
    yield from flatten(tickets)


class BlockSegment:
    """A flattened stream region as one contiguous record array.

    The spill format of the columnar core: ``save`` writes a single
    uncompressed ``.npz`` bundle (records + JSON metadata), ``load``
    memory-maps it back so iteration over a multi-gigabyte trace pages
    lazily.  Iterating yields :class:`EventBlock` views of
    ``block_size`` records; nothing is copied.
    """

    def __init__(
        self,
        records: np.ndarray,
        start_seq: int = 0,
        block_size: int = DEFAULT_BLOCK_SIZE,
        pools: dict[str, tuple[str, ...]] | None = None,
    ):
        if records.dtype != EVENT_DTYPE:
            raise DataError(
                f"BlockSegment needs EVENT_DTYPE records, got {records.dtype}"
            )
        if block_size < 1:
            raise DataError(f"block_size must be >= 1, got {block_size}")
        self.records = records
        self.start_seq = int(start_seq)
        self.block_size = int(block_size)
        self.pools = dict(pools or {})

    @property
    def n_events(self) -> int:
        return len(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[EventBlock]:
        for start in range(0, len(self.records), self.block_size):
            yield EventBlock(
                self.records[start:start + self.block_size],
                start_seq=self.start_seq + start,
            )

    @staticmethod
    def from_blocks(
        blocks: Iterable[EventBlock],
        block_size: int = DEFAULT_BLOCK_SIZE,
        pools: dict[str, StringPool] | None = None,
    ) -> "BlockSegment":
        """Materialize a block iterator (positions must be contiguous)."""
        parts: list[np.ndarray] = []
        start_seq: int | None = None
        expected: int | None = None
        for block in blocks:
            if start_seq is None:
                start_seq = block.start_seq
            elif block.start_seq != expected:
                raise DataError(
                    f"blocks are not contiguous: expected start_seq "
                    f"{expected}, got {block.start_seq}"
                )
            expected = block.end_seq
            parts.append(block.data)
        records = (np.concatenate(parts) if parts
                   else np.empty(0, dtype=EVENT_DTYPE))
        return BlockSegment(
            records,
            start_seq=start_seq or 0,
            block_size=block_size,
            pools={name: pool.labels for name, pool in (pools or {}).items()},
        )

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the segment as one uncompressed ``.npz`` bundle."""
        from ..telemetry.io import save_array_bundle

        meta = {
            "schema": SEGMENT_SCHEMA,
            "start_seq": self.start_seq,
            "block_size": self.block_size,
            "n_events": self.n_events,
            "pools": {name: list(labels) for name, labels in self.pools.items()},
        }
        return save_array_bundle(path, {"events": self.records}, meta)

    @staticmethod
    def load(path: str | pathlib.Path, mmap: bool = True) -> "BlockSegment":
        """Read a saved segment back (memory-mapped by default)."""
        from ..telemetry.io import load_array_bundle

        arrays, meta = load_array_bundle(path, mmap=mmap)
        if meta.get("schema") != SEGMENT_SCHEMA or "events" not in arrays:
            raise DataError(f"{path} is not a block segment")
        records = np.asarray(arrays["events"])
        if records.dtype != EVENT_DTYPE:
            # A segment written by a different layout version: refuse
            # rather than misread fields.
            raise DataError(f"{path}: unknown segment record layout")
        if len(records) != int(meta.get("n_events", -1)):
            raise DataError(f"{path}: truncated segment")
        return BlockSegment(
            records,
            start_seq=int(meta.get("start_seq", 0)),
            block_size=int(meta.get("block_size", DEFAULT_BLOCK_SIZE)),
            pools={name: tuple(labels)
                   for name, labels in meta.get("pools", {}).items()},
        )
