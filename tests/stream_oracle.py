"""Test-only reference implementations of the stream layer.

The package streams :class:`~repro.stream.blocks.EventBlock` chunks
only.  These references keep the one-event-at-a-time definitions the
block paths are property-tested against:

* :class:`Event` plus :func:`iter_block_events` / :func:`block_of` — a
  per-record dataclass view of blocks, and its inverse;
* :func:`flatten_parts_merged` — the generator-based heap merge, the
  order oracle for the columnar flatten;
* ``Reference*`` subclasses — per-event ``update(event)`` rules for
  the consumers that have no batch counterpart to compare against
  (λ and μ are checked against :mod:`repro.telemetry.aggregate`
  instead);
* :func:`reference_merge_per_server_intervals` and
  :func:`reference_batch_dedupe_mask` — the row-by-row interval merge
  and batch dedupe that the λ/μ array kernels replaced.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from repro.errors import DataError
from repro.failures.tickets import FAULT_CODE, HARDWARE_FAULTS, TicketLog
from repro.predict.features import StreamingFeatures
from repro.predict.monitor import PredictiveMonitor
from repro.stream.blocks import (
    KIND_BY_CODE,
    KIND_RANK,
    EventBlock,
    EventKind,
    StreamInventory,
    _default_records,
    _normalize_kinds,
)
from repro.stream.estimators import StreamingGroupCounts
from repro.stream.triggers import (
    Alert,
    AlertKind,
    RateDriftDetector,
    SlaRiskMonitor,
)


@dataclass(frozen=True, slots=True, eq=False)
class Event:
    """One stream record as a dataclass (fields as in ``EVENT_DTYPE``)."""

    seq: int
    time_hours: float
    kind: EventKind
    rack_index: int = -1
    server_offset: int = -1
    day_index: int = -1
    fault_code: int = -1
    false_positive: bool = False
    repair_hours: float = 0.0
    batch_id: int = -1
    ticket_ordinal: int = -1
    value: float = 0.0
    value2: float = 0.0

    @property
    def end_hour_abs(self) -> float:
        """Resolution time of a ticket-open event."""
        return self.time_hours + self.repair_hours

    def _identity(self) -> tuple:
        # NaN sensor readings (missing BMS samples) must compare equal
        # across passes, so normalize them to a sentinel.
        value = None if self.value != self.value else self.value
        value2 = None if self.value2 != self.value2 else self.value2
        return (
            self.seq, self.time_hours, self.kind, self.rack_index,
            self.server_offset, self.day_index, self.fault_code,
            self.false_positive, self.repair_hours, self.batch_id,
            self.ticket_ordinal, value, value2,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())


_FIELDS = (
    "time_hours", "rack_index", "server_offset", "day_index", "fault_code",
    "false_positive", "repair_hours", "batch_id", "ticket_ordinal", "value",
    "value2",
)


def iter_block_events(block: EventBlock) -> Iterator[Event]:
    """A block's records as :class:`Event` objects."""
    columns = [getattr(block, name).tolist() for name in _FIELDS]
    for seq, code, row in zip(block.seq.tolist(), block.kind_code.tolist(),
                              zip(*columns)):
        yield Event(seq, row[0], KIND_BY_CODE[code], *row[1:])


def block_events(blocks: Iterable[EventBlock]) -> list[Event]:
    """Every record of a block stream, as events."""
    return [event for block in blocks for event in iter_block_events(block)]


def block_of(*events: Event, start_seq: int = 0) -> EventBlock:
    """Pack events into one block (their ``seq`` fields are ignored)."""
    data = _default_records(len(events))
    data["kind"] = [KIND_RANK[event.kind] for event in events]
    for name in _FIELDS:
        data[name] = [getattr(event, name) for event in events]
    return EventBlock(data, start_seq=start_seq)


# ---------------------------------------------------------------------------
# Order oracle: per-kind generators + heap merge.


def _inventory_events(inventory: StreamInventory) -> Iterator[Event]:
    entries = [
        (float(day) * 24.0, rack, +1.0)
        for rack, day in enumerate(inventory.commission_day.tolist())
    ]
    entries += [
        (float(day) * 24.0, rack, -1.0)
        for rack, day in enumerate(inventory.decommission_day.tolist())
        if day < inventory.n_days
    ]
    entries.sort()
    for time_hours, rack, delta in entries:
        yield Event(
            seq=-1, time_hours=time_hours, kind=EventKind.INVENTORY_CHANGE,
            rack_index=rack, value=delta,
        )


def _sensor_events(temp_f: np.ndarray, rh: np.ndarray) -> Iterator[Event]:
    n_days, n_racks = temp_f.shape
    for day in range(n_days):
        for rack in range(n_racks):
            yield Event(
                seq=-1, time_hours=day * 24.0,
                kind=EventKind.SENSOR_SAMPLE, rack_index=rack,
                day_index=day, value=float(temp_f[day, rack]),
                value2=float(rh[day, rack]),
            )


def _ticket_open_events(log: TicketLog) -> Iterator[Event]:
    """Ticket-open events in start-time order (stable by log position)."""
    if len(log) == 0:
        return
    # The typed TicketLog properties copy a whole column per access.
    start = log.start_hour_abs
    rack = log.rack_index
    offset = log.server_offset
    day = log.day_index
    fault = log.fault_code
    fp = log.false_positive
    repair = log.repair_hours
    batch = log.batch_id
    for ordinal in np.argsort(start, kind="stable").tolist():
        yield Event(
            seq=-1,
            time_hours=float(start[ordinal]),
            kind=EventKind.TICKET_OPEN,
            rack_index=int(rack[ordinal]),
            server_offset=int(offset[ordinal]),
            day_index=int(day[ordinal]),
            fault_code=int(fault[ordinal]),
            false_positive=bool(fp[ordinal]),
            repair_hours=float(repair[ordinal]),
            batch_id=int(batch[ordinal]),
            ticket_ordinal=int(ordinal),
        )


def close_of(open_event: Event) -> Event:
    """The ticket-close event a ticket-open event implies."""
    return replace(
        open_event,
        kind=EventKind.TICKET_CLOSE,
        time_hours=open_event.end_hour_abs,
    )


class CloseHeap:
    """Pending ticket-close events, synthesized from opens."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, open_event: Event) -> None:
        close = close_of(open_event)
        heapq.heappush(
            self._heap, (close.time_hours, open_event.ticket_ordinal, close)
        )

    def pop_due(self, time_hours: float, rank: int) -> Iterator[Event]:
        """Closes strictly ordered before a ``(time, rank)`` key."""
        close_rank = KIND_RANK[EventKind.TICKET_CLOSE]
        while self._heap and (self._heap[0][0], close_rank) < (time_hours, rank):
            yield heapq.heappop(self._heap)[2]

    def drain(self) -> Iterator[Event]:
        """All remaining closes, in order."""
        while self._heap:
            yield heapq.heappop(self._heap)[2]


def _merge_events(
    sources: list[Iterator[Event]],
    kinds: frozenset[EventKind],
    skip: int = 0,
) -> Iterator[Event]:
    """Heap-merge sources, synthesize closes, assign global seq numbers."""
    emit_closes = EventKind.TICKET_CLOSE in kinds
    merged = heapq.merge(
        *sources, key=lambda e: (e.time_hours, KIND_RANK[e.kind])
    )
    closes = CloseHeap()
    seq = 0

    def numbered(event: Event) -> Iterator[Event]:
        nonlocal seq
        if seq >= skip:
            yield replace(event, seq=seq)
        seq += 1

    for event in merged:
        if emit_closes:
            for close in closes.pop_due(event.time_hours, KIND_RANK[event.kind]):
                yield from numbered(close)
        if event.kind is EventKind.TICKET_OPEN and emit_closes:
            closes.push(event)
        if event.kind in kinds:
            yield from numbered(event)
    if emit_closes:
        for close in closes.drain():
            yield from numbered(close)


def flatten_parts_merged(
    inventory: StreamInventory,
    tickets: TicketLog,
    temp_f: np.ndarray | None = None,
    rh: np.ndarray | None = None,
    kinds: Iterable[EventKind] | None = None,
    skip: int = 0,
) -> Iterator[Event]:
    """The heap-merge flatten ``blocks_from_parts`` must reproduce."""
    wanted = _normalize_kinds(kinds)
    sources: list[Iterator[Event]] = []
    if EventKind.INVENTORY_CHANGE in wanted:
        sources.append(_inventory_events(inventory))
    if EventKind.SENSOR_SAMPLE in wanted and temp_f is not None:
        if rh is None or temp_f.shape != rh.shape:
            raise DataError("sensor matrices must be aligned")
        sources.append(_sensor_events(temp_f, rh))
    if wanted & {EventKind.TICKET_OPEN, EventKind.TICKET_CLOSE}:
        sources.append(_ticket_open_events(tickets))
    return _merge_events(sources, wanted, skip=skip)


# ---------------------------------------------------------------------------
# Per-event consumer references.


class ReferenceGroupCounts(StreamingGroupCounts):
    """:class:`StreamingGroupCounts` one event at a time."""

    def update(self, event: Event) -> None:
        if event.kind is not EventKind.TICKET_OPEN or event.false_positive:
            return
        if event.batch_id >= 0:
            if event.batch_id in self._seen_batches:
                return
            self._seen_batches.add(event.batch_id)
        if not 0 <= event.rack_index < len(self.group_code):
            return
        day = max(int(event.time_hours // 24.0), 0)
        self._advance(day)
        group = int(self.group_code[event.rack_index])
        self.totals[group] += 1
        self._ring[group, day % self.trailing_days] += 1


class ReferenceSlaRiskMonitor(SlaRiskMonitor):
    """:class:`SlaRiskMonitor` one event at a time."""

    def _tracks(self, event: Event) -> bool:
        if event.false_positive:
            return False
        if event.fault_code not in self._faults.codes:
            return False
        return 0 <= event.rack_index < self.inventory.n_racks

    def update(self, event: Event) -> list[Alert]:
        if event.kind not in (EventKind.TICKET_OPEN, EventKind.TICKET_CLOSE) \
                or not self._tracks(event):
            return []
        gid = int(self.inventory.server_base[event.rack_index]) \
            + event.server_offset
        count = self._active.get(gid, 0)
        if event.kind is EventKind.TICKET_OPEN:
            self._active[gid] = count + 1
            if count == 0:
                self.down[event.rack_index] += 1
        elif count <= 1:
            self._active.pop(gid, None)
            if count == 1:
                self.down[event.rack_index] -= 1
        else:
            self._active[gid] = count - 1
        return self._check(event.rack_index, event.time_hours)

    def _check(self, rack: int, time_hours: float) -> list[Alert]:
        capacity = int(self.inventory.n_servers[rack])
        down = min(int(self.down[rack]), capacity)
        if down <= self.allowed[rack] + self._EPSILON * max(capacity, 1):
            self.breached[rack] = False
            return []
        if self.breached[rack]:
            return []
        self.breached[rack] = True
        self.alerts_emitted += 1
        return [Alert(
            kind=AlertKind.SLA_RISK,
            time_hours=time_hours,
            rack_index=rack,
            value=float(down),
            threshold=float(self.allowed[rack]),
            message=(
                f"rack {self.inventory.rack_ids[rack]}: {down} servers "
                f"down exceeds spares + shortfall "
                f"({self.allowed[rack]:.2f}) at SLA "
                f"{self.sla.percent_label}"
            ),
        )]


class ReferenceDriftDetector(RateDriftDetector):
    """:class:`RateDriftDetector` one event at a time."""

    def _counts(self, event: Event) -> bool:
        if event.false_positive:
            return False
        if event.batch_id >= 0:
            if event.batch_id in self._seen_batches:
                return False
            self._seen_batches.add(event.batch_id)
        return True

    def update(self, event: Event) -> list[Alert]:
        if event.kind is not EventKind.TICKET_OPEN:
            return []
        alerts: list[Alert] = []
        day = int(event.time_hours // 24.0)
        if day > self._current_day:
            alerts = self._roll_to(day, event.time_hours)
        if self._counts(event) and 0 <= day < self.n_days:
            self.day_counts[day] += 1
        return alerts


class ReferenceFeatures(StreamingFeatures):
    """:class:`StreamingFeatures` one event at a time."""

    _HW_CODES = frozenset(FAULT_CODE[fault] for fault in HARDWARE_FAULTS)

    def update(self, event: Event) -> None:
        rack = event.rack_index
        if not 0 <= rack < self.inventory.n_racks:
            return
        day = max(int(event.time_hours // 24.0), 0)
        if event.kind is EventKind.SENSOR_SAMPLE:
            self._advance(day)
            self.sensor_count[rack] += 1
            if event.value > self.hot_temp_f:
                self.hot_total[rack] += 1
                self._hot_ring[rack, day % self.window_days] += 1
            if event.value2 > self.humid_rh:
                self.humid_total[rack] += 1
            return
        if event.kind is not EventKind.TICKET_OPEN or event.false_positive:
            return
        offset = event.server_offset
        if not 0 <= offset < int(self.inventory.n_servers[rack]):
            return
        self._advance(day)
        gid = int(self.inventory.server_base[rack]) + offset
        if event.fault_code not in self._HW_CODES:
            self.other_total[gid] += 1
            return
        self.hw_total[gid] += 1
        self._hw_ring[gid, day % self.window_days] += 1
        if event.fault_code == self._disk_code:
            self.disk_total[gid] += 1
        last = self.last_hw_time[gid]
        if not math.isnan(last):
            self.gap_sum[gid] += event.time_hours - last
            self.gap_count[gid] += 1
        self.last_hw_time[gid] = event.time_hours


class ReferencePredictiveMonitor(PredictiveMonitor):
    """:class:`PredictiveMonitor` one event at a time."""

    def __init__(self, inventory: StreamInventory, model, **kwargs):
        super().__init__(inventory, model, **kwargs)
        features = self.features
        self.features = ReferenceFeatures(
            inventory, window_days=features.window_days,
            hot_temp_f=features.hot_temp_f, humid_rh=features.humid_rh,
        )

    def update(self, event: Event) -> list[Alert]:
        day = max(int(event.time_hours // 24.0), 0)
        alerts: list[Alert] = []
        if day > self._current_day:
            alerts = self._roll_to(day)
        self.features.update(event)
        return alerts


# ---------------------------------------------------------------------------
# λ/μ rules, one row at a time: the references for the array kernels.


def reference_merge_per_server_intervals(
    server_gid: np.ndarray,
    start_hours: np.ndarray,
    end_hours: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort by (server, start), then merge greedily in one Python loop.

    Returns (server_gid, start, end) of the merged intervals.
    """
    server_gid = np.asarray(server_gid, dtype=np.int64)
    starts = np.asarray(start_hours, dtype=float)
    ends = np.asarray(end_hours, dtype=float)
    if not (len(server_gid) == len(starts) == len(ends)):
        raise DataError("gid/start/end arrays must be aligned")
    if len(server_gid) == 0:
        return server_gid, starts, ends

    order = np.lexsort((starts, server_gid))
    gid_sorted = server_gid[order]
    start_sorted = starts[order]
    end_sorted = ends[order]

    merged_gid: list[int] = []
    merged_start: list[float] = []
    merged_end: list[float] = []
    current_gid = int(gid_sorted[0])
    current_start = float(start_sorted[0])
    current_end = float(end_sorted[0])
    for gid, start, end in zip(gid_sorted[1:].tolist(),
                               start_sorted[1:].tolist(),
                               end_sorted[1:].tolist()):
        if gid == current_gid and start <= current_end:
            current_end = max(current_end, end)
            continue
        merged_gid.append(current_gid)
        merged_start.append(current_start)
        merged_end.append(current_end)
        current_gid, current_start, current_end = gid, start, end
    merged_gid.append(current_gid)
    merged_start.append(current_start)
    merged_end.append(current_end)
    return (np.array(merged_gid, dtype=np.int64),
            np.array(merged_start), np.array(merged_end))


def reference_batch_dedupe_mask(batch_id: np.ndarray) -> np.ndarray:
    """Keep each batch id's first row in log order (and every -1 row)."""
    keep = np.ones(len(batch_id), dtype=bool)
    seen: set[int] = set()
    for row in np.flatnonzero(np.asarray(batch_id) >= 0).tolist():
        bid = int(batch_id[row])
        if bid in seen:
            keep[row] = False
        else:
            seen.add(bid)
    return keep
