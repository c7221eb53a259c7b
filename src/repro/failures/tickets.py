"""RMA ticket taxonomy and the columnar ticket log.

§IV: "A common reporting mechanism, called RMA (Return Merchandise
Authorization) tickets, is used in industry for detection and
identification of hardware and software failures."  Ticket descriptions
fall into four categories — hardware, software, boot, others — with the
per-type breakdown of Table II.  Tickets can be *false positives* ("no
specific error is identified"); the paper uses only true positives in
its analyses, and so do ours (the log keeps both, flagged).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import DataError


class TicketCategory(Enum):
    """Top-level RMA categories (Table II rows groups)."""

    HARDWARE = "Hardware"
    SOFTWARE = "Software"
    BOOT = "Boot"
    OTHERS = "Others"


class FaultType(Enum):
    """Fine-grained fault types, matching Table II's rows."""

    TIMEOUT = "Timeout failure"
    DEPLOYMENT = "Deployment failure"
    CRASH = "Node/Agent crash"
    PXE_BOOT = "PXE boot failure"
    REBOOT = "Reboot failure"
    DISK = "Disk failure"
    MEMORY = "Memory failure"
    POWER = "Power failure"
    SERVER = "Server failure"
    NETWORK = "Network failure"
    OTHER = "Others"


FAULT_CATEGORY: dict[FaultType, TicketCategory] = {
    FaultType.TIMEOUT: TicketCategory.SOFTWARE,
    FaultType.DEPLOYMENT: TicketCategory.SOFTWARE,
    FaultType.CRASH: TicketCategory.SOFTWARE,
    FaultType.PXE_BOOT: TicketCategory.BOOT,
    FaultType.REBOOT: TicketCategory.BOOT,
    FaultType.DISK: TicketCategory.HARDWARE,
    FaultType.MEMORY: TicketCategory.HARDWARE,
    FaultType.POWER: TicketCategory.HARDWARE,
    FaultType.SERVER: TicketCategory.HARDWARE,
    FaultType.NETWORK: TicketCategory.HARDWARE,
    FaultType.OTHER: TicketCategory.OTHERS,
}

# Stable integer codes for the columnar log.
FAULT_TYPES: tuple[FaultType, ...] = tuple(FaultType)
FAULT_CODE: dict[FaultType, int] = {fault: i for i, fault in enumerate(FAULT_TYPES)}

HARDWARE_FAULTS: tuple[FaultType, ...] = tuple(
    fault for fault, category in FAULT_CATEGORY.items()
    if category == TicketCategory.HARDWARE
)


@dataclass(frozen=True)
class RmaTicket:
    """A single materialized RMA ticket (row view into the log).

    Attributes:
        day_index: simulation day the fault was detected.
        start_hour_abs: absolute hour (day_index * 24 + intra-day hour).
        rack_index: flat rack index into the fleet arrays.
        server_offset: server position within the rack.
        fault: fine-grained fault type.
        false_positive: True when investigation found no real fault.
        repair_hours: time to resolution (device unavailable meanwhile,
            for hardware faults).
        batch_id: >= 0 when this ticket belongs to a correlated batch
            event; -1 for independent failures.
    """

    day_index: int
    start_hour_abs: float
    rack_index: int
    server_offset: int
    fault: FaultType
    false_positive: bool
    repair_hours: float
    batch_id: int = -1

    @property
    def category(self) -> TicketCategory:
        """Top-level Table II category of this ticket."""
        return FAULT_CATEGORY[self.fault]

    @property
    def end_hour_abs(self) -> float:
        """Absolute hour at which the ticket was resolved."""
        return self.start_hour_abs + self.repair_hours

    def description(self) -> str:
        """Human-readable one-line ticket description."""
        status = "false positive" if self.false_positive else "resolved"
        return (
            f"[day {self.day_index}] rack #{self.rack_index} server "
            f"{self.server_offset}: {self.fault.value} ({status}, "
            f"{self.repair_hours:.1f} h to resolution)"
        )


def batch_winners(batch_id: np.ndarray, ordinal: np.ndarray) -> np.ndarray:
    """Row index of each correlated batch's counted row, in batch-id order.

    A batch is filed as one RMA, and the row that stands for it is the
    one with the smallest ``ordinal`` (its position in the ticket log),
    whatever order the rows arrive in.  Rows with ``batch_id < 0``
    belong to no batch and are never returned.  The one dedupe rule for
    λ: :meth:`TicketLog.batch_dedupe_mask` applies it to the whole log,
    :class:`~repro.stream.estimators.StreamingLambda` to each block.
    """
    batch_id = np.asarray(batch_id)
    ordinal = np.asarray(ordinal)
    if batch_id.shape != ordinal.shape:
        raise DataError("batch/ordinal arrays must be aligned")
    rows = np.flatnonzero(batch_id >= 0)
    rows = rows[np.lexsort((ordinal[rows], batch_id[rows]))]
    keys = batch_id[rows]
    first = np.ones(len(rows), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return rows[first]


class FaultSelector:
    """Row mask for one set of fault types, built once, applied per block.

    ``selector(codes)`` equals ``np.isin(codes, selector.codes)``: codes
    outside :data:`FAULT_TYPES` (the ``-1`` of non-ticket event rows, a
    corrupt ``99``) select nothing.  The one fault filter:
    :meth:`TicketLog.mask_for_faults` applies it to the whole log, the
    stream consumers to each block.
    """

    def __init__(self, faults: list[FaultType] | tuple[FaultType, ...]):
        self.codes = frozenset(FAULT_CODE[fault] for fault in faults)
        # Clipped reads send codes past the table to its trailing False;
        # negative codes would clip onto code 0, so they are masked off.
        self._table = np.zeros(len(FAULT_TYPES) + 1, dtype=bool)
        self._table[list(self.codes)] = True

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes)
        return self._table.take(codes, mode="clip") & (codes >= 0)


class TicketLog:
    """Columnar accumulator of RMA tickets for a whole simulation run.

    Columns are appended day-by-day as numpy chunks and concatenated
    lazily; all access goes through :meth:`finalize`-guarded properties.
    """

    _COLUMNS = (
        "day_index", "start_hour_abs", "rack_index", "server_offset",
        "fault_code", "false_positive", "repair_hours", "batch_id",
    )

    def __init__(self) -> None:
        self._chunks: dict[str, list[np.ndarray]] = {name: [] for name in self._COLUMNS}
        self._final: dict[str, np.ndarray] | None = None

    def append_chunk(
        self,
        day_index: np.ndarray,
        start_hour_abs: np.ndarray,
        rack_index: np.ndarray,
        server_offset: np.ndarray,
        fault_code: np.ndarray,
        false_positive: np.ndarray,
        repair_hours: np.ndarray,
        batch_id: np.ndarray,
    ) -> None:
        """Append one aligned chunk of tickets (e.g. one day's output)."""
        if self._final is not None:
            raise DataError("ticket log already finalized; cannot append")
        arrays = {
            "day_index": day_index, "start_hour_abs": start_hour_abs,
            "rack_index": rack_index, "server_offset": server_offset,
            "fault_code": fault_code, "false_positive": false_positive,
            "repair_hours": repair_hours, "batch_id": batch_id,
        }
        lengths = {name: len(arr) for name, arr in arrays.items()}
        if len(set(lengths.values())) != 1:
            raise DataError(f"misaligned ticket chunk: {lengths}")
        if lengths["day_index"] == 0:
            return
        for name, arr in arrays.items():
            self._chunks[name].append(np.asarray(arr))

    def finalize(self) -> None:
        """Concatenate all chunks; further appends are rejected."""
        if self._final is not None:
            return
        self._final = {}
        for name in self._COLUMNS:
            chunks = self._chunks[name]
            if chunks:
                self._final[name] = np.concatenate(chunks)
            else:
                self._final[name] = np.array([], dtype=float)
        self._chunks = {name: [] for name in self._COLUMNS}

    def _column(self, name: str) -> np.ndarray:
        if self._final is None:
            self.finalize()
        assert self._final is not None
        return self._final[name]

    def column_view(self, name: str) -> np.ndarray:
        """Read-only zero-copy view of one column, in storage dtype.

        The typed properties below return a fresh converted copy per
        access; per-block hot paths (the columnar flatten) gather
        slices from the same columns many times and need the backing
        arrays without the per-access copy.
        """
        if name not in self._COLUMNS:
            raise DataError(f"unknown ticket column {name!r}")
        view = self._column(name).view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return len(self._column("day_index"))

    @property
    def day_index(self) -> np.ndarray:
        """Detection day of each ticket."""
        return self._column("day_index").astype(np.int64)

    @property
    def start_hour_abs(self) -> np.ndarray:
        """Absolute detection hour of each ticket."""
        return self._column("start_hour_abs").astype(float)

    @property
    def rack_index(self) -> np.ndarray:
        """Flat rack index of each ticket."""
        return self._column("rack_index").astype(np.int64)

    @property
    def server_offset(self) -> np.ndarray:
        """Within-rack server position of each ticket."""
        return self._column("server_offset").astype(np.int64)

    @property
    def fault_code(self) -> np.ndarray:
        """Integer fault-type code (index into FAULT_TYPES)."""
        return self._column("fault_code").astype(np.int64)

    @property
    def false_positive(self) -> np.ndarray:
        """False-positive flags."""
        return self._column("false_positive").astype(bool)

    @property
    def repair_hours(self) -> np.ndarray:
        """Hours from detection to resolution."""
        return self._column("repair_hours").astype(float)

    @property
    def batch_id(self) -> np.ndarray:
        """Correlated-batch identifiers (-1 for independent tickets)."""
        return self._column("batch_id").astype(np.int64)

    @property
    def end_hour_abs(self) -> np.ndarray:
        """Absolute resolution hour of each ticket."""
        return self.start_hour_abs + self.repair_hours

    def ticket(self, index: int) -> RmaTicket:
        """Materialize ticket ``index`` as an :class:`RmaTicket`."""
        n = len(self)
        if not 0 <= index < n:
            raise DataError(f"ticket index {index} outside [0, {n})")
        return RmaTicket(
            day_index=int(self.day_index[index]),
            start_hour_abs=float(self.start_hour_abs[index]),
            rack_index=int(self.rack_index[index]),
            server_offset=int(self.server_offset[index]),
            fault=FAULT_TYPES[int(self.fault_code[index])],
            false_positive=bool(self.false_positive[index]),
            repair_hours=float(self.repair_hours[index]),
            batch_id=int(self.batch_id[index]),
        )

    def true_positive_mask(self) -> np.ndarray:
        """Boolean mask selecting true-positive tickets."""
        return ~self.false_positive

    def batch_dedupe_mask(self) -> np.ndarray:
        """Mask keeping one row per correlated batch event.

        Operationally a batch failure (bad component lot, power-strip
        trip) is filed as a *single* RMA ticket with a repeat count
        (§IV: tickets carry "repeat count and other relevant comments"),
        even though several devices go down.  Failure-*rate* analyses
        (λ, Table II) therefore count each batch once, while the
        concurrent-unavailability metric μ uses every device interval.
        """
        keep = self.batch_id < 0
        keep[batch_winners(self.batch_id, np.arange(len(self)))] = True
        return keep

    def mask_for_faults(self, faults: list[FaultType] | tuple[FaultType, ...]) -> np.ndarray:
        """Boolean mask selecting tickets of any of the given fault types."""
        return FaultSelector(faults)(self.fault_code)

    def hardware_mask(self) -> np.ndarray:
        """Boolean mask selecting hardware-category tickets."""
        return self.mask_for_faults(list(HARDWARE_FAULTS))

    def category_counts(
        self,
        true_positives_only: bool = False,
        dedupe_batches: bool = True,
    ) -> dict[FaultType, int]:
        """Ticket count per fault type (Table II numerators).

        Batches are deduplicated by default — one filed RMA per batch
        event (see :meth:`batch_dedupe_mask`).
        """
        mask = self.true_positive_mask() if true_positives_only else np.ones(len(self), dtype=bool)
        if dedupe_batches:
            mask = mask & self.batch_dedupe_mask()
        codes = self.fault_code[mask]
        return {
            fault: int((codes == FAULT_CODE[fault]).sum())
            for fault in FAULT_TYPES
        }
