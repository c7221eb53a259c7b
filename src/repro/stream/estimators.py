"""Incremental estimators: batch-identical λ and μ, one block at a time.

Each estimator folds :class:`~repro.stream.blocks.EventBlock` chunks in
stream order (``update_block``) and maintains O(1)-amortized-per-event
state from which the batch matrices can be read back
**bit-identically**, however the stream is cut into blocks:

* :class:`StreamingLambda` reproduces
  :func:`repro.telemetry.aggregate.lambda_matrix` — including the batch
  dedupe rule, which the batch path defines in *log order*: the counted
  row of a correlated batch is the one with the smallest log ordinal,
  regardless of arrival order, so the estimator keeps a per-batch
  winner and re-points the count when an earlier-ordinal row arrives.
* :class:`StreamingMu` reproduces
  :func:`repro.telemetry.aggregate.mu_matrix` — per-server downtime
  intervals merged greedily (the stream is start-ordered, so greedy
  merging equals the batch sort-and-merge), accumulated into the same
  difference array the batch path uses, capped at rack capacity.

Because the state is small and explicit, every estimator serializes to
flat arrays (see :mod:`repro.stream.checkpoint`) and resumes exactly.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataError
from ..failures.tickets import FAULT_CODE, FAULT_TYPES, HARDWARE_FAULTS, FaultType
from ..telemetry.windows import n_windows
from .blocks import EventBlock, group_start_flags, segmented_scan


def _open_ticket_columns(block: EventBlock) -> dict[str, np.ndarray] | None:
    """The block's ticket-open rows as columns (cached on the block)."""
    return block.open_ticket_columns()


def _fault_codes(
    faults: list[FaultType] | tuple[FaultType, ...] | None,
) -> frozenset[int] | None:
    if faults is None:
        return None
    return frozenset(FAULT_CODE[fault] for fault in faults)


def codes_to_faults(codes: list[int] | None) -> tuple[FaultType, ...] | None:
    """Inverse of the code-set serialization used by checkpoints."""
    if codes is None:
        return None
    return tuple(FAULT_TYPES[code] for code in codes)


class StreamingLambda:
    """Rolling per-rack per-day filed-RMA counts (the paper's λ).

    Bit-identical to :func:`~repro.telemetry.aggregate.lambda_matrix`
    with the same ``faults``/``true_positives_only``/``dedupe_batches``
    arguments, on any event order of the same ticket log.
    """

    def __init__(
        self,
        n_racks: int,
        n_days: int,
        faults: list[FaultType] | tuple[FaultType, ...] | None = None,
        true_positives_only: bool = True,
        dedupe_batches: bool = True,
    ):
        if n_racks < 1 or n_days < 1:
            raise DataError("n_racks and n_days must be >= 1")
        self.n_racks = n_racks
        self.n_days = n_days
        self.true_positives_only = true_positives_only
        self.dedupe_batches = dedupe_batches
        self._codes = _fault_codes(faults)
        self._counts = np.zeros((n_racks, n_days), dtype=np.int64)
        # batch_id -> [log ordinal, rack, day, passes-filters flag] of the
        # current winner (the smallest-ordinal row seen so far).
        self._winner: dict[int, list[int]] = {}
        self.events_counted = 0

    def _passes_mask(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        passes = np.ones(len(columns["rack"]), dtype=bool)
        if self.true_positives_only:
            passes &= ~columns["fp"]
        if self._codes is not None:
            codes = np.fromiter(sorted(self._codes), dtype=np.int64)
            passes &= np.isin(columns["fault"], codes)
        return passes

    def _validate_counted(self, rack: np.ndarray, day: np.ndarray) -> None:
        bad_day = (day < 0) | (day >= self.n_days)
        bad_rack = (rack < 0) | (rack >= self.n_racks)
        bad = np.nonzero(bad_day | bad_rack)[0]
        if len(bad):
            if bad_day[bad[0]]:
                raise DataError(f"day_index outside [0, {self.n_days})")
            raise DataError(f"group_index outside [0, {self.n_racks})")

    def update_block(self, block: EventBlock) -> None:
        """Fold a whole block into the counts, vectorized.

        The final state does not depend on how the stream is cut into
        blocks (non-open kinds are skipped by construction).  Out-of-range
        data raises :class:`~repro.errors.DataError`; which of several
        bad rows is named, and the state left behind, may depend on the
        blocking — errors are terminal either way.
        """
        columns = _open_ticket_columns(block)
        if columns is None:
            return
        rack, day = columns["rack"], columns["day"]
        passes = self._passes_mask(columns)
        batched = self.dedupe_batches & (columns["batch"] >= 0)
        simple = passes & ~batched
        if simple.any():
            self._validate_counted(rack[simple], day[simple])
            np.add.at(self._counts, (rack[simple], day[simple]), 1)
            self.events_counted += int(simple.sum())
        rows = np.nonzero(batched)[0]
        if not len(rows):
            return
        # Batch dedupe is a running argmin over log ordinals, walked
        # over plain ints with count deltas deferred to two add.at
        # calls.  Bounded by the block's batch rows, not the stream.
        winner = self._winner
        inc: list[tuple[int, int]] = []
        dec: list[tuple[int, int]] = []
        for b, o, r, d, p in zip(
            columns["batch"][rows].tolist(),
            columns["ordinal"][rows].tolist(),
            rack[rows].tolist(),
            day[rows].tolist(),
            passes[rows].tolist(),
        ):
            current = winner.get(b)
            if current is not None and current[0] <= o:
                continue
            if current is not None and current[3]:
                dec.append((current[1], current[2]))
            winner[b] = [o, r, d, int(p)]
            if p:
                if not 0 <= d < self.n_days:
                    raise DataError(f"day_index outside [0, {self.n_days})")
                if not 0 <= r < self.n_racks:
                    raise DataError(f"group_index outside [0, {self.n_racks})")
                inc.append((r, d))
        if dec:
            pairs = np.array(dec, dtype=np.int64)
            np.add.at(self._counts, (pairs[:, 0], pairs[:, 1]), -1)
        if inc:
            pairs = np.array(inc, dtype=np.int64)
            np.add.at(self._counts, (pairs[:, 0], pairs[:, 1]), 1)
        self.events_counted += len(inc) - len(dec)

    def matrix(self) -> np.ndarray:
        """The (n_racks, n_days) count matrix accumulated so far."""
        return self._counts.copy()

    # -- checkpoint support -------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat-array serialization of the estimator state."""
        winners = np.array(
            [[batch_id, *row] for batch_id, row in sorted(self._winner.items())],
            dtype=np.int64,
        ).reshape(-1, 5)
        return {"counts": self._counts.copy(), "winners": winners}

    def meta(self) -> dict:
        """JSON-serializable configuration + scalars."""
        return {
            "n_racks": self.n_racks,
            "n_days": self.n_days,
            "faults": None if self._codes is None else sorted(self._codes),
            "true_positives_only": self.true_positives_only,
            "dedupe_batches": self.dedupe_batches,
            "events_counted": self.events_counted,
        }

    @staticmethod
    def from_state(arrays: dict[str, np.ndarray], meta: dict) -> "StreamingLambda":
        """Rebuild an estimator from :meth:`state_arrays` + :meth:`meta`."""
        estimator = StreamingLambda(
            n_racks=int(meta["n_racks"]),
            n_days=int(meta["n_days"]),
            faults=codes_to_faults(meta["faults"]),
            true_positives_only=bool(meta["true_positives_only"]),
            dedupe_batches=bool(meta["dedupe_batches"]),
        )
        estimator._counts = np.asarray(arrays["counts"], dtype=np.int64).copy()
        estimator._winner = {
            int(row[0]): [int(v) for v in row[1:]]
            for row in np.asarray(arrays["winners"], dtype=np.int64)
        }
        estimator.events_counted = int(meta["events_counted"])
        return estimator


class StreamingMu:
    """Rolling concurrent-unavailability counts (the paper's μ).

    Bit-identical to :func:`~repro.telemetry.aggregate.mu_matrix` with
    the same ``window_hours``/``faults``/``per_server`` arguments.  Open
    per-server merged intervals are kept until a later, non-overlapping
    interval for the same server closes them (or :meth:`matrix`
    provisionally flushes into a copy), so the matrix can be read at
    any stream position.
    """

    def __init__(
        self,
        n_servers: np.ndarray,
        server_base: np.ndarray,
        n_days: int,
        window_hours: float = 24.0,
        faults: list[FaultType] | tuple[FaultType, ...] | None = None,
        per_server: bool = True,
    ):
        if faults is None:
            faults = list(HARDWARE_FAULTS)
        self.n_servers = np.asarray(n_servers, dtype=np.int64)
        self.server_base = np.asarray(server_base, dtype=np.int64)
        self.n_days = n_days
        self.window_hours = float(window_hours)
        self.per_server = per_server
        self.total_windows = n_windows(n_days, window_hours)
        self._codes = _fault_codes(faults)
        self.n_racks = len(self.n_servers)
        self._diff = np.zeros(
            (self.n_racks, self.total_windows + 1), dtype=np.int64
        )
        # Still-open merged interval per server, dense by gid (NaN =
        # none open): two float64 columns instead of a dict of lists,
        # which at fleet scale was the analyzer's largest single
        # allocation.  Corrupted gids past the fleet (tolerated, like
        # the batch path) go to the overflow dict.
        self._gid_span = (
            int(self.server_base[-1] + self.n_servers[-1])
            if self.n_racks else 0
        )
        self._open_start = np.full(self._gid_span, np.nan)
        self._open_end = np.full(self._gid_span, np.nan)
        self._overflow: dict[int, list[float]] = {}

    def _rack_of_gid(self, gid: int) -> int:
        # Same derivation as the batch path: tolerant of corrupted
        # server offsets that spill past rack boundaries.
        rack = int(np.searchsorted(self.server_base, gid, side="right")) - 1
        if not 0 <= rack < self.n_racks:
            raise DataError(f"group_index outside [0, {self.n_racks})")
        return rack

    def _add_interval(
        self, diff: np.ndarray, rack: int, start: float, end: float,
    ) -> None:
        # Mirrors per_group_window_counts: intervals entirely outside
        # [0, total_windows) are dropped, partial overlaps clipped.
        first = int(math.floor(start / self.window_hours))
        last = int(math.floor(end / self.window_hours))
        if last < 0 or first >= self.total_windows:
            return
        first = max(first, 0)
        last = min(last, self.total_windows - 1)
        diff[rack, first] += 1
        diff[rack, last + 1] -= 1

    def _add_intervals(
        self, diff: np.ndarray, racks: np.ndarray,
        starts: np.ndarray, ends: np.ndarray,
    ) -> None:
        """Vectorized :meth:`_add_interval` over parallel arrays."""
        first = np.floor(starts / self.window_hours).astype(np.int64)
        last = np.floor(ends / self.window_hours).astype(np.int64)
        keep = (last >= 0) & (first < self.total_windows)
        if not keep.any():
            return
        racks = racks[keep]
        first = np.maximum(first[keep], 0)
        last = np.minimum(last[keep], self.total_windows - 1)
        np.add.at(diff, (racks, first), 1)
        np.add.at(diff, (racks, last + 1), -1)

    def update_block(self, block: EventBlock) -> None:
        """Fold a whole block into the μ state, vectorized.

        The final state does not depend on the blocking (and equals
        the batch μ, see the class docstring): within each server,
        block rows arrive start-ordered, so a row
        opens a new merged interval exactly when its start exceeds the
        running maximum of all earlier ends for that server (carried
        open intervals included) — a segmented prefix-max, not a dict
        walk.  All but the last merged interval per server flush into
        the difference array; the last stays open.
        """
        columns = _open_ticket_columns(block)
        if columns is None:
            return
        keep = ~columns["fp"]
        if self._codes is not None:
            codes = np.fromiter(sorted(self._codes), dtype=np.int64)
            keep &= np.isin(columns["fault"], codes)
        if not keep.any():
            return
        rack = columns["rack"][keep]
        start = columns["time"][keep]
        repair = columns["repair"][keep]
        if (repair < 0).any():
            raise DataError("interval end before start")
        if ((rack < 0) | (rack >= self.n_racks)).any():
            raise DataError(f"group_index outside [0, {self.n_racks})")
        end = start + repair
        if not self.per_server:
            self._add_intervals(self._diff, rack, start, end)
            return
        gid = self.server_base[rack] + columns["offset"][keep]
        order = np.argsort(gid, kind="stable")
        gid, start, end = gid[order], start[order], end[order]
        flags = group_start_flags(gid)
        # Splice each server's carried open interval in front of its
        # first block row (starts stay sorted: it opened earlier).
        first_rows = np.nonzero(flags)[0]
        first_gids = gid[first_rows]
        in_dense = (first_gids >= 0) & (first_gids < self._gid_span)
        carry_start = np.full(len(first_rows), np.nan)
        carry_end = np.full(len(first_rows), np.nan)
        carry_start[in_dense] = self._open_start[first_gids[in_dense]]
        carry_end[in_dense] = self._open_end[first_gids[in_dense]]
        if self._overflow:
            for i in np.nonzero(~in_dense)[0].tolist():
                bounds = self._overflow.get(int(first_gids[i]))
                if bounds is not None:
                    carry_start[i], carry_end[i] = bounds
        have = ~np.isnan(carry_end)
        if have.any():
            pre_rows = first_rows[have]
            gid = np.insert(gid, pre_rows, gid[pre_rows])
            start = np.insert(start, pre_rows, carry_start[have])
            end = np.insert(end, pre_rows, carry_end[have])
            flags = group_start_flags(gid)
        running_end = segmented_scan(end, flags, np.maximum)
        new_segment = flags.copy()
        if len(start) > 1:
            new_segment[1:] |= start[1:] > running_end[:-1]
        segment_first = np.nonzero(new_segment)[0]
        segment_last = np.append(segment_first[1:] - 1, len(gid) - 1)
        group_last = np.append(flags[1:], True)
        flush = ~group_last[segment_last]
        if flush.any():
            flush_gid = gid[segment_first[flush]]
            flush_rack = (
                np.searchsorted(self.server_base, flush_gid, side="right") - 1
            )
            if ((flush_rack < 0) | (flush_rack >= self.n_racks)).any():
                raise DataError(f"group_index outside [0, {self.n_racks})")
            self._add_intervals(
                self._diff,
                flush_rack,
                start[segment_first[flush]],
                running_end[segment_last[flush]],
            )
        open_first = segment_first[~flush]
        open_last = segment_last[~flush]
        open_gid = gid[open_first]
        open_lo = start[open_first]
        open_hi = running_end[open_last]
        dense = (open_gid >= 0) & (open_gid < self._gid_span)
        self._open_start[open_gid[dense]] = open_lo[dense]
        self._open_end[open_gid[dense]] = open_hi[dense]
        if not dense.all():
            for g, s, e in zip(
                open_gid[~dense].tolist(),
                open_lo[~dense].tolist(),
                open_hi[~dense].tolist(),
            ):
                self._overflow[g] = [s, e]

    def matrix(self) -> np.ndarray:
        """The (n_racks, total_windows) μ matrix as of this position.

        Pure: pending open intervals are flushed into a copy, so the
        stream can keep advancing afterwards.
        """
        diff = self._diff.copy()
        open_gids = np.nonzero(~np.isnan(self._open_end))[0]
        if len(open_gids):
            racks = (
                np.searchsorted(self.server_base, open_gids, side="right") - 1
            )
            if ((racks < 0) | (racks >= self.n_racks)).any():
                raise DataError(f"group_index outside [0, {self.n_racks})")
            self._add_intervals(
                diff, racks,
                self._open_start[open_gids], self._open_end[open_gids],
            )
        for gid in sorted(self._overflow):
            start, end = self._overflow[gid]
            self._add_interval(diff, self._rack_of_gid(gid), start, end)
        counts = np.cumsum(diff[:, :-1], axis=1)
        if self.per_server:
            counts = np.minimum(counts, self.n_servers[:, np.newaxis])
        return counts

    # -- checkpoint support -------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat-array serialization of the estimator state."""
        dense_gids = np.nonzero(~np.isnan(self._open_end))[0].astype(np.int64)
        over_gids = np.array(sorted(self._overflow), dtype=np.int64)
        gids = np.concatenate([dense_gids, over_gids])
        bounds = np.concatenate([
            np.column_stack([
                self._open_start[dense_gids], self._open_end[dense_gids],
            ]),
            np.array(
                [self._overflow[int(gid)] for gid in over_gids], dtype=float,
            ).reshape(-1, 2),
        ])
        order = np.argsort(gids, kind="stable")
        return {
            "diff": self._diff.copy(),
            "open_gids": gids[order],
            "open_bounds": bounds[order].reshape(-1, 2),
        }

    def meta(self) -> dict:
        """JSON-serializable configuration."""
        return {
            "n_days": self.n_days,
            "window_hours": self.window_hours,
            "faults": None if self._codes is None else sorted(self._codes),
            "per_server": self.per_server,
        }

    @staticmethod
    def from_state(
        n_servers: np.ndarray,
        server_base: np.ndarray,
        arrays: dict[str, np.ndarray],
        meta: dict,
    ) -> "StreamingMu":
        """Rebuild an estimator from :meth:`state_arrays` + :meth:`meta`."""
        estimator = StreamingMu(
            n_servers=n_servers,
            server_base=server_base,
            n_days=int(meta["n_days"]),
            window_hours=float(meta["window_hours"]),
            faults=codes_to_faults(meta["faults"]),
            per_server=bool(meta["per_server"]),
        )
        estimator._diff = np.asarray(arrays["diff"], dtype=np.int64).copy()
        for gid, (start, end) in zip(
            np.asarray(arrays["open_gids"], dtype=np.int64),
            np.asarray(arrays["open_bounds"], dtype=float).reshape(-1, 2),
        ):
            if 0 <= gid < estimator._gid_span:
                estimator._open_start[gid] = float(start)
                estimator._open_end[gid] = float(end)
            else:
                estimator._overflow[int(gid)] = [float(start), float(end)]
        return estimator


class StreamingGroupCounts:
    """Per-group ticket counters (per-SKU, per-DC) with a trailing window.

    Counts true-positive filed tickets (one per correlated batch, first
    row seen) cumulatively and over a trailing ``trailing_days`` ring
    buffer — the live "which SKU is hurting this month" gauge.
    """

    def __init__(
        self,
        group_code: np.ndarray,
        group_names: tuple[str, ...],
        trailing_days: int = 28,
    ):
        if trailing_days < 1:
            raise DataError(f"trailing_days must be >= 1, got {trailing_days}")
        self.group_code = np.asarray(group_code, dtype=np.int64)
        self.group_names = tuple(group_names)
        self.trailing_days = trailing_days
        n_groups = len(group_names)
        self.totals = np.zeros(n_groups, dtype=np.int64)
        self._ring = np.zeros((n_groups, trailing_days), dtype=np.int64)
        self._current_day = 0
        self._seen_batches: set[int] = set()

    def _advance(self, day: int) -> None:
        if day <= self._current_day:
            return
        steps = min(self.trailing_days, day - self._current_day)
        for offset in range(1, steps + 1):
            self._ring[:, (self._current_day + offset) % self.trailing_days] = 0
        self._current_day = day

    def update_block(self, block: EventBlock) -> None:
        """Fold a whole block into the counters, vectorized.

        The final state does not depend on the blocking; the
        one-event-at-a-time rule it vectorizes is the reference kept in
        ``tests/stream_oracle.py``.  Batch dedupe keeps the first
        in-stream row of each unseen batch (and marks the batch seen
        even when that row's rack is out of range); arrival days are
        non-decreasing in stream order, so the ring advances once per
        block instead of once per event.
        """
        columns = _open_ticket_columns(block)
        if columns is None:
            return
        keep = ~columns["fp"]
        batch = columns["batch"]
        batched = keep & (batch >= 0)
        if batched.any():
            rows = np.nonzero(batched)[0]
            unique, first = np.unique(batch[rows], return_index=True)
            new = np.fromiter(
                (b not in self._seen_batches for b in unique.tolist()),
                dtype=bool, count=len(unique),
            )
            winners = np.zeros(len(rows), dtype=bool)
            winners[first[new]] = True
            keep[rows] = winners
            self._seen_batches.update(unique[new].tolist())
        rack = columns["rack"]
        keep &= (rack >= 0) & (rack < len(self.group_code))
        if not keep.any():
            return
        day = np.maximum(
            (columns["time"][keep] // 24.0).astype(np.int64), 0,
        )
        group = self.group_code[rack[keep]]
        np.add.at(self.totals, group, 1)
        # One advance straight to the block's last day: per-event
        # advances would erase exactly the counts whose day has since
        # left the trailing window, so zeroing the skipped slots first
        # and then adding only the still-in-window rows lands on the
        # identical ring state.
        final = int(day[-1])  # stream order => non-decreasing days
        self._advance(final)
        recent = day > final - self.trailing_days
        np.add.at(
            self._ring,
            (group[recent], day[recent] % self.trailing_days),
            1,
        )

    def trailing_counts(self) -> np.ndarray:
        """Per-group counts over the trailing window."""
        return self._ring.sum(axis=1)

    # -- checkpoint support -------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat-array serialization of the counter state."""
        return {
            "totals": self.totals.copy(),
            "ring": self._ring.copy(),
            "seen": np.array(sorted(self._seen_batches), dtype=np.int64),
        }

    def meta(self) -> dict:
        """JSON-serializable scalars."""
        return {
            "trailing_days": self.trailing_days,
            "current_day": self._current_day,
        }

    def restore(self, arrays: dict[str, np.ndarray], meta: dict) -> None:
        """Load :meth:`state_arrays` + :meth:`meta` back into this counter."""
        self.totals = np.asarray(arrays["totals"], dtype=np.int64).copy()
        self._ring = np.asarray(arrays["ring"], dtype=np.int64).copy()
        self._seen_batches = {int(b) for b in np.asarray(arrays["seen"])}
        self._current_day = int(meta["current_day"])
