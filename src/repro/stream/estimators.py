"""Incremental estimators: batch-identical λ and μ, one block at a time.

Each estimator folds :class:`~repro.stream.blocks.EventBlock` chunks in
stream order (``update_block``) and maintains O(1)-amortized-per-event
state from which the batch matrices can be read back
**bit-identically**, however the stream is cut into blocks.  The
equality holds by construction: the estimators call the same array
kernels as the batch functions, once per block instead of once per log.

* :class:`StreamingLambda` reproduces
  :func:`repro.telemetry.aggregate.lambda_matrix`.  Its batch dedupe is
  :func:`repro.failures.tickets.batch_winners` (the counted row of a
  correlated batch has the smallest log ordinal, whatever the arrival
  order) applied to each block; the block's winners are then reconciled
  with the carried per-batch winners, re-pointing a count when an
  earlier-ordinal row arrives.
* :class:`StreamingMu` reproduces
  :func:`repro.telemetry.aggregate.mu_matrix`: each server's carried
  open interval is spliced in front of its block rows, merged by
  :func:`repro.telemetry.windows.merge_sorted_intervals`, and every
  closed interval is counted by
  :func:`repro.telemetry.windows.add_window_intervals` into the
  difference array, capped at rack capacity on read.

Because the state is small and explicit, every estimator serializes to
flat arrays (see :mod:`repro.stream.checkpoint`) and resumes exactly.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..failures.tickets import (
    FAULT_TYPES,
    HARDWARE_FAULTS,
    FaultSelector,
    FaultType,
    batch_winners,
)
from ..telemetry.windows import (
    add_window_intervals,
    group_start_flags,
    merge_sorted_intervals,
    n_windows,
)
from .blocks import EventBlock


#: Stand-in for "no carried winner": an ordinal every row beats.
_NO_WINNER = (np.iinfo(np.int64).max, 0, 0, 0)


def _open_ticket_columns(block: EventBlock) -> dict[str, np.ndarray] | None:
    """The block's ticket-open rows as columns (cached on the block)."""
    return block.open_ticket_columns()


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
        self._faults = None if faults is None else FaultSelector(faults)
        self._counts = np.zeros((n_racks, n_days), dtype=np.int64)
        # batch_id -> (log ordinal, rack, day, passes-filters flag) of the
        # current winner (the smallest-ordinal row seen so far).
        self._winner: dict[int, tuple[int, int, int, int]] = {}
        self.events_counted = 0

    def _passes_mask(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        passes = np.ones(len(columns["rack"]), dtype=bool)
        if self.true_positives_only:
            passes &= ~columns["fp"]
        if self._faults is not None:
            passes &= self._faults(columns["fault"])
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
        if not batched.any():
            return
        # The block's own winners, then one dict probe per winner: a
        # carried winner with a smaller ordinal keeps the batch,
        # otherwise the count moves to the block's row.
        rows = batch_winners(columns["batch"], columns["ordinal"])
        ids = columns["batch"][rows].tolist()
        carried = np.array(
            [self._winner.get(b, _NO_WINNER) for b in ids], dtype=np.int64,
        ).reshape(-1, 4)
        takes = columns["ordinal"][rows] < carried[:, 0]
        dec = takes & (carried[:, 3] == 1)
        inc = rows[takes & passes[rows]]
        self._validate_counted(rack[inc], day[inc])
        np.add.at(self._counts, (carried[dec, 1], carried[dec, 2]), -1)
        np.add.at(self._counts, (rack[inc], day[inc]), 1)
        self.events_counted += len(inc) - int(dec.sum())
        taken = rows[takes]
        self._winner.update(zip(
            columns["batch"][taken].tolist(),
            zip(
                columns["ordinal"][taken].tolist(),
                rack[taken].tolist(),
                day[taken].tolist(),
                passes[taken].astype(np.int64).tolist(),
            ),
        ))

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
            "faults": None if self._faults is None else sorted(self._faults.codes),
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
            row[0]: tuple(row[1:])
            for row in np.asarray(arrays["winners"], dtype=np.int64).tolist()
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
        self._faults = FaultSelector(faults)
        self.n_racks = len(self.n_servers)
        self._diff = np.zeros(
            (self.n_racks, self.total_windows + 1), dtype=np.int64
        )
        # Still-open merged interval per server, dense by gid (NaN =
        # none open; the merge kernel rejects non-finite bounds, so no
        # real interval reads as NaN): two float64 columns instead of a
        # dict of lists, which at fleet scale was the analyzer's largest
        # single allocation.  Corrupted gids past the fleet (tolerated,
        # like the batch path) go to the overflow dict.
        self._gid_span = (
            int(self.server_base[-1] + self.n_servers[-1])
            if self.n_racks else 0
        )
        self._open_start = np.full(self._gid_span, np.nan)
        self._open_end = np.full(self._gid_span, np.nan)
        self._overflow: dict[int, list[float]] = {}

    def _carried(self, gids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Open (start, end) per gid, NaN where the server has none."""
        dense = (gids >= 0) & (gids < self._gid_span)
        lo = np.full(len(gids), np.nan)
        hi = np.full(len(gids), np.nan)
        lo[dense] = self._open_start[gids[dense]]
        hi[dense] = self._open_end[gids[dense]]
        if self._overflow:
            for i in np.flatnonzero(~dense).tolist():
                bounds = self._overflow.get(int(gids[i]))
                if bounds is not None:
                    lo[i], hi[i] = bounds
        return lo, hi

    def _open_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Every open interval as (gids, (start, end) rows), gid-sorted."""
        dense_gids = np.flatnonzero(~np.isnan(self._open_end))
        over_gids = np.array(sorted(self._overflow), dtype=np.int64)
        gids = np.concatenate([dense_gids, over_gids]).astype(np.int64)
        bounds = np.concatenate([
            np.column_stack([
                self._open_start[dense_gids], self._open_end[dense_gids],
            ]),
            np.array(
                [self._overflow[int(gid)] for gid in over_gids], dtype=float,
            ).reshape(-1, 2),
        ])
        order = np.argsort(gids, kind="stable")
        return gids[order], bounds[order].reshape(-1, 2)

    def update_block(self, block: EventBlock) -> None:
        """Fold a whole block into the μ state, vectorized.

        Within each server, block rows arrive start-ordered, and each
        server's carried open interval opened before them; spliced in
        front, they go through the same merge kernel as the batch path.
        Every merged interval but each server's last flushes into the
        difference array; the last stays open, so the final state does
        not depend on the blocking.
        """
        columns = _open_ticket_columns(block)
        if columns is None:
            return
        keep = ~columns["fp"] & self._faults(columns["fault"])
        if not keep.any():
            return
        rack = columns["rack"][keep]
        start = columns["time"][keep]
        end = start + columns["repair"][keep]
        if not self.per_server:
            add_window_intervals(self._diff, rack, start, end, self.window_hours)
            return
        if ((rack < 0) | (rack >= self.n_racks)).any():
            raise DataError(f"group_index outside [0, {self.n_racks})")
        gid = self.server_base[rack] + columns["offset"][keep]
        order = np.argsort(gid, kind="stable")
        gid, start, end = gid[order], start[order], end[order]
        first_rows = np.flatnonzero(group_start_flags(gid))
        carry_start, carry_end = self._carried(gid[first_rows])
        have = ~np.isnan(carry_end)
        if have.any():
            at = first_rows[have]
            gid = np.insert(gid, at, gid[at])
            start = np.insert(start, at, carry_start[have])
            end = np.insert(end, at, carry_end[have])
        first_row, merged_end = merge_sorted_intervals(gid, start, end)
        merged_gid = gid[first_row]
        merged_start = start[first_row]
        last = np.append(merged_gid[1:] != merged_gid[:-1], True)
        flush = ~last
        # Racks from gids as the batch path derives them: tolerant of
        # corrupted server offsets that spill past rack boundaries.
        flush_rack = np.searchsorted(
            self.server_base, merged_gid[flush], side="right") - 1
        add_window_intervals(
            self._diff, flush_rack, merged_start[flush], merged_end[flush],
            self.window_hours,
        )
        open_gid, open_lo, open_hi = (
            merged_gid[last], merged_start[last], merged_end[last],
        )
        dense = (open_gid >= 0) & (open_gid < self._gid_span)
        self._open_start[open_gid[dense]] = open_lo[dense]
        self._open_end[open_gid[dense]] = open_hi[dense]
        for g, lo, hi in zip(
            open_gid[~dense].tolist(),
            open_lo[~dense].tolist(),
            open_hi[~dense].tolist(),
        ):
            self._overflow[g] = [lo, hi]

    def matrix(self) -> np.ndarray:
        """The (n_racks, total_windows) μ matrix as of this position.

        Pure: pending open intervals are flushed into a copy, so the
        stream can keep advancing afterwards.
        """
        diff = self._diff.copy()
        gids, bounds = self._open_intervals()
        racks = np.searchsorted(self.server_base, gids, side="right") - 1
        add_window_intervals(
            diff, racks, bounds[:, 0], bounds[:, 1], self.window_hours,
        )
        counts = np.cumsum(diff[:, :-1], axis=1)
        if self.per_server:
            counts = np.minimum(counts, self.n_servers[:, np.newaxis])
        return counts

    # -- checkpoint support -------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat-array serialization of the estimator state."""
        gids, bounds = self._open_intervals()
        return {
            "diff": self._diff.copy(),
            "open_gids": gids,
            "open_bounds": bounds,
        }

    def meta(self) -> dict:
        """JSON-serializable configuration."""
        return {
            "n_days": self.n_days,
            "window_hours": self.window_hours,
            "faults": sorted(self._faults.codes),
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
        bounds = np.asarray(arrays["open_bounds"], dtype=float).reshape(-1, 2)
        # NaN marks "none open" in the dense columns, so a non-finite
        # bound read back from outside would silently close an interval.
        if not np.isfinite(bounds).all():
            raise DataError(
                "non-finite open interval bound in μ state array 'open_bounds'"
            )
        for gid, (start, end) in zip(
            np.asarray(arrays["open_gids"], dtype=np.int64), bounds,
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
