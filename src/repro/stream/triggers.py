"""Online decision triggers: SLA-risk monitoring and λ drift detection.

The batch pipeline answers Q1 ("how many spares?") once, over a
completed trace.  These triggers re-ask it continuously:

* :class:`SlaRiskMonitor` keeps a live per-rack down-server gauge from
  ticket-open/close events and emits a typed :class:`Alert` the moment
  a rack's provisioned spare pool can no longer cover its concurrent
  failures at the availability target — the same
  ``k ≥ μ − (1 − s) · C`` inequality :mod:`repro.decisions.availability`
  provisions by, evaluated on the instantaneous μ instead of the
  historical quantile.
* :class:`RateDriftDetector` tracks the fleet-wide daily filed-RMA
  arrival rate and flags regime changes: a trailing-mean baseline vs a
  recent window, with both a ratio threshold and an absolute event
  margin so quiet fleets don't alarm on shot noise.

Both are deterministic, O(1) per event, and expose flat-array state for
:mod:`repro.stream.checkpoint`.

A monitor calibrated with :func:`calibrated_spare_fraction` on the very
μ history it then streams is *provably* silent: the instantaneous down
count never exceeds the window μ, whose pooled maximum is exactly what
the calibration covers.  That is the "zero spurious alerts at severity
0" contract — alerts only fire when provisioning is genuinely below
what the observed stream demands.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..decisions.availability import AvailabilitySla, uniform_fraction_for_pool
from ..errors import DataError
from ..failures.tickets import HARDWARE_FAULTS, FaultSelector
from ..telemetry.windows import group_start_flags, segmented_scan
from .blocks import KIND_RANK, EventBlock, EventKind, StreamInventory

_OPEN_CODE = KIND_RANK[EventKind.TICKET_OPEN]
_CLOSE_CODE = KIND_RANK[EventKind.TICKET_CLOSE]


class AlertKind(Enum):
    """Typed trigger outcomes."""

    SLA_RISK = "sla-risk"
    RATE_DRIFT = "rate-drift"
    PREDICTED_FAILURE = "predicted-failure"


@dataclass(frozen=True)
class Alert:
    """One trigger firing.

    Attributes:
        kind: which trigger fired.
        time_hours: stream time of the firing event.
        message: human-readable one-liner (CLI prints it verbatim).
        rack_index: affected rack (-1 for fleet-wide alerts).
        value: the observed quantity (down servers / recent daily rate).
        threshold: the level it crossed.
    """

    kind: AlertKind
    time_hours: float
    message: str
    rack_index: int = -1
    value: float = 0.0
    threshold: float = 0.0


def calibrated_spare_fraction(
    mu_counts: np.ndarray,
    n_servers: np.ndarray,
    sla: AvailabilitySla,
) -> float:
    """The SF spare fraction that exactly covers a μ history.

    Pools every rack's μ/capacity samples and applies the same rule as
    :func:`~repro.decisions.availability.uniform_fraction_for_pool`.  A
    :class:`SlaRiskMonitor` provisioned with this fraction is silent on
    the stream the history came from (the zero-spurious-alert contract).
    """
    mu_counts = np.asarray(mu_counts, dtype=float)
    n_servers = np.asarray(n_servers, dtype=float)
    if mu_counts.ndim != 2 or mu_counts.shape[0] != len(n_servers):
        raise DataError("mu_counts must be (n_racks, n_windows)")
    fractions = (mu_counts / n_servers[:, np.newaxis]).ravel()
    return uniform_fraction_for_pool(fractions, sla)


class SlaRiskMonitor:
    """Live Q1 re-evaluation: does the spare pool still cover failures?

    Maintains the instantaneous count of distinct down servers per rack
    (multiple concurrent tickets on one server count once, mirroring the
    batch per-server interval merge) and fires when

        down  >  spares + (1 − sla) · capacity

    i.e. when available capacity net of spares drops below the SLA
    level.  One alert per breach episode: the rack must recover below
    the threshold before it can alert again.

    Args:
        inventory: rack geometry.
        sla: availability target.
        spare_fraction: provisioned spares as a fraction of each rack's
            capacity — a scalar (SF-style uniform) or per-rack array
            (MF-style).
        faults: fault types that count as a down server (default: the
            hardware faults, matching batch μ).
    """

    def __init__(
        self,
        inventory: StreamInventory,
        sla: AvailabilitySla,
        spare_fraction: float | np.ndarray,
        faults=None,
    ):
        if faults is None:
            faults = list(HARDWARE_FAULTS)
        self.inventory = inventory
        self.sla = sla
        fraction = np.broadcast_to(
            np.asarray(spare_fraction, dtype=float), (inventory.n_racks,)
        ).copy()
        if (fraction < 0).any():
            raise DataError("spare_fraction must be >= 0")
        self.spare_fraction = fraction
        self._faults = FaultSelector(faults)
        capacity = inventory.n_servers.astype(float)
        # Breach when down > allowed; allowed = spares + tolerated shortfall.
        self.allowed = fraction * capacity + sla.shortfall * capacity
        self._active: dict[int, int] = {}
        self.down = np.zeros(inventory.n_racks, dtype=np.int64)
        self.breached = np.zeros(inventory.n_racks, dtype=bool)
        self.alerts_emitted = 0

    def set_spare_fraction(self, spare_fraction: float | np.ndarray) -> None:
        """Retarget the provisioned spare fraction mid-stream.

        The closed-loop mutation point: when delivered spare orders
        change a rack's provisioning, the monitor's breach threshold
        must follow.  Gauge state (active tickets, down counts) is
        untouched; breach hysteresis re-evaluates naturally on the next
        event, so a rack that the new provisioning covers simply stops
        alerting.
        """
        fraction = np.broadcast_to(
            np.asarray(spare_fraction, dtype=float),
            (self.inventory.n_racks,),
        ).copy()
        if (fraction < 0).any():
            raise DataError("spare_fraction must be >= 0")
        self.spare_fraction = fraction
        capacity = self.inventory.n_servers.astype(float)
        self.allowed = fraction * capacity + self.sla.shortfall * capacity

    #: Breach comparisons tolerate float fuzz in ``fraction * capacity``
    #: (e.g. ``(1 - 0.9) * 10`` lands an epsilon under 1.0): a rack is
    #: only in breach when it is down by materially more than allowed.
    _EPSILON = 1e-9

    def update_block(
        self, block: EventBlock,
    ) -> list[tuple[int, Alert]]:
        """Fold a whole block in; returns new ``(block row, alert)`` pairs.

        Final state and alert sequence do not depend on the blocking,
        and match the one-event-at-a-time reference kept in
        ``tests/stream_oracle.py``.  The per-server ticket count is
        clamped at zero on closes, so its trajectory is the Skorokhod
        reflection of the ±1 delta walk — a pair of segmented scans
        (sum, then running min) instead of a dict walk; per-rack down
        gauges and breach edges fall out of one more segmented sum in
        stream order.
        """
        kind = block.kind_code
        relevant = (kind == _OPEN_CODE) | (kind == _CLOSE_CODE)
        if not relevant.any():
            return []
        rows = np.nonzero(relevant)[0]
        tracks = ~block.false_positive[rows] & self._faults(block.fault_code[rows])
        rack = block.rack_index[rows].astype(np.int64)
        tracks &= (rack >= 0) & (rack < self.inventory.n_racks)
        if not tracks.any():
            return []
        rows = rows[tracks]
        rack = rack[tracks]
        n = len(rows)
        delta = np.where(
            kind[rows] == _OPEN_CODE, 1, -1,
        ).astype(np.int64)
        gid = self.inventory.server_base[rack] \
            + block.server_offset[rows].astype(np.int64)
        # Clamped per-server counts via reflection of the delta walk.
        order = np.argsort(gid, kind="stable")
        g, d = gid[order], delta[order]
        flags = group_start_flags(g)
        first = np.nonzero(flags)[0]
        prior = np.zeros(n, dtype=np.int64)
        active = self._active
        for i in first.tolist():
            prior[i] = active.get(int(g[i]), 0)
        base = d.copy()
        base[first] += prior[first]
        walk = segmented_scan(base, flags, np.add)
        run_min = segmented_scan(walk, flags, np.minimum)
        count = walk - np.minimum(run_min, 0)
        down_now = count > 0
        down_before = np.empty(n, dtype=bool)
        down_before[1:] = down_now[:-1]
        down_before[first] = prior[first] > 0
        transition = down_now.astype(np.int64) - down_before.astype(np.int64)
        # Per-rack running down gauge, back in stream order.
        stream_transition = np.empty(n, dtype=np.int64)
        stream_transition[order] = transition
        rack_order = np.argsort(rack, kind="stable")
        by_rack = rack[rack_order]
        rack_flags = group_start_flags(by_rack)
        rack_first = np.nonzero(rack_flags)[0]
        base = stream_transition[rack_order].copy()
        base[rack_first] += self.down[by_rack[rack_first]]
        down_gauge = segmented_scan(base, rack_flags, np.add)
        capacity = self.inventory.n_servers[by_rack]
        down_capped = np.minimum(down_gauge, capacity)
        breach = down_capped > (
            self.allowed[by_rack] + self._EPSILON * np.maximum(capacity, 1)
        )
        breach_before = np.empty(n, dtype=bool)
        breach_before[1:] = breach[:-1]
        breach_before[rack_first] = self.breached[by_rack[rack_first]]
        rising = breach & ~breach_before
        # Commit final per-rack and per-server state.
        rack_last = np.append(rack_first[1:] - 1, n - 1)
        self.down[by_rack[rack_last]] = down_gauge[rack_last]
        self.breached[by_rack[rack_last]] = breach[rack_last]
        gid_last = np.append(first[1:] - 1, n - 1)
        for g_value, c_value in zip(
            g[gid_last].tolist(), count[gid_last].tolist(),
        ):
            if c_value > 0:
                active[g_value] = c_value
            else:
                active.pop(g_value, None)
        if not rising.any():
            return []
        alerts: list[tuple[int, Alert]] = []
        hits = np.nonzero(rising)[0]
        hits = hits[np.argsort(rack_order[hits])]
        for i in hits.tolist():
            row = int(rows[rack_order[i]])
            rack_value = int(by_rack[i])
            down_value = int(down_capped[i])
            alerts.append((row, Alert(
                kind=AlertKind.SLA_RISK,
                time_hours=float(block.time_hours[row]),
                rack_index=rack_value,
                value=float(down_value),
                threshold=float(self.allowed[rack_value]),
                message=(
                    f"rack {self.inventory.rack_ids[rack_value]}: "
                    f"{down_value} servers down exceeds spares + shortfall "
                    f"({self.allowed[rack_value]:.2f}) at SLA "
                    f"{self.sla.percent_label}"
                ),
            )))
        self.alerts_emitted += len(alerts)
        return alerts

    # -- checkpoint support -------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat-array serialization of the gauge state."""
        gids = np.array(sorted(self._active), dtype=np.int64)
        counts = np.array(
            [self._active[int(gid)] for gid in gids], dtype=np.int64,
        )
        return {
            "active_gids": gids,
            "active_counts": counts,
            "down": self.down.copy(),
            "breached": self.breached.copy(),
            "spare_fraction": self.spare_fraction.copy(),
        }

    def meta(self) -> dict:
        """JSON-serializable configuration + scalars."""
        return {
            "sla_level": self.sla.level,
            "faults": sorted(self._faults.codes),
            "alerts_emitted": self.alerts_emitted,
        }

    @staticmethod
    def from_state(
        inventory: StreamInventory,
        arrays: dict[str, np.ndarray],
        meta: dict,
    ) -> "SlaRiskMonitor":
        """Rebuild a monitor from :meth:`state_arrays` + :meth:`meta`."""
        from .estimators import codes_to_faults

        monitor = SlaRiskMonitor(
            inventory=inventory,
            sla=AvailabilitySla(float(meta["sla_level"])),
            spare_fraction=np.asarray(arrays["spare_fraction"], dtype=float),
            faults=codes_to_faults(meta["faults"]),
        )
        monitor._active = {
            int(gid): int(count)
            for gid, count in zip(arrays["active_gids"], arrays["active_counts"])
        }
        monitor.down = np.asarray(arrays["down"], dtype=np.int64).copy()
        monitor.breached = np.asarray(arrays["breached"], dtype=bool).copy()
        monitor.alerts_emitted = int(meta["alerts_emitted"])
        return monitor


class RateDriftDetector:
    """Fleet-wide λ regime-change detection.

    Counts filed tickets (true positives, one per correlated batch) per
    *arrival* day and, as each day completes, compares the mean rate of
    the last ``recent_days`` against the mean of the ``baseline_days``
    immediately before them.  Fires when the recent rate departs by more
    than ``ratio`` in either direction *and* the recent window carries at
    least ``min_excess`` events more (or fewer) than the baseline
    predicts — the absolute guard keeps near-zero baselines from
    alarming on single tickets.  One alert per drift episode.

    Args:
        n_days: trace length (bounds the daily-count history).
        baseline_days: trailing baseline window length.
        recent_days: recent comparison window length.
        ratio: departure factor (2.0 = double / half the baseline rate).
        min_excess: minimum absolute event-count departure over the
            recent window.
    """

    def __init__(
        self,
        n_days: int,
        baseline_days: int = 28,
        recent_days: int = 7,
        ratio: float = 2.0,
        min_excess: float = 5.0,
    ):
        if n_days < 1:
            raise DataError(f"n_days must be >= 1, got {n_days}")
        if baseline_days < 1 or recent_days < 1:
            raise DataError("baseline_days and recent_days must be >= 1")
        if ratio <= 1.0:
            raise DataError(f"ratio must be > 1, got {ratio}")
        self.n_days = n_days
        self.baseline_days = baseline_days
        self.recent_days = recent_days
        self.ratio = ratio
        self.min_excess = min_excess
        self.day_counts = np.zeros(n_days, dtype=np.int64)
        self._current_day = 0
        self._in_drift = False
        self._seen_batches: set[int] = set()
        self.alerts_emitted = 0

    def update_block(
        self, block: EventBlock,
    ) -> list[tuple[int, Alert]]:
        """Fold a whole block in; returns ``(block row, alert)`` pairs
        for the days it completes.

        Final state and alert sequence do not depend on the blocking,
        and match the one-event-at-a-time reference kept in
        ``tests/stream_oracle.py``.  Arrival days
        are non-decreasing in stream order, so the block's counts can
        all land in ``day_counts`` up front (an evaluation of
        completed day *c* only reads windows ending at *c*, and every
        row with day ≤ *c* precedes the run whose arrival triggers
        that evaluation), and the whole block's completed days are
        then evaluated in one vectorized pass.  Each alert is anchored
        to the first open event of the run that rolled past its day.
        """
        columns = block.open_ticket_columns()
        if columns is None:
            return []
        open_rows = columns["rows"]
        time = columns["time"]
        day = (time // 24.0).astype(np.int64)
        batch = columns["batch"]
        counted = ~columns["fp"]
        batched = counted & (batch >= 0)
        if batched.any():
            rows = np.nonzero(batched)[0]
            unique, first = np.unique(batch[rows], return_index=True)
            new = np.fromiter(
                (b not in self._seen_batches for b in unique.tolist()),
                dtype=bool, count=len(unique),
            )
            winners = np.zeros(len(rows), dtype=bool)
            winners[first[new]] = True
            counted[rows] = winners
            self._seen_batches.update(unique[new].tolist())
        in_range = counted & (day >= 0) & (day < self.n_days)
        np.add.at(self.day_counts, day[in_range], 1)

        boundaries = np.nonzero(np.diff(day) != 0)[0] + 1
        run_starts = np.concatenate([[0], boundaries])
        run_days = day[run_starts]  # strictly increasing
        final = int(run_days[-1])
        start = self._current_day
        self._current_day = max(self._current_day, final)
        evaluated = self._evaluate_days(start, min(final, self.n_days))
        if evaluated is None:
            return []
        days, recent, baseline, rising = evaluated
        out: list[tuple[int, Alert]] = []
        for index in rising.tolist():
            completed = int(days[index])
            # The run whose arrival rolled past this day anchors the
            # alert's row and timestamp.
            run = int(np.searchsorted(run_days, completed, side="right"))
            anchor = int(run_starts[run])
            out.append((
                int(open_rows[anchor]),
                self._alert(completed, float(recent[index]),
                            float(baseline[index]), float(time[anchor])),
            ))
        self.alerts_emitted += len(out)
        return out

    def finish(self, time_hours: float | None = None) -> list[Alert]:
        """Evaluate the remaining completed days at end of stream."""
        if time_hours is None:
            time_hours = self.n_days * 24.0
        final_day = min(int(time_hours // 24.0), self.n_days)
        return self._roll_to(final_day, time_hours)

    def _roll_to(self, day: int, time_hours: float) -> list[Alert]:
        start = self._current_day
        self._current_day = max(self._current_day, day)
        evaluated = self._evaluate_days(start, min(day, self.n_days))
        if evaluated is None:
            return []
        days, recent, baseline, rising = evaluated
        alerts = [
            self._alert(int(days[index]), float(recent[index]),
                        float(baseline[index]), time_hours)
            for index in rising.tolist()
        ]
        self.alerts_emitted += len(alerts)
        return alerts

    def _evaluate_days(self, start: int, end: int):
        """Evaluate completed days ``[start, end)`` in one pass.

        Returns ``(days, recent, baseline, rising)`` — the evaluable
        days, their window means, and the indices where a drift
        *starts* (honoring the hysteresis state machine carried in
        ``_in_drift``) — or ``None`` when no day is evaluable.  Days
        whose baseline window would reach before the trace leave the
        state machine untouched.
        The means come from one cumulative sum; counts are integers,
        so the float64 arithmetic is exact and matches ``.mean()``
        bit for bit.
        """
        first = max(start, self.baseline_days + self.recent_days - 1)
        if first >= end:
            return None
        csum = np.concatenate([[0], np.cumsum(self.day_counts[:end])])
        days = np.arange(first, end)
        recent_start = days - self.recent_days + 1
        baseline_start = recent_start - self.baseline_days
        recent = (csum[days + 1] - csum[recent_start]) / self.recent_days
        baseline = (
            (csum[recent_start] - csum[baseline_start]) / self.baseline_days
        )
        excess = np.abs(recent - baseline) * self.recent_days
        drifted = (excess >= self.min_excess) & (
            (recent > self.ratio * baseline)
            | (recent * self.ratio < baseline)
        )
        previous = np.empty(len(drifted), dtype=bool)
        previous[0] = self._in_drift
        previous[1:] = drifted[:-1]
        self._in_drift = bool(drifted[-1])
        rising = np.nonzero(drifted & ~previous)[0]
        return days, recent, baseline, rising

    def _alert(self, day: int, recent: float, baseline: float,
               time_hours: float) -> Alert:
        direction = "above" if recent > baseline else "below"
        return Alert(
            kind=AlertKind.RATE_DRIFT,
            time_hours=time_hours,
            value=recent,
            threshold=baseline,
            message=(
                f"day {day}: filed-RMA rate {recent:.2f}/day is {direction} "
                f"{self.ratio:g}x the trailing baseline {baseline:.2f}/day"
            ),
        )

    # -- checkpoint support -------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat-array serialization of the detector state."""
        return {
            "day_counts": self.day_counts.copy(),
            "seen": np.array(sorted(self._seen_batches), dtype=np.int64),
        }

    def meta(self) -> dict:
        """JSON-serializable configuration + scalars."""
        return {
            "n_days": self.n_days,
            "baseline_days": self.baseline_days,
            "recent_days": self.recent_days,
            "ratio": self.ratio,
            "min_excess": self.min_excess,
            "current_day": self._current_day,
            "in_drift": self._in_drift,
            "alerts_emitted": self.alerts_emitted,
        }

    @staticmethod
    def from_state(
        arrays: dict[str, np.ndarray], meta: dict,
    ) -> "RateDriftDetector":
        """Rebuild a detector from :meth:`state_arrays` + :meth:`meta`."""
        detector = RateDriftDetector(
            n_days=int(meta["n_days"]),
            baseline_days=int(meta["baseline_days"]),
            recent_days=int(meta["recent_days"]),
            ratio=float(meta["ratio"]),
            min_excess=float(meta["min_excess"]),
        )
        detector.day_counts = np.asarray(
            arrays["day_counts"], dtype=np.int64,
        ).copy()
        detector._seen_batches = {int(b) for b in np.asarray(arrays["seen"])}
        detector._current_day = int(meta["current_day"])
        detector._in_drift = bool(meta["in_drift"])
        detector.alerts_emitted = int(meta["alerts_emitted"])
        return detector
