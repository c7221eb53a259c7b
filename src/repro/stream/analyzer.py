"""StreamAnalyzer: the one-object consumer wiring estimators + triggers.

Feed it :class:`~repro.stream.blocks.EventBlock` chunks (from any
:mod:`repro.stream.blocks` flattener) and it maintains the full live
picture — rolling λ and μ matrices, per-SKU and per-DC counters, the
SLA-risk gauge and the drift detector — emitting typed alerts as they
fire.  It tracks its absolute stream position, so
:mod:`repro.stream.checkpoint` can serialize it mid-trace and a resumed
analyzer (fed the stream suffix via ``skip=events_seen``) produces
bit-identical matrices, summaries and alerts.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..decisions.availability import AvailabilitySla
from ..errors import DataError
from ..telemetry.schema import TICKET_LOG
from .blocks import KIND_RANK, EventBlock, EventKind, StreamInventory
from .estimators import StreamingGroupCounts, StreamingLambda, StreamingMu
from .triggers import Alert, RateDriftDetector, SlaRiskMonitor

_INVENTORY_CODE = KIND_RANK[EventKind.INVENTORY_CHANGE]
_SENSOR_CODE = KIND_RANK[EventKind.SENSOR_SAMPLE]


class StreamAnalyzer:
    """Incremental analysis state over one event stream.

    Args:
        inventory: the stream's rack geometry.
        window_hours: μ window length (24 = daily, 1 = hourly).
        sla: availability target for the SLA-risk monitor.
        spare_fraction: provisioned spare fraction (scalar or per-rack);
            ``None`` disables the SLA-risk monitor.
        drift: enable the λ drift detector.
        drift_ratio / drift_min_excess: its sensitivity (see
            :class:`~repro.stream.triggers.RateDriftDetector`).
    """

    def __init__(
        self,
        inventory: StreamInventory,
        window_hours: float = 24.0,
        sla: AvailabilitySla | None = None,
        spare_fraction: float | np.ndarray | None = None,
        drift: bool = True,
        drift_ratio: float = 2.0,
        drift_min_excess: float = 5.0,
    ):
        if sla is None:
            sla = AvailabilitySla(1.0)
        self.inventory = inventory
        self.window_hours = float(window_hours)
        self.sla = sla
        self.lam = StreamingLambda(inventory.n_racks, inventory.n_days)
        self.mu = StreamingMu(
            inventory.n_servers, inventory.server_base, inventory.n_days,
            window_hours=window_hours,
        )
        self.sku_counts = StreamingGroupCounts(
            inventory.sku_code, inventory.sku_names,
        )
        self.dc_counts = StreamingGroupCounts(
            inventory.dc_code, inventory.dc_names,
        )
        self.monitor: SlaRiskMonitor | None = None
        if spare_fraction is not None:
            self.monitor = SlaRiskMonitor(inventory, sla, spare_fraction)
        self.drift: RateDriftDetector | None = None
        if drift:
            self.drift = RateDriftDetector(
                inventory.n_days, ratio=drift_ratio,
                min_excess=drift_min_excess,
            )
        self.extra_monitors: list = []
        self.events_seen = 0
        self.blocks_seen = 0
        self.last_time_hours = 0.0
        self.racks_in_service = 0
        self.sensor_samples = 0
        self.alerts: list[Alert] = []
        self.finished = False

    def attach_monitor(self, monitor) -> None:
        """Attach an extra trigger (e.g. a predictive monitor).

        Anything exposing ``update_block(block)`` — returning
        ``(block row, alert)`` pairs — and ``finish()`` plugs in; it
        sees *every* event (sensors included — feature-based monitors
        need them), and its alerts sort after the built-in triggers'
        within an event.  Must be attached before any event is fed.
        Monitors that also expose ``state_arrays()``/``meta()``
        checkpoint with the analyzer; resuming hands each one's state
        to a caller-supplied factory (see
        :func:`repro.stream.checkpoint.load_checkpoint`).
        """
        if self.events_seen or self.finished:
            raise DataError("attach monitors before feeding the stream")
        self.extra_monitors.append(monitor)

    def process_block(self, block: EventBlock) -> list[Alert]:
        """Fold a whole :class:`~repro.stream.blocks.EventBlock` in.

        Every consumer advances via its vectorized ``update_block``;
        matrices, summaries and the alert sequence do not depend on how
        the stream is cut into blocks.  The block's ``start_seq`` must
        equal the analyzer's position, which is what makes a mid-trace
        resume provably seamless: a gap or replay raises
        :class:`~repro.errors.DataError` instead of silently skewing
        results.
        """
        if block.start_seq != self.events_seen:
            raise DataError(
                f"stream position mismatch: analyzer at {self.events_seen}, "
                f"event seq {block.start_seq} (resume with skip=events_seen)"
            )
        if self.finished:
            raise DataError("analyzer already finished")
        if not len(block):
            return []
        kind = block.kind_code
        inventory_rows = kind == _INVENTORY_CODE
        if inventory_rows.any():
            self.racks_in_service += int(block.value[inventory_rows].sum())
        self.sensor_samples += int((kind == _SENSOR_CODE).sum())
        self.lam.update_block(block)
        self.mu.update_block(block)
        self.sku_counts.update_block(block)
        self.dc_counts.update_block(block)
        indexed: list[tuple[int, int, Alert]] = []
        if self.drift is not None:
            indexed.extend(
                (row, 0, alert)
                for row, alert in self.drift.update_block(block)
            )
        if self.monitor is not None:
            indexed.extend(
                (row, 1, alert)
                for row, alert in self.monitor.update_block(block)
            )
        for extra_rank, monitor in enumerate(self.extra_monitors):
            indexed.extend(
                (row, 2 + extra_rank, alert)
                for row, alert in monitor.update_block(block)
            )
        indexed.sort(key=lambda item: item[:2])
        alerts = [alert for _, _, alert in indexed]
        self.events_seen = block.end_seq
        self.blocks_seen += 1
        self.last_time_hours = max(
            self.last_time_hours, float(block.time_hours.max()),
        )
        self.alerts.extend(alerts)
        return alerts

    def consume_blocks(
        self,
        blocks: Iterable[EventBlock],
        max_events: int | None = None,
    ) -> int:
        """Process blocks until exhaustion (or ``max_events`` events);
        returns how many events were processed this call.  A block
        straddling the ``max_events`` boundary is split, so the analyzer
        stops at exactly stream position ``events_seen + max_events``."""
        processed = 0
        for block in blocks:
            if max_events is not None:
                remaining = max_events - processed
                if remaining <= 0:
                    break
                if len(block) > remaining:
                    self.process_block(block.slice(0, remaining))
                    processed += remaining
                    break
            self.process_block(block)
            processed += len(block)
        return processed

    def finish(self) -> list[Alert]:
        """Mark end-of-stream: evaluates the drift detector's trailing
        days.  Call exactly once, only when the stream is truly over —
        a checkpointed mid-trace analyzer must *not* be finished, or the
        resumed run would double-evaluate.  Returns the new alerts.
        """
        if self.finished:
            raise DataError("analyzer already finished")
        self.finished = True
        alerts: list[Alert] = []
        if self.drift is not None:
            alerts = self.drift.finish()
        for monitor in self.extra_monitors:
            alerts.extend(monitor.finish())
        self.alerts.extend(alerts)
        return alerts

    # -- read-back ----------------------------------------------------------

    def lambda_matrix(self) -> np.ndarray:
        """Per-rack per-day filed-RMA counts so far (batch-identical)."""
        return self.lam.matrix()

    def mu_matrix(self) -> np.ndarray:
        """Per-rack per-window concurrent-failure counts so far
        (batch-identical)."""
        return self.mu.matrix()

    def mu_max(self) -> int:
        """The worst concurrent-failure count observed in any window."""
        matrix = self.mu.matrix()
        return int(matrix.max()) if matrix.size else 0

    def summary(self) -> dict:
        """JSON-friendly snapshot of the live picture."""
        lam = self.lambda_matrix()
        mu = self.mu_matrix()
        sku_trailing = self.sku_counts.trailing_counts()
        dc_trailing = self.dc_counts.trailing_counts()
        return {
            "events_seen": self.events_seen,
            "last_time_hours": round(self.last_time_hours, 3),
            "racks_in_service": self.racks_in_service,
            "sensor_samples": self.sensor_samples,
            "window_hours": self.window_hours,
            "tickets_counted": int(lam.sum()),
            "lambda_mean_per_rack_day": float(lam.mean()),
            "mu_max": int(mu.max()) if mu.size else 0,
            "per_sku_total": {
                name: int(count)
                for name, count in zip(
                    self.inventory.sku_names, self.sku_counts.totals,
                )
            },
            "per_sku_trailing": {
                name: int(count)
                for name, count in zip(self.inventory.sku_names, sku_trailing)
            },
            "per_dc_total": {
                name: int(count)
                for name, count in zip(
                    self.inventory.dc_names, self.dc_counts.totals,
                )
            },
            "per_dc_trailing": {
                name: int(count)
                for name, count in zip(self.inventory.dc_names, dc_trailing)
            },
            "alerts": [
                {
                    "kind": alert.kind.value,
                    "time_hours": round(alert.time_hours, 3),
                    TICKET_LOG.rack_index: alert.rack_index,
                    "value": alert.value,
                    "threshold": alert.threshold,
                    "message": alert.message,
                }
                for alert in self.alerts
            ],
        }
