"""Live failure-risk monitoring: predictions as stream triggers.

:class:`PredictiveMonitor` joins the stream analyzer's trigger set
(:class:`~repro.stream.triggers.SlaRiskMonitor`,
:class:`~repro.stream.triggers.RateDriftDetector`): it folds every
event into a :class:`~repro.predict.features.StreamingFeatures`
extractor and, as each day completes, scores the whole fleet with a
fitted :class:`~repro.predict.model.TwoStagePredictor`, emitting one
:data:`~repro.stream.triggers.AlertKind.PREDICTED_FAILURE` alert per
risk episode per server.

Day-roll semantics mirror the drift detector: a day is evaluated the
moment the first event of a *later* day arrives, before that event is
folded — so the features behind every score contain exactly the
completed day's history.  ``update_block`` splits blocks at day
boundaries to keep that ordering, which makes the alerts independent
of the blocking (they are anchored to the day boundary time, not the
triggering event, so a resume cannot shift timestamps either).
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..stream.blocks import EventBlock, StreamInventory
from ..stream.triggers import Alert, AlertKind
from .features import StreamingFeatures
from .model import TwoStagePredictor


class PredictiveMonitor:
    """Per-server failure-risk trigger over a fitted predictor.

    Args:
        inventory: the stream's rack geometry.
        model: a fitted two-stage predictor.
        threshold: score above which a server is in a risk episode.
        window_days: feature trailing window (must match what the
            model was trained on).
        eval_every_days: score the fleet every Nth completed day
            (1 = daily).
        hot_temp_f / humid_rh: sensor excursion thresholds, forwarded
            to the feature extractor.
    """

    def __init__(
        self,
        inventory: StreamInventory,
        model: TwoStagePredictor,
        threshold: float = 0.6,
        window_days: int = 14,
        eval_every_days: int = 1,
        hot_temp_f: float | None = None,
        humid_rh: float | None = None,
    ):
        if not 0.0 < threshold < 1.0:
            raise DataError(f"threshold must be in (0, 1), got {threshold}")
        if eval_every_days < 1:
            raise DataError(
                f"eval_every_days must be >= 1, got {eval_every_days}"
            )
        if model.classifier is None:
            raise DataError("PredictiveMonitor needs a fitted predictor")
        kwargs = {}
        if hot_temp_f is not None:
            kwargs["hot_temp_f"] = hot_temp_f
        if humid_rh is not None:
            kwargs["humid_rh"] = humid_rh
        self.inventory = inventory
        self.model = model
        self.threshold = float(threshold)
        self.eval_every_days = int(eval_every_days)
        self.features = StreamingFeatures(
            inventory, window_days=window_days, **kwargs,
        )
        self._flagged = np.zeros(self.features.n_servers_total, dtype=bool)
        self._current_day = 0
        self.alerts_emitted = 0

    # -- evaluation ----------------------------------------------------------

    def _evaluate_day(self, day: int) -> list[Alert]:
        """Score the fleet as of the end of ``day``; alert new episodes."""
        table = self.features.feature_table(day)
        scores = self.model.score(table)
        risky = scores > self.threshold
        rising = risky & ~self._flagged
        self._flagged = risky
        if not rising.any():
            return []
        boundary_time = (day + 1) * 24.0
        rack_of = self.features._rack_of
        offset_of = self.features._offset_of
        alerts = []
        for gid in np.nonzero(rising)[0].tolist():
            rack = int(rack_of[gid])
            alerts.append(Alert(
                kind=AlertKind.PREDICTED_FAILURE,
                time_hours=boundary_time,
                rack_index=rack,
                value=float(scores[gid]),
                threshold=self.threshold,
                message=(
                    f"server {self.inventory.rack_ids[rack]}"
                    f"/{int(offset_of[gid])}: failure risk "
                    f"{scores[gid]:.2f} over the next "
                    f"{self.model.horizon_days} days"
                ),
            ))
        self.alerts_emitted += len(alerts)
        return alerts

    def _roll_to(self, day: int) -> list[Alert]:
        """Evaluate the completed days in ``[current, day)``."""
        alerts: list[Alert] = []
        for completed in range(self._current_day, day):
            if completed % self.eval_every_days == 0:
                alerts.extend(self._evaluate_day(completed))
        self._current_day = max(self._current_day, day)
        return alerts

    # -- stream consumption --------------------------------------------------

    def update_block(
        self, block: EventBlock,
    ) -> list[tuple[int, Alert]]:
        """Fold a whole block in; returns ``(block row, alert)`` pairs.

        The block is split at day boundaries: each completed day is
        evaluated before any later-day event is folded, so the alerts
        do not depend on the blocking.
        """
        if not len(block):
            return []
        day = np.maximum((block.time_hours // 24.0).astype(np.int64), 0)
        out: list[tuple[int, Alert]] = []
        start = 0
        n = len(block)
        while start < n:
            current = int(day[start])
            if current > self._current_day:
                out.extend(
                    (start, alert) for alert in self._roll_to(current)
                )
            stop = int(np.searchsorted(day, current, side="right"))
            self.features.update_block(block.slice(start, stop))
            start = stop
        return out

    def finish(self, time_hours: float | None = None) -> list[Alert]:
        """Evaluate the remaining completed days at end of stream."""
        if time_hours is None:
            time_hours = self.inventory.n_days * 24.0
        final = min(int(time_hours // 24.0), self.inventory.n_days)
        return self._roll_to(final)

    # -- checkpoint support --------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat-array serialization (model carried separately)."""
        arrays = {
            f"features.{name}": array
            for name, array in self.features.state_arrays().items()
        }
        arrays["flagged"] = self._flagged.copy()
        return arrays

    def meta(self) -> dict:
        """JSON-serializable configuration + scalars."""
        return {
            "threshold": self.threshold,
            "eval_every_days": self.eval_every_days,
            "current_day": self._current_day,
            "alerts_emitted": self.alerts_emitted,
            "features": self.features.meta(),
        }

    @staticmethod
    def from_state(
        inventory: StreamInventory,
        model: TwoStagePredictor,
        arrays: dict[str, np.ndarray],
        meta: dict,
    ) -> "PredictiveMonitor":
        """Rebuild a monitor from state + the (deterministic) model.

        The fitted trees are not serialized — they are a deterministic
        function of the training data, so callers re-fit (or keep) the
        model and hand it back here.
        """
        features_meta = meta["features"]
        monitor = PredictiveMonitor(
            inventory, model,
            threshold=float(meta["threshold"]),
            window_days=int(features_meta["window_days"]),
            eval_every_days=int(meta["eval_every_days"]),
        )
        monitor.features = StreamingFeatures.from_state(
            inventory,
            {
                name.split(".", 1)[1]: array
                for name, array in arrays.items()
                if name.startswith("features.")
            },
            features_meta,
        )
        monitor._flagged = np.asarray(arrays["flagged"], dtype=bool).copy()
        monitor._current_day = int(meta["current_day"])
        monitor.alerts_emitted = int(meta["alerts_emitted"])
        return monitor
