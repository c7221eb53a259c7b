"""Streaming per-server feature extraction for failure prediction.

:class:`StreamingFeatures` folds the flattened event stream into
O(servers) rolling state and snapshots it into the per-server feature
vectors the predictor consumes:

* per-server ticket history — trailing hardware-ticket counts over a
  ring of the last ``window_days`` days, lifetime hardware/disk/other
  totals, inter-arrival statistics (mean gap, hours since last);
* per-rack sensor excursions — trailing hot-inlet counts and the
  lifetime high-humidity share of readings;
* inventory context — SKU, datacenter, age and rack capacity.

:meth:`~StreamingFeatures.update_block` commits the same state however
the stream is cut into blocks (its one-event-at-a-time specification
is the reference kept in ``tests/stream_oracle.py``), and
:func:`save_feature_state` / :func:`load_feature_state` checkpoint the
extractor mid-trace with the same one-``.npz`` convention as
:mod:`repro.stream.checkpoint` — a resumed extractor's snapshots are
bit-identical to a continuous pass.

The day rings share :class:`~repro.stream.estimators.StreamingGroupCounts`'s
advance rule: event days are non-decreasing in stream order, so a block
can advance once to its final day and land only the rows whose slots
that advance left alive (``day > final - window``) — every older row's
slot would have been zeroed by a later per-event advance anyway.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from ..errors import DataError
from ..failures.tickets import FAULT_CODE, FaultType, HARDWARE_FAULTS
from ..stream.blocks import KIND_RANK, EventBlock, EventKind, StreamInventory
from ..telemetry.io import load_array_bundle, require_meta_keys
from ..telemetry.schema import (
    INVENTORY_CSV,
    TICKET_LOG,
    FeatureKind,
    FeatureSpec,
    Schema,
)
from ..telemetry.table import Table
from ..telemetry.windows import group_start_flags

_SENSOR_CODE = KIND_RANK[EventKind.SENSOR_SAMPLE]

#: Hot-inlet excursion threshold (°F) — the paper's temperature split.
DEFAULT_HOT_TEMP_F = 78.0

#: High-humidity excursion threshold (%RH) — the BMS alarm band's
#: upper edge (see :class:`repro.environment.bms.AlarmThresholds`).
DEFAULT_HUMID_RH = 80.0

#: Feature columns a snapshot table carries, in matrix order.
PREDICT_FEATURES = (
    "sku",
    "dc",
    "age_days",
    "capacity",
    "trailing_hw",
    "rack_trailing_hw",
    "total_hw",
    "total_disk",
    "total_other",
    "mean_gap_hours",
    "hours_since_hw",
    "hot_excursions",
    "humid_share",
)

#: Bump on any incompatible change to the feature-state bundle layout.
PREDICT_CHECKPOINT_SCHEMA = 1


class StreamingFeatures:
    """Incremental per-server feature state over one event stream.

    Args:
        inventory: the stream's rack geometry.
        window_days: trailing-window length for the day rings.
        hot_temp_f: inlet readings above this count as hot excursions.
        humid_rh: RH readings above this count as humid excursions.
    """

    def __init__(
        self,
        inventory: StreamInventory,
        window_days: int = 14,
        hot_temp_f: float = DEFAULT_HOT_TEMP_F,
        humid_rh: float = DEFAULT_HUMID_RH,
    ):
        if window_days < 1:
            raise DataError(f"window_days must be >= 1, got {window_days}")
        self.inventory = inventory
        self.window_days = int(window_days)
        self.hot_temp_f = float(hot_temp_f)
        self.humid_rh = float(humid_rh)

        n_servers = inventory.n_servers.astype(np.int64)
        self.n_servers_total = int(n_servers.sum())
        self._rack_of = np.repeat(
            np.arange(inventory.n_racks, dtype=np.int64), n_servers,
        )
        self._offset_of = (
            np.arange(self.n_servers_total, dtype=np.int64)
            - inventory.server_base[self._rack_of]
        )
        self._hw_codes = np.array(
            sorted(FAULT_CODE[fault] for fault in HARDWARE_FAULTS),
            dtype=np.int64,
        )
        self._disk_code = FAULT_CODE[FaultType.DISK]

        window = self.window_days
        total = self.n_servers_total
        racks = inventory.n_racks
        self._hw_ring = np.zeros((total, window), dtype=np.int64)
        self._hot_ring = np.zeros((racks, window), dtype=np.int64)
        self.hw_total = np.zeros(total, dtype=np.int64)
        self.disk_total = np.zeros(total, dtype=np.int64)
        self.other_total = np.zeros(total, dtype=np.int64)
        self.last_hw_time = np.full(total, np.nan, dtype=np.float64)
        self.gap_sum = np.zeros(total, dtype=np.float64)
        self.gap_count = np.zeros(total, dtype=np.int64)
        self.sensor_count = np.zeros(racks, dtype=np.int64)
        self.hot_total = np.zeros(racks, dtype=np.int64)
        self.humid_total = np.zeros(racks, dtype=np.int64)
        self._current_day = 0

    # -- ring bookkeeping ---------------------------------------------------

    def _advance(self, day: int) -> None:
        """Roll both day rings forward, zeroing the slots entered."""
        if day <= self._current_day:
            return
        steps = min(self.window_days, day - self._current_day)
        for offset in range(1, steps + 1):
            slot = (self._current_day + offset) % self.window_days
            self._hw_ring[:, slot] = 0
            self._hot_ring[:, slot] = 0
        self._current_day = day

    # -- stream consumption --------------------------------------------------

    def update_block(self, block: EventBlock) -> None:
        """Fold a whole block in (the same state under any blocking)."""
        if not len(block):
            return
        sensor_rows = np.nonzero(block.kind_code == _SENSOR_CODE)[0]
        srack = np.empty(0, dtype=np.int64)
        sday = np.empty(0, dtype=np.int64)
        if len(sensor_rows):
            srack = block.rack_index[sensor_rows].astype(np.int64)
            in_range = (srack >= 0) & (srack < self.inventory.n_racks)
            sensor_rows = sensor_rows[in_range]
            srack = srack[in_range]
            sday = np.maximum(
                (block.time_hours[sensor_rows] // 24.0).astype(np.int64), 0,
            )

        gid = np.empty(0, dtype=np.int64)
        tday = np.empty(0, dtype=np.int64)
        ttime = np.empty(0, dtype=np.float64)
        fault = np.empty(0, dtype=np.int64)
        columns = block.open_ticket_columns()
        if columns is not None:
            rack = columns["rack"]
            offset = columns["offset"]
            keep = (
                ~columns["fp"]
                & (rack >= 0) & (rack < self.inventory.n_racks)
                & (offset >= 0)
            )
            keep[keep] &= (
                offset[keep] < self.inventory.n_servers[rack[keep]]
            )
            if keep.any():
                gid = self.inventory.server_base[rack[keep]] + offset[keep]
                ttime = columns["time"][keep]
                tday = np.maximum((ttime // 24.0).astype(np.int64), 0)
                fault = columns["fault"][keep]

        final = -1
        if len(sday):
            final = int(sday[-1])
        if len(tday):
            final = max(final, int(tday[-1]))
        if final < 0:
            return
        self._advance(final)
        recent_cut = final - self.window_days

        if len(sensor_rows):
            np.add.at(self.sensor_count, srack, 1)
            hot = block.value[sensor_rows] > self.hot_temp_f
            np.add.at(self.hot_total, srack[hot], 1)
            live = hot & (sday > recent_cut)
            np.add.at(
                self._hot_ring,
                (srack[live], sday[live] % self.window_days), 1,
            )
            humid = block.value2[sensor_rows] > self.humid_rh
            np.add.at(self.humid_total, srack[humid], 1)

        if len(gid):
            hardware = np.isin(fault, self._hw_codes)
            np.add.at(self.hw_total, gid[hardware], 1)
            live = hardware & (tday > recent_cut)
            np.add.at(
                self._hw_ring,
                (gid[live], tday[live] % self.window_days), 1,
            )
            disk = hardware & (fault == self._disk_code)
            np.add.at(self.disk_total, gid[disk], 1)
            np.add.at(self.other_total, gid[~hardware], 1)
            if hardware.any():
                self._commit_gaps(gid[hardware], ttime[hardware])

    def _commit_gaps(self, gid: np.ndarray, time: np.ndarray) -> None:
        """Inter-arrival accounting for one block's hardware opens.

        ``np.add.at`` applies additions sequentially in index order, and
        the stable per-gid sort preserves stream order within each gid,
        so every ``gap_sum`` slot accumulates its gaps in stream order
        under any blocking — float-for-float identical.
        """
        order = np.argsort(gid, kind="stable")
        g = gid[order]
        t = time[order]
        flags = group_start_flags(g)
        first = np.nonzero(flags)[0]
        previous = np.empty(len(g), dtype=np.float64)
        previous[1:] = t[:-1]
        previous[first] = self.last_hw_time[g[first]]
        valid = ~np.isnan(previous)
        np.add.at(self.gap_sum, g[valid], t[valid] - previous[valid])
        np.add.at(self.gap_count, g[valid], 1)
        last_rows = np.append(first[1:] - 1, len(g) - 1)
        self.last_hw_time[g[last_rows]] = t[last_rows]

    # -- snapshots -----------------------------------------------------------

    def feature_arrays(self, day: int) -> dict[str, np.ndarray]:
        """Per-server feature vectors as of the end of ``day``.

        ``day`` must not precede the extractor's current day (features
        never look back past expired ring slots); snapshotting a later
        day first expires the ring slots the quiet days left behind.
        Never-seen sentinels (``hours_since_hw`` / ``mean_gap_hours``
        for servers with no hardware history) saturate at the snapshot
        time — "at least this long".
        """
        day = int(day)
        if day < self._current_day:
            raise DataError(
                f"cannot snapshot day {day}: extractor already at day "
                f"{self._current_day}"
            )
        self._advance(day)
        snapshot_time = (day + 1) * 24.0
        rack = self._rack_of
        inventory = self.inventory

        trailing_hw = self._hw_ring.sum(axis=1).astype(np.float64)
        rack_trailing = np.add.reduceat(trailing_hw, inventory.server_base)
        hot_trailing = self._hot_ring.sum(axis=1).astype(np.float64)
        hours_since = np.where(
            np.isnan(self.last_hw_time),
            snapshot_time,
            snapshot_time - self.last_hw_time,
        )
        mean_gap = np.where(
            self.gap_count > 0,
            self.gap_sum / np.maximum(self.gap_count, 1),
            snapshot_time,
        )
        humid_share = (
            self.humid_total / np.maximum(self.sensor_count, 1)
        ).astype(np.float64)

        total = self.n_servers_total
        return {
            TICKET_LOG.rack_index: rack.copy(),
            TICKET_LOG.server_offset: self._offset_of.copy(),
            TICKET_LOG.day_index: np.full(total, day, dtype=np.int64),
            INVENTORY_CSV.sku: inventory.sku_code[rack],
            INVENTORY_CSV.dc: inventory.dc_code[rack],
            "age_days": (day - inventory.commission_day[rack]).astype(np.float64),
            "capacity": inventory.n_servers[rack].astype(np.float64),
            "trailing_hw": trailing_hw,
            "rack_trailing_hw": rack_trailing[rack],
            "total_hw": self.hw_total.astype(np.float64),
            "total_disk": self.disk_total.astype(np.float64),
            "total_other": self.other_total.astype(np.float64),
            "mean_gap_hours": mean_gap,
            "hours_since_hw": hours_since,
            "hot_excursions": hot_trailing[rack],
            "humid_share": humid_share[rack],
        }

    def feature_schema(self) -> Schema:
        """Schema of a snapshot table (SKU/DC nominal, rest continuous)."""
        specs = [
            FeatureSpec("sku", FeatureKind.NOMINAL,
                        tuple(self.inventory.sku_names)),
            FeatureSpec("dc", FeatureKind.NOMINAL,
                        tuple(self.inventory.dc_names)),
        ]
        specs.extend(
            FeatureSpec(name, FeatureKind.CONTINUOUS)
            for name in PREDICT_FEATURES[2:]
        )
        return Schema(tuple(specs))

    def feature_table(self, day: int) -> Table:
        """A snapshot as a :class:`~repro.telemetry.table.Table`."""
        return Table(self.feature_arrays(day), schema=self.feature_schema())

    # -- checkpoint support --------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat-array serialization of the feature state."""
        return {
            "hw_ring": self._hw_ring.copy(),
            "hot_ring": self._hot_ring.copy(),
            "hw_total": self.hw_total.copy(),
            "disk_total": self.disk_total.copy(),
            "other_total": self.other_total.copy(),
            "last_hw_time": self.last_hw_time.copy(),
            "gap_sum": self.gap_sum.copy(),
            "gap_count": self.gap_count.copy(),
            "sensor_count": self.sensor_count.copy(),
            "hot_total": self.hot_total.copy(),
            "humid_total": self.humid_total.copy(),
        }

    def meta(self) -> dict:
        """JSON-serializable configuration + scalars."""
        return {
            "window_days": self.window_days,
            "hot_temp_f": self.hot_temp_f,
            "humid_rh": self.humid_rh,
            "current_day": self._current_day,
        }

    @staticmethod
    def from_state(
        inventory: StreamInventory,
        arrays: dict[str, np.ndarray],
        meta: dict,
    ) -> "StreamingFeatures":
        """Rebuild an extractor from :meth:`state_arrays` + :meth:`meta`."""
        extractor = StreamingFeatures(
            inventory,
            window_days=int(meta["window_days"]),
            hot_temp_f=float(meta["hot_temp_f"]),
            humid_rh=float(meta["humid_rh"]),
        )
        extractor._hw_ring = np.asarray(arrays["hw_ring"], dtype=np.int64).copy()
        extractor._hot_ring = np.asarray(arrays["hot_ring"], dtype=np.int64).copy()
        extractor.hw_total = np.asarray(arrays["hw_total"], dtype=np.int64).copy()
        extractor.disk_total = np.asarray(arrays["disk_total"], dtype=np.int64).copy()
        extractor.other_total = np.asarray(arrays["other_total"], dtype=np.int64).copy()
        extractor.last_hw_time = np.asarray(
            arrays["last_hw_time"], dtype=np.float64,
        ).copy()
        extractor.gap_sum = np.asarray(arrays["gap_sum"], dtype=np.float64).copy()
        extractor.gap_count = np.asarray(arrays["gap_count"], dtype=np.int64).copy()
        extractor.sensor_count = np.asarray(
            arrays["sensor_count"], dtype=np.int64,
        ).copy()
        extractor.hot_total = np.asarray(arrays["hot_total"], dtype=np.int64).copy()
        extractor.humid_total = np.asarray(
            arrays["humid_total"], dtype=np.int64,
        ).copy()
        extractor._current_day = int(meta["current_day"])
        return extractor


def save_feature_state(
    extractor: StreamingFeatures,
    path: str | pathlib.Path,
    events_seen: int = 0,
) -> pathlib.Path:
    """Serialize a mid-trace extractor to one ``.npz`` bundle."""
    path = pathlib.Path(path)
    arrays = {
        f"state.{name}": array
        for name, array in extractor.state_arrays().items()
    }
    meta = {
        "schema": PREDICT_CHECKPOINT_SCHEMA,
        "inventory_fingerprint": extractor.inventory.fingerprint(),
        "events_seen": int(events_seen),
        "extractor": extractor.meta(),
    }
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8,
    )
    with path.open("wb") as handle:
        np.savez_compressed(handle, **arrays)
    return path


def load_feature_state(
    path: str | pathlib.Path, inventory: StreamInventory,
) -> tuple[StreamingFeatures, int]:
    """Rebuild ``(extractor, events_seen)`` from a feature bundle.

    The bundle's inventory fingerprint must match ``inventory`` — a
    checkpoint resumed against a different fleet raises
    :class:`~repro.errors.DataError`, as does metadata lacking a
    required key.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise DataError(f"no such feature checkpoint: {path}")
    bundle, meta = load_array_bundle(path, mmap=False)
    if not meta:
        raise DataError(f"{path} is not a feature checkpoint")
    arrays = {
        key.split(".", 1)[1]: array
        for key, array in bundle.items()
        if key.startswith("state.")
    }
    if meta.get("schema") != PREDICT_CHECKPOINT_SCHEMA:
        raise DataError(
            f"{path}: feature checkpoint schema {meta.get('schema')!r} != "
            f"{PREDICT_CHECKPOINT_SCHEMA}"
        )
    require_meta_keys(path, meta, ("inventory_fingerprint", "events_seen", "extractor"))
    require_meta_keys(
        path, meta["extractor"],
        ("window_days", "hot_temp_f", "humid_rh", "current_day"), "metadata 'extractor'",
    )
    if meta["inventory_fingerprint"] != inventory.fingerprint():
        raise DataError(
            f"{path}: checkpoint was taken against a different inventory "
            f"(fingerprint {meta['inventory_fingerprint']} != "
            f"{inventory.fingerprint()})"
        )
    extractor = StreamingFeatures.from_state(
        inventory, arrays, meta["extractor"],
    )
    return extractor, int(meta["events_seen"])
