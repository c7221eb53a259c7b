"""Deterministic checkpoint/resume for :class:`~repro.stream.analyzer.StreamAnalyzer`.

One ``.npz`` bundle holds everything: each component's flat state
arrays under dotted keys (``lambda.counts``, ``mu.diff``, ...) plus a
``meta_json`` blob (UTF-8 bytes as a uint8 array) carrying the schema
version, the inventory fingerprint, scalar counters, trigger
configuration and the alerts emitted so far.

The contract: save at any stream position *k*, reload against the same
inventory, feed the stream suffix (``skip=k`` on any flattener), and
every downstream artifact — λ/μ matrices, summaries, alerts, their
order and timestamps — is bit-identical to a single uninterrupted pass.
The analyzer enforces the seam itself (it refuses a block whose
``start_seq`` does not match its position), and the fingerprint check
refuses resumes against a different fleet.

Attached extra monitors (e.g. a
:class:`~repro.predict.monitor.PredictiveMonitor`) checkpoint too:
each one's flat arrays land under an indexed ``extra{i}.`` prefix and
its type name is recorded in the metadata.  What the bundle does *not*
carry is anything the monitor holds by reference rather than by state
— a fitted model, most prominently — so :func:`load_checkpoint` takes
one factory per extra monitor that closes over those references and
rebuilds the monitor from its arrays + metadata (see
``PredictiveMonitor.from_state`` for the canonical shape).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from ..decisions.availability import AvailabilitySla
from ..errors import DataError
from ..telemetry.io import load_array_bundle, require_meta_keys
from ..telemetry.schema import TICKET_LOG
from ..telemetry.windows import n_windows
from .analyzer import StreamAnalyzer
from .blocks import StreamInventory
from .estimators import StreamingLambda, StreamingMu
from .triggers import Alert, AlertKind, RateDriftDetector, SlaRiskMonitor

#: Bump on any incompatible change to the bundle layout.
STREAM_CHECKPOINT_SCHEMA = 1

_PARTS = ("lambda", "mu", "sku", "dc", "monitor", "drift")
#: Metadata every bundle carries, and the parts every analyzer has.
_META_KEYS = (
    "inventory_fingerprint", "events_seen", "last_time_hours",
    "racks_in_service", "sensor_samples", "window_hours", "sla_level",
    "alerts", "parts",
)
_REQUIRED_PARTS = ("lambda", "mu", "sku", "dc")


def _alert_to_json(alert: Alert) -> dict:
    return {
        "kind": alert.kind.value,
        "time_hours": alert.time_hours,
        "message": alert.message,
        TICKET_LOG.rack_index: alert.rack_index,
        "value": alert.value,
        "threshold": alert.threshold,
    }


def _alert_from_json(payload: dict) -> Alert:
    return Alert(
        kind=AlertKind(payload["kind"]),
        time_hours=float(payload["time_hours"]),
        message=str(payload["message"]),
        rack_index=int(payload[TICKET_LOG.rack_index]),
        value=float(payload["value"]),
        threshold=float(payload["threshold"]),
    )


def save_checkpoint(
    analyzer: StreamAnalyzer, path: str | pathlib.Path,
) -> pathlib.Path:
    """Serialize a mid-trace analyzer to one ``.npz`` bundle.

    A finished analyzer is refused: end-of-stream processing (drift
    rollover) has already run, so resuming it would double-count.
    """
    if analyzer.finished:
        raise DataError("cannot checkpoint a finished analyzer")
    for index, extra in enumerate(analyzer.extra_monitors):
        if not (hasattr(extra, "state_arrays") and hasattr(extra, "meta")):
            raise DataError(
                f"extra monitor #{index} "
                f"({type(extra).__name__}) does not expose "
                "state_arrays()/meta() and cannot be checkpointed"
            )
    path = pathlib.Path(path)
    arrays: dict[str, np.ndarray] = {}
    metas: dict[str, dict] = {}

    def add(prefix: str, state: dict[str, np.ndarray], meta: dict) -> None:
        for name, array in state.items():
            arrays[f"{prefix}.{name}"] = array
        metas[prefix] = meta

    add("lambda", analyzer.lam.state_arrays(), analyzer.lam.meta())
    add("mu", analyzer.mu.state_arrays(), analyzer.mu.meta())
    add("sku", analyzer.sku_counts.state_arrays(), analyzer.sku_counts.meta())
    add("dc", analyzer.dc_counts.state_arrays(), analyzer.dc_counts.meta())
    if analyzer.monitor is not None:
        add("monitor", analyzer.monitor.state_arrays(), analyzer.monitor.meta())
    if analyzer.drift is not None:
        add("drift", analyzer.drift.state_arrays(), analyzer.drift.meta())
    extras = []
    for index, extra in enumerate(analyzer.extra_monitors):
        add(f"extra{index}", extra.state_arrays(), extra.meta())
        extras.append({"type": type(extra).__name__})

    meta = {
        "schema": STREAM_CHECKPOINT_SCHEMA,
        "inventory_fingerprint": analyzer.inventory.fingerprint(),
        "events_seen": analyzer.events_seen,
        "blocks_seen": analyzer.blocks_seen,
        "last_time_hours": analyzer.last_time_hours,
        "racks_in_service": analyzer.racks_in_service,
        "sensor_samples": analyzer.sensor_samples,
        "window_hours": analyzer.window_hours,
        "sla_level": analyzer.sla.level,
        "alerts": [_alert_to_json(alert) for alert in analyzer.alerts],
        "parts": metas,
        "extras": extras,
    }
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8,
    )
    with path.open("wb") as handle:
        np.savez_compressed(handle, **arrays)
    return path


def _read_checkpoint(path: pathlib.Path) -> tuple[dict[str, np.ndarray], dict]:
    """``(arrays, meta)`` of a checkpoint bundle, schema-checked.

    A missing, truncated or garbled file, or metadata lacking a required
    key, raises :class:`DataError` naming it (see
    :func:`~repro.telemetry.io.load_array_bundle`).
    """
    if not path.exists():
        raise DataError(f"no such checkpoint: {path}")
    arrays, meta = load_array_bundle(path, mmap=False)
    if not meta:
        raise DataError(f"{path} is not a stream checkpoint")
    if meta.get("schema") != STREAM_CHECKPOINT_SCHEMA:
        raise DataError(
            f"{path}: checkpoint schema {meta.get('schema')!r} != "
            f"{STREAM_CHECKPOINT_SCHEMA}"
        )
    require_meta_keys(path, meta, _META_KEYS)
    require_meta_keys(path, meta["parts"], _REQUIRED_PARTS, "metadata 'parts'")
    return arrays, meta


def _state_shapes(part: str, inventory: StreamInventory,
                  meta: dict) -> dict[str, tuple]:
    """Shape of each array a built-in part's ``state_arrays`` writes for
    ``inventory`` and the part's metadata.  A string dimension is free
    but shared by every array of the part that names it."""
    n_racks = inventory.n_racks
    if part == "lambda":
        return {"counts": (n_racks, int(meta["n_days"])), "winners": ("k", 5)}
    if part == "mu":
        windows = n_windows(int(meta["n_days"]), float(meta["window_hours"]))
        return {"diff": (n_racks, windows + 1), "open_gids": ("k",),
                "open_bounds": ("k", 2)}
    if part in ("sku", "dc"):
        names = inventory.sku_names if part == "sku" else inventory.dc_names
        return {"totals": (len(names),),
                "ring": (len(names), int(meta["trailing_days"])),
                "seen": ("k",)}
    if part == "monitor":
        return {"active_gids": ("k",), "active_counts": ("k",),
                "down": (n_racks,), "breached": (n_racks,),
                "spare_fraction": (n_racks,)}
    return {"day_counts": (int(meta["n_days"]),), "seen": ("k",)}


def _check_state_arrays(path: pathlib.Path, part: str,
                        arrays: dict[str, np.ndarray], meta: dict,
                        inventory: StreamInventory) -> None:
    """Raise :class:`DataError` naming ``path`` and the array when one of
    a part's state arrays is missing or has the wrong shape."""
    try:
        shapes = _state_shapes(part, inventory, meta)
    except (KeyError, DataError) as error:
        raise DataError(
            f"{path}: metadata part {part!r} cannot size its arrays: {error!r}"
        ) from error
    free: dict[str, int] = {}
    for name, expected in shapes.items():
        if name not in arrays:
            raise DataError(f"{path}: array '{part}.{name}' is missing")
        shape = arrays[name].shape
        fits = len(shape) == len(expected) and all(
            free.setdefault(want, got) == got if isinstance(want, str)
            else want == got
            for want, got in zip(expected, shape)
        )
        if not fits:
            wanted = tuple(free.get(w, w) if isinstance(w, str) else w
                           for w in expected)
            raise DataError(
                f"{path}: array '{part}.{name}' has shape {shape}, "
                f"expected {wanted} for this inventory and metadata"
            )


def checkpoint_meta(path: str | pathlib.Path) -> dict:
    """The bundle's metadata (schema, fingerprint, position, ...)."""
    return _read_checkpoint(pathlib.Path(path))[1]


def load_checkpoint(
    path: str | pathlib.Path, inventory: StreamInventory,
    extra_monitor_factories=None,
) -> StreamAnalyzer:
    """Rebuild an analyzer from a bundle, verified against ``inventory``.

    The returned analyzer sits exactly at ``events_seen``; feed it the
    stream suffix (``skip=analyzer.events_seen``) to continue.

    Args:
        path: the ``.npz`` bundle written by :func:`save_checkpoint`.
        inventory: the stream's rack geometry (fingerprint-checked).
        extra_monitor_factories: one callable per extra monitor in the
            bundle, in attach order.  Each receives ``(arrays, meta)``
            — the monitor's flat state arrays and its JSON metadata —
            and returns the rebuilt monitor; the factory supplies
            whatever the bundle does not carry (e.g. the fitted model:
            ``lambda a, m: PredictiveMonitor.from_state(inv, model, a,
            m)``).  Required exactly when the bundle has extras.
    """
    path = pathlib.Path(path)
    bundle, meta = _read_checkpoint(path)
    if meta["inventory_fingerprint"] != inventory.fingerprint():
        raise DataError(
            f"{path}: checkpoint was taken against a different inventory "
            f"(fingerprint {meta['inventory_fingerprint']} != "
            f"{inventory.fingerprint()})"
        )
    parts = meta["parts"]
    extras_meta = meta.get("extras", [])
    factories = list(extra_monitor_factories or [])
    if len(factories) != len(extras_meta):
        kinds = [extra["type"] for extra in extras_meta]
        raise DataError(
            f"{path}: bundle carries {len(extras_meta)} extra "
            f"monitor(s) {kinds} but {len(factories)} factory(ies) "
            "were supplied; pass one extra_monitor_factories entry per "
            "attached monitor, in attach order"
        )
    prefixes = list(_PARTS) + [f"extra{i}" for i in range(len(extras_meta))]
    arrays = {
        prefix: {
            key.split(".", 1)[1]: array
            for key, array in bundle.items()
            if key.startswith(f"{prefix}.")
        }
        for prefix in prefixes
    }
    for part in _PARTS:
        if part in parts:
            _check_state_arrays(path, part, arrays[part], parts[part],
                                inventory)

    analyzer = StreamAnalyzer(
        inventory,
        window_hours=float(meta["window_hours"]),
        sla=AvailabilitySla(float(meta["sla_level"])),
        spare_fraction=None,
        drift=False,
    )
    analyzer.lam = StreamingLambda.from_state(
        arrays["lambda"], parts["lambda"],
    )
    try:
        analyzer.mu = StreamingMu.from_state(
            inventory.n_servers, inventory.server_base,
            arrays["mu"], parts["mu"],
        )
    except DataError as error:  # μ's own check of its open bounds
        raise DataError(f"{path}: {error}") from error
    # "sku"/"dc" here are checkpoint part prefixes (_PARTS), not
    # telemetry column names.
    analyzer.sku_counts.restore(arrays["sku"], parts["sku"])  # repro: noqa[schema-fields]
    analyzer.dc_counts.restore(arrays["dc"], parts["dc"])  # repro: noqa[schema-fields]
    if "monitor" in parts:
        analyzer.monitor = SlaRiskMonitor.from_state(
            inventory, arrays["monitor"], parts["monitor"],
        )
    if "drift" in parts:
        analyzer.drift = RateDriftDetector.from_state(
            arrays["drift"], parts["drift"],
        )
    for index, factory in enumerate(factories):
        prefix = f"extra{index}"
        # Restored directly (not via attach_monitor, which refuses a
        # mid-stream analyzer): the monitor's own state already sits at
        # the checkpoint position.
        analyzer.extra_monitors.append(
            factory(arrays[prefix], parts[prefix]),
        )
    analyzer.events_seen = int(meta["events_seen"])
    analyzer.blocks_seen = int(meta.get("blocks_seen", 0))
    analyzer.last_time_hours = float(meta["last_time_hours"])
    analyzer.racks_in_service = int(meta["racks_in_service"])
    analyzer.sensor_samples = int(meta["sensor_samples"])
    analyzer.alerts = [_alert_from_json(a) for a in meta["alerts"]]
    return analyzer
