"""Online streaming analysis: event sourcing, incremental estimators,
live decision triggers, checkpoint/resume.

The batch pipeline (:mod:`repro.telemetry`, :mod:`repro.decisions`)
answers the paper's questions over a completed trace; this package
answers them *while the trace is still arriving*, with a verified
contract that both answers are bit-identical.

:class:`EventBlock` record batches are the only unit of work: the
flatteners in :mod:`repro.stream.blocks` (one-shot and ``follow``)
yield them and every consumer advances via a vectorized
``update_block`` (see ``docs/stream.md``).
"""

from .analyzer import StreamAnalyzer
from .blocks import (
    ALL_KINDS,
    DEFAULT_BLOCK_SIZE,
    EVENT_DTYPE,
    BlockSegment,
    EventBlock,
    EventKind,
    StreamInventory,
    StringPool,
    blocks_from_directory,
    blocks_from_parts,
    blocks_from_result,
    directory_inventory,
    follow_directory,
)
from .checkpoint import (
    STREAM_CHECKPOINT_SCHEMA,
    checkpoint_meta,
    load_checkpoint,
    save_checkpoint,
)
from .estimators import StreamingGroupCounts, StreamingLambda, StreamingMu
from .triggers import (
    Alert,
    AlertKind,
    RateDriftDetector,
    SlaRiskMonitor,
    calibrated_spare_fraction,
)

__all__ = [
    "ALL_KINDS",
    "Alert",
    "AlertKind",
    "BlockSegment",
    "DEFAULT_BLOCK_SIZE",
    "EVENT_DTYPE",
    "EventBlock",
    "EventKind",
    "RateDriftDetector",
    "STREAM_CHECKPOINT_SCHEMA",
    "SlaRiskMonitor",
    "StreamAnalyzer",
    "StreamInventory",
    "StreamingGroupCounts",
    "StreamingLambda",
    "StreamingMu",
    "StringPool",
    "blocks_from_directory",
    "blocks_from_parts",
    "blocks_from_result",
    "calibrated_spare_fraction",
    "checkpoint_meta",
    "directory_inventory",
    "follow_directory",
    "load_checkpoint",
    "save_checkpoint",
]
