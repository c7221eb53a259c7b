"""Incremental event feed over a live simulation session.

Controllers consume the run the way an operator would: as the
time-ordered telemetry stream (ticket opens/closes, sensor samples,
inventory changes) — never the hazard model.  This module turns a
:class:`~repro.failures.engine.SimulationSession`'s buffered tickets
into exactly that stream, step by step, with globally consistent
``seq`` numbering so a :class:`~repro.stream.analyzer.StreamAnalyzer`
(and anything attached to it) can ride along live.

Correctness of the incremental cut: the session generates whole
chunks ahead of the observation frontier, so every event with
``time_hours < frontier * 24`` comes from already-generated tickets,
and events from chunks generated later all carry strictly later
times.  The merged prefix below the frontier is therefore stable
across re-flattens, and a simple (events emitted so far) cursor plus
``skip=`` resumes the stream without drift.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..stream.blocks import (
    DEFAULT_BLOCK_SIZE,
    EventBlock,
    StreamInventory,
    blocks_from_parts,
)


class SessionEventFeed:
    """Replays a stepping session as a seamless event-block stream.

    Args:
        session: the live simulation session to observe.
        inventory: stream inventory projected from the session's fleet
            (taken at construction; SKU refreshes later in the run are
            visible to the operator only through their effect on the
            ticket stream, as in the field).
        block_size: flattener block granularity.
    """

    def __init__(
        self,
        session,
        inventory: StreamInventory,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        self.session = session
        self.inventory = inventory
        self.block_size = block_size
        #: Absolute stream position: events already handed out.
        self.events_emitted = 0
        self._last_frontier = 0

    def blocks_until(self, day: int) -> list[EventBlock]:
        """Every not-yet-emitted event with ``time_hours < day * 24``.

        ``day`` must not exceed the session's generation frontier
        (events past it are not realized yet) and must be monotone
        across calls.  Blocks carry contiguous ``seq`` starting at the
        feed's cursor, so feeding them to an analyzer resumed at
        ``events_emitted`` is seamless.
        """
        if day < self._last_frontier:
            raise DataError(
                f"feed frontier moved backwards: {day} < {self._last_frontier}"
            )
        if day > self.session.generation_frontier:
            raise DataError(
                f"day {day} is past the generation frontier "
                f"{self.session.generation_frontier}"
            )
        self._last_frontier = day
        cut_hours = day * 24.0
        tickets = self.session.tickets_so_far()
        bms = self.session.bms
        blocks: list[EventBlock] = []
        for block in blocks_from_parts(
            self.inventory, tickets,
            temp_f=bms.temp_f, rh=bms.rh,
            skip=self.events_emitted, block_size=self.block_size,
        ):
            times = block.time_hours
            take = int(np.searchsorted(times, cut_hours, side="left"))
            if take == 0:
                break
            emitted = block.slice(0, take) if take < len(block) else block
            blocks.append(emitted)
            self.events_emitted += len(emitted)
            if take < len(block):
                break
        return blocks
