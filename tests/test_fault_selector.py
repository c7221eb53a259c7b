"""The one fault filter: :class:`~repro.failures.tickets.FaultSelector`.

Every consumer builds its selector once and applies it per block; the
batch path (``TicketLog.mask_for_faults``) applies the same helper to
the whole log.  The selector is a lookup table indexed by code, so the
codes a bare table would mishandle — ``-1`` (non-ticket rows, which
would wrap to the last entry) and ``99`` (past the table, which would
raise) — must select nothing, exactly as ``np.isin`` did.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.decisions.availability import AvailabilitySla
from repro.failures.tickets import (
    FAULT_CODE,
    FAULT_TYPES,
    HARDWARE_FAULTS,
    FaultSelector,
    FaultType,
)
from repro.stream import EventKind, StreamingLambda, StreamingMu
from repro.stream.blocks import StreamInventory
from repro.stream.triggers import SlaRiskMonitor
from stream_oracle import Event, block_of

OUTSIDE = (-1, 99)


@given(faults=st.lists(st.sampled_from(FAULT_TYPES), unique=True),
       codes=st.lists(st.integers(-40000, 40000) | st.sampled_from(OUTSIDE)),
       dtype=st.sampled_from((np.int16, np.int32, np.int64)))
def test_selector_equals_isin(faults, codes, dtype):
    codes = np.array(codes, dtype=np.int64)
    codes = codes[(codes >= np.iinfo(dtype).min) & (codes <= np.iinfo(dtype).max)]
    codes = codes.astype(dtype)
    selector = FaultSelector(faults)
    expected = np.isin(codes, [FAULT_CODE[fault] for fault in faults])
    assert np.array_equal(selector(codes), expected)


def test_outside_codes_select_nothing():
    selector = FaultSelector(FAULT_TYPES)
    assert not selector(np.array(OUTSIDE)).any()
    assert selector(np.arange(len(FAULT_TYPES))).all()


def test_mask_for_faults_uses_the_selector(tiny_run):
    log = tiny_run.tickets
    expected = np.isin(log.fault_code,
                       [FAULT_CODE[fault] for fault in HARDWARE_FAULTS])
    assert np.array_equal(log.mask_for_faults(HARDWARE_FAULTS), expected)


def _opens(codes):
    """One ticket-open event per fault code, each on its own server."""
    return [Event(0, 10.0 + i, EventKind.TICKET_OPEN, rack_index=0,
                  server_offset=i, day_index=0, fault_code=code,
                  repair_hours=30.0, ticket_ordinal=i)
            for i, code in enumerate(codes)]


DISK = FAULT_CODE[FaultType.DISK]
WITH_OUTSIDE = block_of(*_opens([DISK, -1, 99, DISK]))
WITHOUT = block_of(*_opens([DISK, DISK]))
#: Every fault type, so a table that read -1 as any code (wrapping to
#: the last, clipping to the first) would count that row.
ALL = FAULT_TYPES


def _inventory(result):
    return StreamInventory.from_result(result)


def test_lambda_skips_outside_codes(tiny_run):
    inventory = _inventory(tiny_run)
    states = []
    for block in (WITH_OUTSIDE, WITHOUT):
        estimator = StreamingLambda(inventory.n_racks, inventory.n_days,
                                    faults=ALL)
        estimator.update_block(block)
        states.append(estimator.matrix())
    assert states[0].sum() == 2
    assert np.array_equal(*states)


def test_mu_skips_outside_codes(tiny_run):
    inventory = _inventory(tiny_run)
    states = []
    for block in (WITH_OUTSIDE, WITHOUT):
        estimator = StreamingMu(inventory.n_servers, inventory.server_base,
                                inventory.n_days, faults=ALL)
        estimator.update_block(block)
        states.append(estimator.matrix())
    assert states[0].max() == 2
    assert np.array_equal(*states)


def test_sla_monitor_skips_outside_codes(tiny_run):
    inventory = _inventory(tiny_run)
    downs = []
    for block in (WITH_OUTSIDE, WITHOUT):
        monitor = SlaRiskMonitor(inventory, AvailabilitySla(1.0), 0.0,
                                 faults=ALL)
        monitor.update_block(block)
        downs.append(monitor.down.copy())
    assert downs[0][0] == 2
    assert np.array_equal(*downs)
