"""Unit behaviour of the incremental estimators (λ, μ, group counters)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DataError
from repro.failures.tickets import FAULT_CODE, FaultType
from repro.stream import (
    EventKind,
    StreamingGroupCounts,
    StreamingLambda,
    StreamingMu,
)
from stream_oracle import Event, block_of

DISK = FAULT_CODE[FaultType.DISK]
TIMEOUT = FAULT_CODE[FaultType.TIMEOUT]


def open_block(t=0.0, rack=0, offset=0, day=None, fault=DISK, fp=False,
               repair=1.0, batch=-1, ordinal=0):
    """A one-row block holding a single ticket-open record."""
    return block_of(Event(
        seq=0, time_hours=t, kind=EventKind.TICKET_OPEN,
        rack_index=rack, server_offset=offset,
        day_index=int(t // 24.0) if day is None else day,
        fault_code=fault, false_positive=fp, repair_hours=repair,
        batch_id=batch, ticket_ordinal=ordinal,
    ))


class TestStreamingLambda:
    def test_counts_by_recorded_day_not_arrival_time(self):
        lam = StreamingLambda(n_racks=2, n_days=10)
        lam.update_block(open_block(t=0.5, rack=1, day=7))
        matrix = lam.matrix()
        assert matrix[1, 7] == 1 and matrix.sum() == 1

    def test_false_positives_excluded_by_default(self):
        lam = StreamingLambda(2, 10)
        lam.update_block(open_block(fp=True))
        assert lam.matrix().sum() == 0
        keep = StreamingLambda(2, 10, true_positives_only=False)
        keep.update_block(open_block(fp=True))
        assert keep.matrix().sum() == 1

    def test_fault_filter(self):
        lam = StreamingLambda(2, 10, faults=[FaultType.DISK])
        lam.update_block(open_block(fault=TIMEOUT))
        lam.update_block(open_block(fault=DISK))
        assert lam.matrix().sum() == 1

    def test_batch_counts_once(self):
        lam = StreamingLambda(2, 10)
        for ordinal in range(3):
            lam.update_block(open_block(batch=5, ordinal=ordinal, day=ordinal))
        matrix = lam.matrix()
        assert matrix.sum() == 1 and matrix[0, 0] == 1  # ordinal 0 wins

    def test_batch_winner_is_min_log_ordinal_any_arrival_order(self):
        lam = StreamingLambda(2, 10)
        lam.update_block(open_block(t=5.0, batch=5, ordinal=9, day=3))
        assert lam.matrix()[0, 3] == 1
        # An earlier log row arrives later in time: the count moves.
        lam.update_block(open_block(t=6.0, batch=5, ordinal=2, day=1))
        matrix = lam.matrix()
        assert matrix[0, 1] == 1 and matrix[0, 3] == 0

    def test_batch_winner_filtered_row_silences_batch(self):
        # The batch path dedupes in log order *before* filtering: if the
        # first log row of a batch is a false positive, the batch
        # contributes nothing.
        lam = StreamingLambda(2, 10)
        lam.update_block(open_block(t=1.0, batch=7, ordinal=4, day=2))
        assert lam.matrix().sum() == 1
        lam.update_block(open_block(t=2.0, batch=7, ordinal=1, fp=True, day=2))
        assert lam.matrix().sum() == 0

    def test_out_of_range_day_raises(self):
        lam = StreamingLambda(2, 10)
        with pytest.raises(DataError, match="day_index"):
            lam.update_block(open_block(day=10))

    def test_out_of_range_rack_raises(self):
        lam = StreamingLambda(2, 10)
        with pytest.raises(DataError, match="group_index"):
            lam.update_block(open_block(rack=2))

    def test_state_roundtrip(self):
        lam = StreamingLambda(3, 20, faults=[FaultType.DISK, FaultType.MEMORY])
        for i in range(10):
            lam.update_block(open_block(t=float(i), rack=i % 3, ordinal=i,
                                  batch=i % 4, day=i))
        clone = StreamingLambda.from_state(lam.state_arrays(), lam.meta())
        assert np.array_equal(clone.matrix(), lam.matrix())
        # Both halves keep evolving identically (winner map survived).
        late = open_block(t=99.0, rack=0, ordinal=0, batch=3, day=19)
        lam.update_block(late)
        clone.update_block(late)
        assert np.array_equal(clone.matrix(), lam.matrix())


class TestStreamingMu:
    def _mu(self, window_hours=24.0, per_server=True):
        return StreamingMu(
            n_servers=np.array([4, 8]),
            server_base=np.array([0, 4]),
            n_days=10,
            window_hours=window_hours,
            per_server=per_server,
        )

    def test_interval_spans_windows(self):
        mu = self._mu()
        mu.update_block(open_block(t=20.0, repair=10.0))  # spans windows 0 and 1
        matrix = mu.matrix()
        assert matrix[0, 0] == 1 and matrix[0, 1] == 1 and matrix.sum() == 2

    def test_per_server_merge_counts_server_once(self):
        mu = self._mu()
        mu.update_block(open_block(t=0.0, offset=2, repair=5.0))
        mu.update_block(open_block(t=3.0, offset=2, repair=5.0))  # overlaps
        assert mu.matrix()[0, 0] == 1

    def test_distinct_servers_count_separately(self):
        mu = self._mu()
        mu.update_block(open_block(t=0.0, offset=1, repair=5.0))
        mu.update_block(open_block(t=1.0, offset=2, repair=5.0))
        assert mu.matrix()[0, 0] == 2

    def test_touching_intervals_merge(self):
        mu = self._mu()
        mu.update_block(open_block(t=0.0, offset=0, repair=24.0))
        mu.update_block(open_block(t=24.0, offset=0, repair=24.0))
        matrix = mu.matrix()
        assert matrix[0, 0] == 1 and matrix[0, 1] == 1

    def test_component_mode_counts_raw_intervals_uncapped(self):
        # per_server=False is the component-spares view: every failed
        # device interval counts, no merge, no capacity cap (batch parity).
        mu = self._mu(per_server=False)
        for i in range(6):
            mu.update_block(open_block(t=1.0 + i, repair=1.0))
        assert mu.matrix()[0, 0] == 6

    def test_software_and_false_positive_ignored(self):
        mu = self._mu()
        mu.update_block(open_block(fault=TIMEOUT))
        mu.update_block(open_block(fp=True))
        assert mu.matrix().sum() == 0

    def test_out_of_range_interval_dropped(self):
        mu = self._mu()
        mu.update_block(open_block(t=10 * 24.0 + 1.0, repair=5.0, day=9))
        assert mu.matrix().sum() == 0

    def test_negative_repair_raises(self):
        mu = self._mu()
        with pytest.raises(DataError, match="interval end"):
            mu.update_block(open_block(repair=-1.0))

    def test_matrix_is_pure_midstream(self):
        mu = self._mu()
        mu.update_block(open_block(t=0.0, offset=0, repair=5.0))
        first = mu.matrix()
        mu.update_block(open_block(t=2.0, offset=0, repair=50.0))  # extends open
        second = mu.matrix()
        assert first[0, 0] == 1 and first.sum() == 1
        assert second[0, 0] == 1 and second[0, 2] == 1

    def test_state_roundtrip_with_open_intervals(self):
        mu = self._mu()
        mu.update_block(open_block(t=0.0, offset=0, repair=100.0))  # stays open
        mu.update_block(open_block(t=5.0, offset=1, repair=1.0))
        clone = StreamingMu.from_state(
            mu.n_servers, mu.server_base, mu.state_arrays(), mu.meta(),
        )
        assert np.array_equal(clone.matrix(), mu.matrix())
        follow_up = open_block(t=90.0, offset=0, repair=20.0)
        mu.update_block(follow_up)
        clone.update_block(follow_up)
        assert np.array_equal(clone.matrix(), mu.matrix())


class TestStreamingMuCap:
    def test_per_server_cap_applies(self):
        mu = StreamingMu(
            n_servers=np.array([2]), server_base=np.array([0]), n_days=2,
        )
        # Three "servers" down at once via spilled offsets on a 2-server
        # rack: the cap clamps the window count to capacity.
        for offset in range(3):
            mu.update_block(open_block(t=1.0 + offset * 0.1, offset=offset,
                                 repair=10.0))
        assert mu.matrix()[0, 0] == 2


class TestStreamingGroupCounts:
    def _counts(self, trailing=3):
        return StreamingGroupCounts(
            group_code=np.array([0, 0, 1]),
            group_names=("A", "B"),
            trailing_days=trailing,
        )

    def test_totals_by_group(self):
        counts = self._counts()
        counts.update_block(open_block(t=0.0, rack=0))
        counts.update_block(open_block(t=1.0, rack=1))
        counts.update_block(open_block(t=2.0, rack=2))
        assert counts.totals.tolist() == [2, 1]

    def test_batch_counts_once(self):
        counts = self._counts()
        counts.update_block(open_block(t=0.0, rack=0, batch=3))
        counts.update_block(open_block(t=1.0, rack=2, batch=3))
        assert counts.totals.tolist() == [1, 0]

    def test_trailing_window_expires(self):
        counts = self._counts(trailing=3)
        counts.update_block(open_block(t=0.0, rack=0))
        assert counts.trailing_counts().tolist() == [1, 0]
        counts.update_block(open_block(t=4 * 24.0, rack=2))  # day 4: day 0 aged out
        assert counts.trailing_counts().tolist() == [0, 1]
        assert counts.totals.tolist() == [1, 1]

    def test_false_positive_ignored(self):
        counts = self._counts()
        counts.update_block(open_block(fp=True))
        assert counts.totals.sum() == 0

    def test_state_roundtrip(self):
        counts = self._counts()
        for i in range(6):
            counts.update_block(open_block(t=i * 30.0, rack=i % 3, batch=i % 2))
        clone = self._counts()
        clone.restore(counts.state_arrays(), counts.meta())
        assert np.array_equal(clone.totals, counts.totals)
        assert np.array_equal(clone.trailing_counts(),
                              counts.trailing_counts())
