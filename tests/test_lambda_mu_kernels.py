"""The λ/μ array kernels against their row-by-row references.

Batch and stream compute λ and μ through the same kernels:
``batch_winners`` (:mod:`repro.failures.tickets`) for the batch dedupe,
and ``merge_sorted_intervals``, ``add_window_intervals`` and
``segmented_scan`` (:mod:`repro.telemetry.windows`) for μ.  Each is
checked here against a Python loop: the loop merge and loop dedupe the
kernels replaced (kept in ``stream_oracle``) and a per-group scan.
"""

from __future__ import annotations

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DataError
from repro.failures.tickets import FAULT_CODE, FaultType, TicketLog, batch_winners
from repro.stream import EventKind, StreamingLambda
from repro.telemetry.aggregate import merge_per_server_intervals
from repro.telemetry.windows import (
    add_window_intervals,
    group_start_flags,
    merge_sorted_intervals,
    segmented_scan,
)
from stream_oracle import (
    Event,
    block_of,
    reference_batch_dedupe_mask,
    reference_merge_per_server_intervals,
)

#: Servers in the toy fleet; gids outside [0, FLEET) are corrupted spills.
FLEET = 6

#: A coarse grid makes equal starts and touching intervals common.
GRID_HOURS = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 24.0, 30.0)

interval_rows = st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=FLEET + 3),
        st.one_of(st.sampled_from(GRID_HOURS),
                  st.floats(min_value=0.0, max_value=100.0)),
        st.one_of(st.just(0.0), st.sampled_from(GRID_HOURS),
                  st.floats(min_value=0.0, max_value=50.0)),
    ),
    max_size=40,
)


def interval_arrays(rows):
    gid = np.array([g for g, _, _ in rows], dtype=np.int64)
    start = np.array([s for _, s, _ in rows], dtype=float)
    end = start + np.array([d for _, _, d in rows], dtype=float)
    return gid, start, end


class TestSegmentedScan:
    REFERENCE_OPS = {"maximum": max, "minimum": min, "add": operator.add}

    @staticmethod
    def per_group_loop(values, starts, fold):
        out, acc = [], None
        for flag, value in zip(starts.tolist(), values.tolist()):
            acc = value if flag else fold(acc, value)
            out.append(acc)
        return out

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(st.booleans(),
                           st.integers(min_value=-10**6, max_value=10**6)),
                 max_size=70),
        st.sampled_from(["maximum", "minimum", "add"]),
    )
    def test_integer_ops_match_per_group_loop(self, rows, op_name):
        starts = np.array([flag for flag, _ in rows], dtype=bool)
        if len(starts):
            starts[0] = True
        values = np.array([value for _, value in rows], dtype=np.int64)
        scanned = segmented_scan(values, starts, getattr(np, op_name))
        assert scanned.dtype == np.int64
        assert scanned.tolist() == self.per_group_loop(
            values, starts, self.REFERENCE_OPS[op_name])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.booleans(),
                           st.floats(min_value=-1e6, max_value=1e6)),
                 max_size=70),
        st.sampled_from(["maximum", "minimum"]),
    )
    def test_float_extrema_match_per_group_loop(self, rows, op_name):
        starts = np.array([flag for flag, _ in rows], dtype=bool)
        if len(starts):
            starts[0] = True
        values = np.array([value for _, value in rows], dtype=float)
        scanned = segmented_scan(values, starts, getattr(np, op_name))
        assert scanned.tolist() == self.per_group_loop(
            values, starts, self.REFERENCE_OPS[op_name])

    def test_group_start_flags(self):
        flags = group_start_flags(np.array([3, 3, 5, 5, 5, -1]))
        assert flags.tolist() == [True, False, True, False, False, True]
        assert group_start_flags(np.array([], dtype=np.int64)).tolist() == []


class TestIntervalMerge:
    @settings(max_examples=150, deadline=None)
    @given(interval_rows, st.randoms(use_true_random=False))
    def test_matches_loop_merge_in_any_order(self, rows, shuffler):
        rows = list(rows)
        shuffler.shuffle(rows)
        gid, start, end = interval_arrays(rows)
        got = merge_per_server_intervals(gid, start, end)
        want = reference_merge_per_server_intervals(gid, start, end)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tolist() == w.tolist()

    def test_touching_and_zero_length_intervals_merge(self):
        first_row, merged_end = merge_sorted_intervals(
            np.array([4, 4, 4, 4, 9]),
            np.array([0.0, 5.0, 5.0, 7.0, 7.0]),
            np.array([5.0, 5.0, 6.0, 7.5, 7.0]),
        )
        # [0,5] touches [5,5] and [5,6]; [7,7.5] starts past 6; gid 9 alone.
        assert first_row.tolist() == [0, 3, 4]
        assert merged_end.tolist() == [6.0, 7.5, 7.0]

    def test_empty_input(self):
        first_row, merged_end = merge_sorted_intervals(
            np.array([], dtype=np.int64), np.array([]), np.array([]))
        assert len(first_row) == 0 and len(merged_end) == 0

    def test_end_before_start_rejected_even_when_swallowed(self):
        # The second interval lies inside the first, so a merge alone
        # would hide its negative duration.
        with pytest.raises(DataError, match="end before start"):
            merge_sorted_intervals(
                np.array([1, 1]), np.array([0.0, 5.0]), np.array([10.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bound_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            merge_sorted_intervals(
                np.array([1, 1]), np.array([0.0, 5.0]), np.array([10.0, bad]))


class TestWindowAdder:
    def test_accumulates_in_place(self):
        diff = np.zeros((2, 4), dtype=np.int64)
        add_window_intervals(diff, np.array([0]), np.array([1.0]),
                             np.array([30.0]), 24.0)
        add_window_intervals(diff, np.array([1, 0]), np.array([50.0, 0.0]),
                             np.array([50.0, 1.0]), 24.0)
        assert np.cumsum(diff[:, :-1], axis=1).tolist() == [[2, 1, 0],
                                                             [0, 0, 1]]

    def test_group_out_of_range_rejected(self):
        diff = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(DataError, match="group_index"):
            add_window_intervals(diff, np.array([-1]), np.array([0.0]),
                                 np.array([1.0]), 24.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bound_rejected(self, bad):
        diff = np.zeros((1, 3), dtype=np.int64)
        with pytest.raises(DataError, match="non-finite"):
            add_window_intervals(diff, np.array([0]), np.array([0.0]),
                                 np.array([bad]), 24.0)
        assert not diff.any()


batch_rows = st.lists(
    st.tuples(
        st.integers(min_value=-1, max_value=7),   # batch id
        st.integers(min_value=0, max_value=2),    # rack
        st.integers(min_value=0, max_value=4),    # day
        st.booleans(),                            # false positive
        st.booleans(),                            # disk (else timeout)
    ),
    max_size=40,
)


class TestBatchWinners:
    @settings(max_examples=150, deadline=None)
    @given(batch_rows, st.randoms(use_true_random=False))
    def test_smallest_ordinal_per_batch(self, rows, shuffler):
        batch = np.array([b for b, *_ in rows], dtype=np.int64)
        ordinal = np.arange(len(rows))
        shuffler.shuffle(ordinal)
        winners = batch_winners(batch, ordinal)
        expected = [
            min(np.flatnonzero(batch == b), key=lambda row: ordinal[row])
            for b in sorted(set(batch[batch >= 0].tolist()))
        ]
        assert winners.tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(batch_rows)
    def test_dedupe_mask_matches_loop(self, rows):
        n = len(rows)
        log = TicketLog()
        log.append_chunk(
            day_index=np.zeros(n, dtype=np.int64),
            start_hour_abs=np.zeros(n),
            rack_index=np.zeros(n, dtype=np.int64),
            server_offset=np.zeros(n, dtype=np.int64),
            fault_code=np.zeros(n, dtype=np.int64),
            false_positive=np.zeros(n, dtype=bool),
            repair_hours=np.zeros(n),
            batch_id=np.array([b for b, *_ in rows], dtype=np.int64),
        )
        log.finalize()
        assert np.array_equal(log.batch_dedupe_mask(),
                              reference_batch_dedupe_mask(log.batch_id))

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(DataError):
            batch_winners(np.array([0, 1]), np.array([0]))


class TestBlockedLambda:
    """Random blockings, checkpoints included, against the loop dedupe."""

    @settings(max_examples=120, deadline=None)
    @given(batch_rows, st.data())
    def test_any_blocking_matches_loop_dedupe(self, rows, data):
        n = len(rows)
        ordinal = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        events = [
            Event(seq=0, time_hours=float(i), kind=EventKind.TICKET_OPEN,
                  rack_index=rack, server_offset=0, day_index=day,
                  fault_code=FAULT_CODE[FaultType.DISK if disk
                                        else FaultType.TIMEOUT],
                  false_positive=fp, repair_hours=1.0, batch_id=batch,
                  ticket_ordinal=int(ordinal[i]))
            for i, (batch, rack, day, fp, disk) in enumerate(rows)
        ]
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=n), max_size=6)))
        resume_at = data.draw(st.integers(min_value=0, max_value=len(cuts)))
        estimator = StreamingLambda(3, 5, faults=[FaultType.DISK])
        for i, (lo, hi) in enumerate(zip([0] + cuts, cuts + [n])):
            if i == resume_at:
                estimator = StreamingLambda.from_state(
                    estimator.state_arrays(), estimator.meta())
            if hi > lo:
                estimator.update_block(block_of(*events[lo:hi]))

        # The batch rule: dedupe in log (ordinal) order, then filter.
        log_order = np.argsort(ordinal)
        keep = np.zeros(n, dtype=bool)
        keep[log_order] = reference_batch_dedupe_mask(
            np.array([rows[i][0] for i in log_order], dtype=np.int64))
        expected = np.zeros((3, 5), dtype=np.int64)
        for i, (_batch, rack, day, fp, disk) in enumerate(rows):
            if keep[i] and not fp and disk:
                expected[rack, day] += 1
        assert np.array_equal(estimator.matrix(), expected)
        assert estimator.events_counted == expected.sum()
        winners = estimator.state_arrays()["winners"]
        assert winners[:, 0].tolist() == sorted(
            {batch for batch, *_ in rows if batch >= 0})
        for batch_id, won, rack, day, passes in winners.tolist():
            row = int(np.flatnonzero(ordinal == won)[0])
            assert rows[row][0] == batch_id and keep[row]
            assert (rack, day) == rows[row][1:3]
            assert passes == int(not rows[row][3] and rows[row][4])
