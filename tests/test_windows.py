"""Window/interval machinery tests, including brute-force cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DataError
from repro.telemetry.windows import (
    event_day_counts,
    n_windows,
    per_group_window_counts,
)


def interval_window_counts(starts, ends, window_hours, total):
    """One group's window counts: ``per_group_window_counts`` with one group."""
    group = np.zeros(len(starts), dtype=np.int64)
    return per_group_window_counts(group, starts, ends, 1, window_hours, total)[0]


def brute_force_window_counts(starts, ends, window_hours, total):
    counts = np.zeros(total, dtype=int)
    for w in range(total):
        lo, hi = w * window_hours, (w + 1) * window_hours
        for s, e in zip(starts, ends):
            # Interval [s, e] intersects window [lo, hi) — matching the
            # implementation's floor-based assignment.  Intervals with no
            # overlap with [0, total) at all are dropped, not clipped.
            first = int(np.floor(s / window_hours))
            last = int(np.floor(e / window_hours))
            if last < 0 or first >= total:
                continue
            if max(first, 0) <= w <= min(last, total - 1):
                counts[w] += 1
    return counts


class TestNWindows:
    def test_daily(self):
        assert n_windows(10, 24.0) == 10

    def test_hourly(self):
        assert n_windows(2, 1.0) == 48

    def test_partial_window_rounds_up(self):
        assert n_windows(1, 7.0) == 4

    def test_invalid_args(self):
        with pytest.raises(DataError):
            n_windows(0, 24.0)
        with pytest.raises(DataError):
            n_windows(5, 0.0)


class TestIntervalCounts:
    def test_single_interval_spanning_windows(self):
        counts = interval_window_counts(
            np.array([10.0]), np.array([30.0]), 24.0, 3
        )
        assert counts.tolist() == [1, 1, 0]

    def test_point_interval(self):
        counts = interval_window_counts(np.array([25.0]), np.array([25.0]), 24.0, 3)
        assert counts.tolist() == [0, 1, 0]

    def test_clipping_to_range(self):
        counts = interval_window_counts(np.array([-5.0]), np.array([100.0]), 24.0, 2)
        assert counts.tolist() == [1, 1]

    def test_interval_entirely_after_range_dropped(self):
        # Regression: these used to be clipped into the last window.
        counts = interval_window_counts(np.array([120.0]), np.array([150.0]), 24.0, 3)
        assert counts.tolist() == [0, 0, 0]

    def test_interval_entirely_before_range_dropped(self):
        # Regression: these used to be clipped into the first window.
        counts = interval_window_counts(np.array([-30.0]), np.array([-5.0]), 24.0, 3)
        assert counts.tolist() == [0, 0, 0]

    def test_mixed_inside_and_outside_intervals(self):
        counts = interval_window_counts(
            np.array([-40.0, 5.0, 200.0]),
            np.array([-20.0, 30.0, 300.0]),
            24.0, 3,
        )
        assert counts.tolist() == [1, 1, 0]

    def test_end_before_start_rejected(self):
        with pytest.raises(DataError):
            interval_window_counts(np.array([5.0]), np.array([1.0]), 24.0, 2)

    def test_empty_input(self):
        counts = interval_window_counts(np.array([]), np.array([]), 24.0, 4)
        assert counts.tolist() == [0, 0, 0, 0]

    @settings(max_examples=60)
    @given(st.lists(
        st.tuples(st.floats(min_value=0, max_value=200),
                  st.floats(min_value=0, max_value=60)),
        min_size=0, max_size=25,
    ), st.sampled_from([1.0, 6.0, 24.0]))
    def test_matches_brute_force(self, intervals, window_hours):
        starts = np.array([s for s, _ in intervals])
        ends = np.array([s + d for s, d in intervals])
        total = 10
        fast = interval_window_counts(starts, ends, window_hours, total)
        slow = brute_force_window_counts(starts, ends, window_hours, total)
        assert np.array_equal(fast, slow)


class TestPerGroupCounts:
    def test_groups_are_independent(self):
        counts = per_group_window_counts(
            group_index=np.array([0, 1, 1]),
            start_hours=np.array([0.0, 0.0, 30.0]),
            end_hours=np.array([10.0, 50.0, 40.0]),
            n_groups=2, window_hours=24.0, total_windows=3,
        )
        assert counts.shape == (2, 3)
        assert counts[0].tolist() == [1, 0, 0]
        assert counts[1].tolist() == [1, 2, 1]

    def test_group_out_of_range_rejected(self):
        with pytest.raises(DataError):
            per_group_window_counts(
                np.array([5]), np.array([0.0]), np.array([1.0]),
                n_groups=2, window_hours=24.0, total_windows=2,
            )

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(DataError):
            per_group_window_counts(
                np.array([0, 1]), np.array([0.0]), np.array([1.0]),
                n_groups=2, window_hours=24.0, total_windows=2,
            )

    def test_out_of_range_intervals_dropped_per_group(self):
        # Regression: group 1's interval lies wholly beyond the range and
        # must not be folded into its last window.
        counts = per_group_window_counts(
            group_index=np.array([0, 1]),
            start_hours=np.array([0.0, 90.0]),
            end_hours=np.array([10.0, 95.0]),
            n_groups=2, window_hours=24.0, total_windows=3,
        )
        assert counts[0].tolist() == [1, 0, 0]
        assert counts[1].tolist() == [0, 0, 0]

    @settings(max_examples=40)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=2),
                  st.floats(min_value=0, max_value=100),
                  st.floats(min_value=0, max_value=50)),
        min_size=1, max_size=20,
    ))
    def test_per_group_equals_separate_calls(self, rows):
        groups = np.array([g for g, _, _ in rows])
        starts = np.array([s for _, s, _ in rows])
        ends = starts + np.array([d for _, _, d in rows])
        combined = per_group_window_counts(groups, starts, ends, 3, 24.0, 6)
        for g in range(3):
            mask = groups == g
            separate = interval_window_counts(starts[mask], ends[mask], 24.0, 6)
            assert np.array_equal(combined[g], separate)


class TestEventDayCounts:
    def test_basic_counting(self):
        counts = event_day_counts(
            group_index=np.array([0, 0, 1]),
            day_index=np.array([0, 0, 2]),
            n_groups=2, total_days=3,
        )
        assert counts[0].tolist() == [2, 0, 0]
        assert counts[1].tolist() == [0, 0, 1]

    def test_day_out_of_range_rejected(self):
        with pytest.raises(DataError):
            event_day_counts(np.array([0]), np.array([5]), 1, 3)

    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        groups = rng.integers(0, 4, 200)
        days = rng.integers(0, 30, 200)
        counts = event_day_counts(groups, days, 4, 30)
        assert counts.sum() == 200

