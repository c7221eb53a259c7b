"""Time-window machinery for the concurrent-failure metric μ.

The paper's μ "tracks number of devices that are concurrently
unavailable due to failure ... computed at different spatial and
temporal resolutions" (§V).  Concretely, for a window (a day, an hour)
μ counts the devices whose downtime interval intersects the window.

Daily windows treat two non-overlapping same-day failures as
simultaneous; hourly windows do not — which is exactly the "temporal
multiplexing" that lets MF provisioning drop by ~half when moving from
daily to hourly granularity (Fig 10 vs Fig 12).
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError

HOURS_PER_DAY = 24.0


def n_windows(n_days: int, window_hours: float) -> int:
    """Number of whole windows covering an ``n_days`` observation."""
    if n_days < 1:
        raise DataError(f"n_days must be >= 1, got {n_days}")
    if window_hours <= 0:
        raise DataError(f"window_hours must be positive, got {window_hours}")
    return int(np.ceil(n_days * HOURS_PER_DAY / window_hours))


def interval_window_counts(
    start_hours: np.ndarray,
    end_hours: np.ndarray,
    window_hours: float,
    total_windows: int,
) -> np.ndarray:
    """Count intervals intersecting each window.

    Args:
        start_hours: interval start, absolute hours from day 0.
        end_hours: interval end (exclusive), absolute hours.
        window_hours: window length in hours (24 = daily, 1 = hourly).
        total_windows: output length.  Intervals partially overlapping
            the range are clipped to it; intervals entirely outside
            ``[0, total_windows)`` are dropped.

    Returns:
        Integer array of length ``total_windows``: the number of given
        intervals overlapping each window.

    Implemented with a difference array: O(n + total_windows), so hourly
    μ over 2.5 years × hundreds of racks stays cheap.
    """
    starts = np.asarray(start_hours, dtype=float)
    ends = np.asarray(end_hours, dtype=float)
    if starts.shape != ends.shape:
        raise DataError(f"shape mismatch: {starts.shape} vs {ends.shape}")
    if total_windows < 1:
        raise DataError(f"total_windows must be >= 1, got {total_windows}")
    if starts.size and np.any(ends < starts):
        raise DataError("interval end before start")

    first = np.floor(starts / window_hours).astype(np.int64)
    last = np.floor(ends / window_hours).astype(np.int64)
    # Intervals entirely outside [0, total_windows) contribute nothing;
    # clipping would wrongly fold them into the edge windows.
    inside = (last >= 0) & (first < total_windows)
    first = np.clip(first[inside], 0, total_windows - 1)
    last = np.clip(last[inside], 0, total_windows - 1)

    diff = np.zeros(total_windows + 1, dtype=np.int64)
    np.add.at(diff, first, 1)
    np.add.at(diff, last + 1, -1)
    return np.cumsum(diff[:-1])


def per_group_window_counts(
    group_index: np.ndarray,
    start_hours: np.ndarray,
    end_hours: np.ndarray,
    n_groups: int,
    window_hours: float,
    total_windows: int,
) -> np.ndarray:
    """Per-group interval-overlap counts: shape (n_groups, total_windows).

    ``group_index`` assigns each interval to a group (e.g. its rack).
    This is the workhorse behind per-rack μ matrices.
    """
    group_index = np.asarray(group_index, dtype=np.int64)
    starts = np.asarray(start_hours, dtype=float)
    ends = np.asarray(end_hours, dtype=float)
    if not (len(group_index) == len(starts) == len(ends)):
        raise DataError("group/start/end arrays must be aligned")
    if n_groups < 1:
        raise DataError(f"n_groups must be >= 1, got {n_groups}")
    if group_index.size and (group_index.min() < 0 or group_index.max() >= n_groups):
        raise DataError("group_index outside [0, n_groups)")
    if starts.size and np.any(ends < starts):
        raise DataError("interval end before start")

    first = np.floor(starts / window_hours).astype(np.int64)
    last = np.floor(ends / window_hours).astype(np.int64)
    # Same out-of-range rule as interval_window_counts: intervals fully
    # outside the observation are dropped, not clipped into the edges.
    inside = (last >= 0) & (first < total_windows)
    group_index = group_index[inside]
    first = np.clip(first[inside], 0, total_windows - 1)
    last = np.clip(last[inside], 0, total_windows - 1)

    # One flattened difference array over groups × (windows + 1).
    stride = total_windows + 1
    diff = np.zeros(n_groups * stride, dtype=np.int64)
    np.add.at(diff, group_index * stride + first, 1)
    np.add.at(diff, group_index * stride + last + 1, -1)
    counts = np.cumsum(diff.reshape(n_groups, stride), axis=1)[:, :-1]
    return counts


def event_day_counts(
    group_index: np.ndarray,
    day_index: np.ndarray,
    n_groups: int,
    total_days: int,
) -> np.ndarray:
    """Per-group per-day event counts: shape (n_groups, total_days).

    The failure-rate metric λ is this matrix averaged over days (or any
    other aggregation the figures need).
    """
    group_index = np.asarray(group_index, dtype=np.int64)
    day_index = np.asarray(day_index, dtype=np.int64)
    if len(group_index) != len(day_index):
        raise DataError("group/day arrays must be aligned")
    if n_groups < 1 or total_days < 1:
        raise DataError("n_groups and total_days must be >= 1")
    if day_index.size and (day_index.min() < 0 or day_index.max() >= total_days):
        raise DataError("day_index outside [0, total_days)")
    if group_index.size and (group_index.min() < 0 or group_index.max() >= n_groups):
        raise DataError("group_index outside [0, n_groups)")
    flat = group_index * total_days + day_index
    counts = np.bincount(flat, minlength=n_groups * total_days)
    return counts.reshape(n_groups, total_days)
