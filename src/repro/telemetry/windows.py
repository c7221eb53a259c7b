"""Time-window machinery for the concurrent-failure metric μ.

The paper's μ "tracks number of devices that are concurrently
unavailable due to failure ... computed at different spatial and
temporal resolutions" (§V).  Concretely, for a window (a day, an hour)
μ counts the devices whose downtime interval intersects the window.

Daily windows treat two non-overlapping same-day failures as
simultaneous; hourly windows do not — which is exactly the "temporal
multiplexing" that lets MF provisioning drop by ~half when moving from
daily to hourly granularity (Fig 10 vs Fig 12).

The μ rules have one implementation each: :func:`merge_sorted_intervals`
(per-server interval merge) and :func:`add_window_intervals` (the
difference-array window count).  The batch
:func:`~repro.telemetry.aggregate.mu_matrix` calls them once over the
whole log and :class:`~repro.stream.estimators.StreamingMu` once per
block, so streamed μ equals batch μ by construction.
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


def group_start_flags(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a new group begins in a group-sorted key array."""
    flags = np.empty(len(sorted_keys), dtype=bool)
    if len(flags):
        flags[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=flags[1:])
    return flags


def segmented_scan(
    values: np.ndarray,
    starts: np.ndarray,
    op,
) -> np.ndarray:
    """Inclusive per-group prefix reduction (groups are contiguous).

    Hillis–Steele over log₂(n) doubling passes: element *i* folds in
    element *i − shift* whenever both sit in the same group.  Exact for
    any associative ``op`` (``np.maximum``, ``np.minimum``, integer
    ``np.add``) — no floating-point re-bracketing tricks, which is what
    keeps the interval merge exact.
    """
    n = len(values)
    out = values.copy()
    if n == 0:
        return out
    position = np.arange(n)
    first = np.maximum.accumulate(np.where(starts, position, 0))
    offset = position - first
    shift = 1
    while shift < n:
        eligible = offset >= shift
        shifted = np.empty_like(out)
        shifted[shift:] = out[:-shift]
        shifted[:shift] = out[:shift]  # never read: offset < shift there
        np.copyto(out, op(out, shifted), where=eligible)
        shift <<= 1
    return out


def _check_intervals(
    group: np.ndarray, starts: np.ndarray, ends: np.ndarray,
) -> None:
    """The input rules both μ kernels hold their callers to."""
    if not (len(group) == len(starts) == len(ends)):
        raise DataError("group/start/end arrays must be aligned")
    if not (np.isfinite(starts).all() and np.isfinite(ends).all()):
        raise DataError("non-finite interval bound")
    if np.any(ends < starts):
        raise DataError("interval end before start")


def merge_sorted_intervals(
    group: np.ndarray,
    start_hours: np.ndarray,
    end_hours: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge overlapping intervals within each group.

    Rows must be grouped by ``group`` and start-ordered within each
    group.  An interval joins the current merged segment when it starts
    at or before the running maximum of the group's earlier ends
    (touching intervals merge), so the merge is a segmented prefix-max.

    Returns:
        ``(first_row, merged_end)``: each merged segment's first row
        index (its group and start) and its end, in row order.
    """
    group = np.asarray(group)
    starts = np.asarray(start_hours, dtype=float)
    ends = np.asarray(end_hours, dtype=float)
    _check_intervals(group, starts, ends)
    flags = group_start_flags(group)
    running_end = segmented_scan(ends, flags, np.maximum)
    new_segment = flags.copy()
    new_segment[1:] |= starts[1:] > running_end[:-1]
    first_row = np.flatnonzero(new_segment)
    last_row = np.empty_like(first_row)
    last_row[:-1] = first_row[1:] - 1
    last_row[-1:] = len(starts) - 1
    return first_row, running_end[last_row]


def add_window_intervals(
    diff: np.ndarray,
    group_index: np.ndarray,
    start_hours: np.ndarray,
    end_hours: np.ndarray,
    window_hours: float,
) -> None:
    """Add each interval to a per-group window difference array, in place.

    ``diff`` has shape ``(n_groups, total_windows + 1)``; an interval
    adds +1 at its first window and −1 after its last, so a cumulative
    sum along each row counts the intervals intersecting each window.
    Intervals wholly outside ``[0, total_windows)`` are dropped and
    partial ones clipped to it (clipping the former would fold them
    into the edge windows).  O(n), so hourly μ over 2.5 years × hundreds
    of racks stays cheap.
    """
    group_index = np.asarray(group_index, dtype=np.int64)
    starts = np.asarray(start_hours, dtype=float)
    ends = np.asarray(end_hours, dtype=float)
    _check_intervals(group_index, starts, ends)
    if not diff.flags.c_contiguous:
        raise ValueError("diff must be C-contiguous")
    n_groups, stride = diff.shape
    if group_index.size and (group_index.min() < 0 or group_index.max() >= n_groups):
        raise DataError(f"group_index outside [0, {n_groups})")

    total_windows = stride - 1
    first = np.floor(starts / window_hours).astype(np.int64)
    last = np.floor(ends / window_hours).astype(np.int64)
    inside = (last >= 0) & (first < total_windows)
    row = group_index[inside] * stride
    flat = diff.reshape(-1)  # a view, since diff is C-contiguous
    np.add.at(flat, row + np.maximum(first[inside], 0), 1)
    np.add.at(flat, row + np.minimum(last[inside], total_windows - 1) + 1, -1)


def per_group_window_counts(
    group_index: np.ndarray,
    start_hours: np.ndarray,
    end_hours: np.ndarray,
    n_groups: int,
    window_hours: float,
    total_windows: int,
) -> np.ndarray:
    """Per-group interval-overlap counts: shape (n_groups, total_windows).

    ``group_index`` assigns each interval to a group (e.g. its rack); an
    interval counts in every window from ``floor(start / window_hours)``
    to ``floor(end / window_hours)``.  The workhorse behind per-rack μ
    matrices: :func:`add_window_intervals` over zeros, then a
    cumulative sum along each row.
    """
    if n_groups < 1:
        raise DataError(f"n_groups must be >= 1, got {n_groups}")
    if total_windows < 1:
        raise DataError(f"total_windows must be >= 1, got {total_windows}")
    diff = np.zeros((n_groups, total_windows + 1), dtype=np.int64)
    add_window_intervals(diff, group_index, start_hours, end_hours, window_hours)
    return np.cumsum(diff[:, :-1], axis=1)


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
