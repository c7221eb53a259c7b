"""Helpers shared by the workload modules: statistics, outcome counts,
the host probe and the per-run work directory."""

from __future__ import annotations

import contextlib
import os
import pathlib
import resource
import shutil
import statistics
import sys
import threading
import time

#: Checkout root (this file lives in ``<root>/perfbench``).
ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Scratch space the workload processes write to; listed in ``.gitignore``.
WORK_ROOT = ROOT / ".perfbench-work"


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """Nearest-rank q-quantile of raw samples."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return float(ordered[rank])


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


class Outcomes:
    """Attempted/failed operation counts, per phase, plus the first few
    failures (thread-safe: the serve workload records from several
    callers).  Set :attr:`phase` before each phase."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.by_phase: dict[str, list[int]] = {}
        self.problems: list[str] = []
        self._lock = threading.Lock()

    @property
    def attempted(self) -> int:
        return sum(attempted for attempted, _ in self.by_phase.values())

    @property
    def failed(self) -> int:
        return sum(failed for _, failed in self.by_phase.values())

    def record(self, ok: bool, what: str = "") -> bool:
        """One operation and whether it, and its output check, passed."""
        with self._lock:
            counts = self.by_phase.setdefault(self.phase, [0, 0])
            counts[0] += 1
            if not ok:
                counts[1] += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{self.phase}: {what}")
        if not ok:
            print(f"perfbench: FAILED {self.phase}: {what}", file=sys.stderr,
                  flush=True)
        return ok

    def check(self, ok: bool, what: str) -> bool:
        """A check over operations already recorded: a mismatch counts
        as one more failed operation."""
        return ok or self.record(ok, what)


def host_probe_ms() -> float:
    """Fixed-work host probe: a short numpy kernel plus a pure-Python
    loop, identical every run.  A diagnostic only — it never scales,
    filters or bounds a metric; it shows host drift apart from a
    program change."""
    import numpy as np

    rng = np.random.default_rng(12345)
    data = rng.random(400_000)
    matrix = rng.random((160, 160))
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(data)
        matrix @ matrix
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append(time.perf_counter() - start)
    return 1e3 * median(samples)


@contextlib.contextmanager
def work_dir(name: str):
    """A fresh scratch directory inside the checkout, removed on exit."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_for(seconds: float, minimum: int, maximum: int, step) -> list:
    """Call ``step()`` until ``seconds`` have passed (at least
    ``minimum``, at most ``maximum`` times); returns its results."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < maximum and (
            len(results) < minimum or time.perf_counter() < deadline):
        results.append(step())
    return results
