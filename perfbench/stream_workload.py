"""``stream-replay``: three paper-scale shards replayed through the
streaming analyzer, with no CART anywhere on the path.

Each pass flattens every shard with ``blocks_from_result`` and folds it
into a fresh ``StreamAnalyzer`` (``consume_blocks`` + ``finish``).  The
stressed spare fraction keeps the SLA-risk trigger firing.  Besides the
passes, a run times the operator's restart path: resume an analyzer
from a checkpoint taken at the start of the shard's last day and fold
that day in (``incremental``), once per shard after every pass.

The final λ/μ of every shard must equal the batch
``telemetry.lambda_matrix`` / ``mu_matrix``, checked outside the timed
passes, and every pass must raise the same alerts.
"""

from __future__ import annotations

import time

from common import Outcomes, median, work_dir

#: Shards per pass; shard ``i`` simulates seed ``seed + i``.
N_SHARDS = 3
SPARE_FRACTION = 0.05
SLA_LEVEL = 1.0


class StreamState:
    def __init__(self, seed: int):
        import repro
        import repro.stream
        from repro.decisions import AvailabilitySla

        self.repro = repro
        # Looked up per call, so the tracer's wrappers are seen.
        self.stream = repro.stream
        self.sla = AvailabilitySla(SLA_LEVEL)
        self.shards = [
            repro.simulate(repro.SimulationConfig.paper_scale(seed + i))
            for i in range(N_SHARDS)
        ]

    def analyzer(self, result):
        return self.stream.StreamAnalyzer(
            self.stream.StreamInventory.from_result(result), sla=self.sla,
            spare_fraction=SPARE_FRACTION)

    def replay(self, result):
        analyzer = self.analyzer(result)
        events = analyzer.consume_blocks(
            self.stream.blocks_from_result(result))
        analyzer.finish()
        return analyzer, events

    def one_pass(self):
        """(seconds, events, alerts, analyzers)."""
        analyzers, events = [], 0
        start = time.perf_counter()
        for result in self.shards:
            analyzer, n = self.replay(result)
            analyzers.append(analyzer)
            events += n
        seconds = time.perf_counter() - start
        alerts = sum(len(a.alerts) for a in analyzers)
        return seconds, events, alerts, analyzers


def setup(seed: int) -> StreamState:
    return StreamState(seed)


def _matches_batch(state: StreamState, analyzers) -> bool:
    """Every shard's streamed λ/μ equal the batch matrices."""
    import numpy as np

    return all(
        np.array_equal(analyzer.lambda_matrix(),
                       state.repro.lambda_matrix(result))
        and np.array_equal(analyzer.mu_matrix(), state.repro.mu_matrix(result))
        for result, analyzer in zip(state.shards, analyzers))


def measure(state: StreamState, seconds: float, tracer=None) -> dict:
    outcomes = Outcomes()
    with work_dir("stream") as scratch:
        resume = Resumer(state, scratch)
        passes, incremental = [], []
        deadline = time.perf_counter() + seconds
        while len(passes) < 4 or time.perf_counter() < deadline:
            outcomes.phase = "passes"
            elapsed, events, alerts, analyzers = state.one_pass()
            passes.append(elapsed)
            if len(passes) == 1:
                first = (events, alerts)
                outcomes.record(_matches_batch(state, analyzers),
                                "streamed λ/μ differ from the batch matrices")
                resume.expect(analyzers)
            else:
                outcomes.record((events, alerts) == first,
                                f"pass {len(passes)}: {events} events / "
                                f"{alerts} alerts, first pass had {first}")
            del analyzers
            outcomes.phase = "incremental"
            incremental.extend(resume.each_shard(outcomes))
    events, alerts = first
    # Every pass starts from fresh analyzers, so each is a cold replay.
    metrics = {
        "cold_s": median(passes),
        "events_per_s": events / median(passes),
        "incremental_s": median(incremental),
    }
    diagnostics = {"events_per_pass": events, "alerts_per_pass": alerts}
    layers = None
    if tracer is not None:
        outcomes.phase = "traced"
        layers = _traced(state, tracer, metrics["events_per_s"], outcomes,
                         diagnostics)
    return {
        "metrics": metrics, "layers": layers, "outcomes": outcomes,
        "samples": {"cold_s": len(passes), "events_per_s": len(passes),
                    "incremental_s": len(incremental)},
        "diagnostics": diagnostics,
    }


class Resumer:
    """Per shard, an analyzer checkpointed at the start of the last day;
    each resume loads it, folds the last day in and finishes."""

    def __init__(self, state: StreamState, scratch):
        self.state = state
        self.checkpoints = []
        for index, result in enumerate(state.shards):
            cutoff = 24.0 * (result.config.n_days - 1)
            before = sum(int((block.time_hours < cutoff).sum())
                         for block in state.stream.blocks_from_result(result))
            analyzer = state.analyzer(result)
            analyzer.consume_blocks(state.stream.blocks_from_result(result),
                                    max_events=before)
            path = scratch / f"shard-{index}.npz"
            state.stream.save_checkpoint(analyzer, path)
            self.checkpoints.append((result, path, analyzer.events_seen))
        self.expected = []

    def expect(self, analyzers) -> None:
        """Keep what each full replay ended with, to check resumes."""
        self.expected = [
            (a.events_seen, len(a.alerts), a.lambda_matrix(), a.mu_matrix())
            for a in analyzers
        ]

    def each_shard(self, outcomes: Outcomes) -> list[float]:
        import numpy as np

        latencies = []
        for index, (result, path, seen) in enumerate(self.checkpoints):
            start = time.perf_counter()
            analyzer = self.state.stream.load_checkpoint(
                path, self.state.stream.StreamInventory.from_result(result))
            analyzer.consume_blocks(
                self.state.stream.blocks_from_result(result, skip=seen))
            analyzer.finish()
            latencies.append(time.perf_counter() - start)
            events, alerts, lam, mu = self.expected[index]
            outcomes.record(
                analyzer.events_seen == events
                and len(analyzer.alerts) == alerts
                and np.array_equal(analyzer.lambda_matrix(), lam)
                and np.array_equal(analyzer.mu_matrix(), mu),
                f"shard {index}: resumed analyzer differs from a full replay")
        return latencies


def _traced(state, tracer, untraced_events_per_s, outcomes, diagnostics):
    """Traced passes: per-layer numbers, exact-count agreement between
    two passes, and one tracemalloc'd pass for the stream's peak."""
    import tracemalloc

    tracer.install()
    try:
        tracer.reset()
        seconds, events, _, _ = state.one_pass()
        layers = tracer.layer_metrics()
        counts = tracer.repeat_counts()
        tracer.reset()
        state.one_pass()
        repeat = tracer.repeat_counts()
    finally:
        tracer.uninstall()
    outcomes.check(counts == repeat,
                   f"traced counts differ between two passes: "
                   f"{counts} vs {repeat}")
    tracemalloc.start()
    try:
        state.one_pass()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    layers["stream.peak_alloc_mb"] = peak / 2**20
    diagnostics["trace_overhead_events_per_s"] = (
        untraced_events_per_s / (events / seconds) - 1)
    return layers
