"""Spans and counts recorded around calls into the program's layers.

The tracer lives entirely in the benchmark: :meth:`Tracer.install`
swaps each listed public callable for a wrapper that records a span
(layer, name, start, end, parent) and :meth:`Tracer.uninstall` puts the
originals back.  Functions are replaced in every ``repro`` module that
bound them by name (``from ..x import f``); methods are replaced on
their class.  Nothing in the program changes, so the traced passes
produce the same artifacts as the untraced ones.

A layer's self time is the time its spans cover minus the time their
child spans cover, so nested layers (CART inside a multi-factor model
inside a render) are each counted once.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import Counter
from typing import Any, Callable


#: Per-layer self-time metric → the span layer it sums.
SELF_TIME_METRICS = {
    "failures.simulate_s": "failures.simulate",
    "failures.step_s": "failures.step",
    "stream.blocks.flatten_s": "stream.blocks",
    "stream.analyze_s": "stream",
    "telemetry.rack_day_s": "telemetry.rack_day",
    "analysis.cart.fit_s": "analysis.cart.fit",
    "analysis.cart.predict_s": "analysis.cart.predict",
    "analysis.mf_s": "analysis.mf",
    "decisions.compare_skus_s": "decisions.compare_skus",
    "decisions.provisioner_s": "decisions.provisioner",
    "fielddata.payload_s": "fielddata.payload",
    "predict.features_s": "predict.features",
    "predict.train_s": "predict.train",
    "autonomics.policy_s": "autonomics.policy",
    "pipeline.put_s": "pipeline.put",
    "pipeline.fetch_s": "pipeline.fetch",
    "reporting.render_s": "reporting.render",
}
#: Counts recorded at the same boundaries.
COUNT_METRICS = (
    "failures.tickets", "failures.steps", "stream.blocks.events",
    "stream.alerts", "analysis.cart.fits", "analysis.cart.repeat_fits",
    "analysis.cart.fit_cells", "decisions.compare_skus",
    "autonomics.policy_runs", "pipeline.put_bytes",
)
#: Counts asserted to repeat exactly across two runs of one seed.
REPEAT_COUNTS = (
    "analysis.cart.fits", "analysis.cart.repeat_fits",
    "decisions.compare_skus", "failures.steps", "stream.blocks.events",
    "stream.alerts",
)


class Tracer:
    """In-memory span recorder with per-layer self time and counts."""

    def __init__(self) -> None:
        #: (id, layer, name, start, end, parent id or -1), in end order.
        self.spans: list[tuple[int, str, str, float, float, int]] = []
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._undo: list[tuple[Any, str, Any]] = []
        self._fit_digests: set[str] = set()

    # -- spans ----------------------------------------------------------

    def span(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span; returns its result."""
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([span_id, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, child_s = self._stack.pop()
            self.self_s[layer] += (end - start) - child_s
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append((span_id, layer, name, start, end, parent))

    def wrap(self, layer: str, fn: Callable,
             after: Callable[..., None] | None = None) -> Callable:
        """``fn`` recorded as a ``layer`` span; ``after(result, *args)``
        updates counts once the call returns."""
        name = getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(layer, name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def timed_iter(self, layer: str, iterator, on_item=None):
        """Yield from ``iterator`` with each ``next`` as a span."""
        iterator = iter(iterator)
        while True:
            try:
                item = self.span(layer, "next", next, iterator)
            except StopIteration:
                return
            if on_item is not None:
                on_item(item)
            yield item

    # -- installing wrappers -------------------------------------------

    def patch_function(self, module_name: str, attr: str, layer: str,
                       after=None, wrapper=None) -> None:
        """Replace a module-level function wherever ``repro`` bound it."""
        original = getattr(sys.modules[module_name], attr)
        replacement = wrapper or self.wrap(layer, original, after)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, replacement)

    def patch_method(self, cls: type, attr: str, layer: str,
                     after=None) -> None:
        """Replace one method (plain, static or class) on ``cls``."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            replacement: Any = staticmethod(
                self.wrap(layer, raw.__func__, after))
        elif isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(layer, raw.__func__, after))
        else:
            replacement = self.wrap(layer, raw, after)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- layer catalogue -------------------------------------------------

    def install(self) -> None:
        """Wrap the public entry points of every layer the benchmark
        reports on (see :data:`SELF_TIME_METRICS`)."""
        from repro.analysis import MultiFactorModel, RegressionTree
        from repro.autonomics import whatif
        from repro.decisions import ComponentProvisioner, SpareProvisioner
        from repro.failures.engine import SimulationSession
        from repro.pipeline import ArtifactStore
        from repro.reporting.experiments import Experiment
        from repro.stream import StreamAnalyzer

        count = self.counts

        self.patch_function("repro.failures.engine", "simulate",
                            "failures.simulate")
        self.patch_method(
            SimulationSession, "step", "failures.step",
            after=lambda log, *a, **k: count.update(
                {"failures.steps": 1, "failures.tickets": len(log)}),
        )

        def blocks_wrapper(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                return self.timed_iter(
                    "stream.blocks", original(*args, **kwargs),
                    on_item=lambda block: count.update(
                        {"stream.blocks.events": len(block)}),
                )
            return traced

        self.patch_function(
            "repro.stream.blocks", "blocks_from_result", "stream.blocks",
            wrapper=blocks_wrapper(
                sys.modules["repro.stream.blocks"].blocks_from_result),
        )
        self.patch_method(StreamAnalyzer, "consume_blocks", "stream")
        self.patch_method(
            StreamAnalyzer, "finish", "stream",
            after=lambda _alerts, analyzer: count.update(
                {"stream.alerts": len(analyzer.alerts)}),
        )
        self.patch_function("repro.telemetry.aggregate",
                            "build_rack_day_table", "telemetry.rack_day")

        self.patch_method(RegressionTree, "fit", "analysis.cart.fit",
                          after=self._count_fit)
        self.patch_method(RegressionTree, "predict", "analysis.cart.predict")
        for attr, raw in list(vars(MultiFactorModel).items()):
            if attr == "__init__" or (
                    not attr.startswith("_")
                    and (inspect.isfunction(raw)
                         or isinstance(raw, (staticmethod, classmethod)))):
                self.patch_method(MultiFactorModel, attr, "analysis.mf")

        self.patch_function(
            "repro.decisions.sku_ranking", "compare_skus",
            "decisions.compare_skus",
            after=lambda *a, **k: count.update({"decisions.compare_skus": 1}),
        )
        for cls in (SpareProvisioner, ComponentProvisioner):
            self.patch_method(cls, "__init__", "decisions.provisioner")
        self.patch_function("repro.fielddata.robustness",
                            "noise_point_payload", "fielddata.payload")
        self.patch_function("repro.predict.dataset", "build_feature_dataset",
                            "predict.features")
        self.patch_function("repro.predict.model", "train_predictor",
                            "predict.train")
        self.patch_function(
            whatif.__name__, "run_policy", "autonomics.policy",
            after=lambda *a, **k: count.update({"autonomics.policy_runs": 1}),
        )
        self.patch_method(ArtifactStore, "put", "pipeline.put",
                          after=self._count_put)
        self.patch_method(ArtifactStore, "fetch", "pipeline.fetch")
        self.patch_method(Experiment, "render", "reporting.render")

    def _count_fit(self, _tree, *args, **kwargs) -> None:
        import numpy as np

        from repro.analysis import RegressionTree

        bound = inspect.signature(RegressionTree.fit).bind(*args, **kwargs)
        bound.apply_defaults()
        tree, matrix, y, schema, sample_weight = bound.args
        matrix = np.ascontiguousarray(matrix, dtype=float)
        y = np.ascontiguousarray(y, dtype=float)
        digest = hashlib.sha256()
        digest.update(repr(matrix.shape).encode())
        digest.update(matrix.tobytes())
        digest.update(y.tobytes())
        if sample_weight is not None:
            digest.update(np.ascontiguousarray(sample_weight,
                                               dtype=float).tobytes())
        digest.update(repr(list(schema)).encode())
        digest.update(repr(tree.params).encode())
        key = digest.hexdigest()
        self.counts.update({
            "analysis.cart.fits": 1,
            "analysis.cart.repeat_fits": int(key in self._fit_digests),
            "analysis.cart.fit_cells": int(matrix.shape[0] * matrix.shape[1]),
        })
        self._fit_digests.add(key)

    def _count_put(self, _result, store, stage, key, _artifact) -> None:
        if store.root is None or stage.codec is None:
            return
        entry = store.entry_dir(stage.name, key)
        self.counts["pipeline.put_bytes"] += sum(
            path.stat().st_size for path in entry.rglob("*") if path.is_file())

    # -- read-out ---------------------------------------------------------

    def reset(self) -> None:
        """Forget every span and count (wrappers stay installed)."""
        self.spans.clear()
        self.self_s.clear()
        self.counts.clear()
        self._fit_digests.clear()

    def layer_metrics(self) -> dict:
        """Self seconds per timed layer and every count, by metric name."""
        metrics = {name: float(self.self_s.get(layer, 0.0))
                   for name, layer in SELF_TIME_METRICS.items()}
        metrics.update({name: int(self.counts.get(name, 0))
                        for name in COUNT_METRICS})
        return metrics

    def repeat_counts(self) -> dict:
        """The counts that must repeat exactly for a given seed."""
        return {name: int(self.counts.get(name, 0)) for name in REPEAT_COUNTS}

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        events = []
        origin = min((span[3] for span in self.spans), default=0.0)
        for span_id, layer, name, start, end, parent in self.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": 1e6 * (start - origin), "dur": 1e6 * (end - start),
                "args": {"id": span_id, "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
