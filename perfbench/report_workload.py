"""``report``: the paper's whole analysis, rendered cold and then again.

One process drives the serial (``--jobs 1``) path of ``repro report``
over an on-disk :class:`~repro.pipeline.ArtifactStore`:

* cold — every pinned experiment from an empty store;
* incremental — the full report again, with a fresh store object over
  the same directory, after ``repro.decisions.spares``' source
  fingerprint changes: the two provisioner stages and the five
  experiment renders below them recompute, the rest is read from disk.

Every pass must render all experiments, byte-identical to the cold
texts.
"""

from __future__ import annotations

import hashlib
import itertools
import time

from common import Outcomes, median, run_for, work_dir

#: The experiment ids registered at the commit that defined this
#: benchmark, pinned so a new experiment cannot silently join the
#: workload (``repro report all`` would pick it up).
EXPERIMENT_IDS = (
    "autonomics", "fielddata", "fig01", "fig02", "fig03", "fig04", "fig05",
    "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "fig17", "fig18", "predict", "streaming",
    "table1", "table2", "table3", "table4",
)
#: The ROADMAP's reference run: quarter-scale fleet, one year.
SCALE = 0.25
N_DAYS = 365
#: The module whose source fingerprint the incremental pass changes.
TOUCHED_MODULE = "repro.decisions.spares"


class ReportState:
    def __init__(self, seed: int):
        import repro
        import repro.pipeline.core as pipeline_core
        from repro.parallel import run_experiments
        from repro.pipeline import ArtifactStore, build_report_pipeline
        from repro.reporting.context import SUMMARY_STAGE
        from repro.reporting.experiments import EXPERIMENTS

        missing = [i for i in EXPERIMENT_IDS if i not in EXPERIMENTS]
        if missing:
            raise SystemExit(f"pinned experiments not registered: {missing}")
        self.config = repro.SimulationConfig.small(
            seed=seed, scale=SCALE, n_days=N_DAYS)
        self.pipeline_core = pipeline_core
        self.real_fingerprint = pipeline_core.source_fingerprint
        self.run_experiments = run_experiments
        self.ArtifactStore = ArtifactStore
        self.build_report_pipeline = build_report_pipeline
        self.summary_stage = SUMMARY_STAGE

    # -- one pass ---------------------------------------------------------

    def render_all(self, store, outcomes: Outcomes, expected=None,
                   label: str = "", observer=None):
        """Render every pinned experiment through a fresh pipeline over
        ``store`` (an ArtifactStore, or a directory for a fresh one);
        returns (seconds, texts, pipeline)."""
        start = time.perf_counter()
        if not isinstance(store, self.ArtifactStore):
            store = self.ArtifactStore(store)
        pipeline = self.build_report_pipeline(
            self.config, store=store, experiment_ids=EXPERIMENT_IDS,
            observer=observer)
        pipeline.get(self.summary_stage)
        rendered = self.run_experiments(
            EXPERIMENT_IDS, config=self.config, jobs=1, pipeline=pipeline)
        elapsed = time.perf_counter() - start
        texts = {}
        for experiment_id, text, error in rendered:
            ok = error is None and (
                expected is None or text == expected.get(experiment_id))
            outcomes.record(ok, f"{label} {experiment_id}: "
                                f"{error or 'text differs from cold'}")
            texts[experiment_id] = text
        return elapsed, texts, pipeline

    def touch(self, label: str) -> None:
        """Change the touched module's fingerprint (the documented test
        hook for a code edit, see ``repro.pipeline.source_fingerprint``)."""
        real = self.real_fingerprint
        self.pipeline_core.source_fingerprint = (
            lambda name: label if name == TOUCHED_MODULE else real(name))

    def untouch(self) -> None:
        self.pipeline_core.source_fingerprint = self.real_fingerprint

    def incremental(self, store_dir, label: str, expected,
                    outcomes: Outcomes, observer=None) -> float:
        self.touch(label)
        try:
            elapsed, _, pipeline = self.render_all(
                store_dir, outcomes, expected, "incremental", observer)
        finally:
            self.untouch()
        outcomes.check(
            {e.stage: e.outcome for e in pipeline.executions}.get(
                "provisioner:24h") == "computed",
            "incremental pass did not recompute provisioner:24h")
        return elapsed


def setup(seed: int) -> ReportState:
    return ReportState(seed)


def texts_digest(texts: dict) -> str:
    digest = hashlib.sha256()
    for experiment_id in EXPERIMENT_IDS:
        digest.update(experiment_id.encode() + b"\0")
        digest.update((texts.get(experiment_id) or "").encode() + b"\0")
    return digest.hexdigest()


def measure(state: ReportState, seconds: float, tracer=None) -> dict:
    outcomes = Outcomes()
    with work_dir("report") as scratch:
        store_dir = scratch / "store"
        outcomes.phase = "cold"
        cold_s, cold_texts, cold_pipeline = state.render_all(
            store_dir, outcomes, label="cold")
        n_events = _trace_events(cold_pipeline)
        diagnostics = {
            "texts_sha256": texts_digest(cold_texts),
            "trace_events": n_events,
        }
        metrics, layers, incremental = {"cold_s": cold_s}, None, []
        if tracer is None:
            outcomes.phase = "incremental"
            labels = itertools.count()
            incremental = run_for(seconds, 5, 1000, lambda: state.incremental(
                store_dir, f"touched-{next(labels)}", cold_texts, outcomes))
            metrics.update(incremental_s=median(incremental),
                           events_per_s=n_events / cold_s)
        else:
            outcomes.phase = "traced"
            layers = traced_passes(state, scratch, tracer, cold_s,
                                   cold_texts, outcomes, diagnostics)
    return {
        "metrics": metrics, "layers": layers, "outcomes": outcomes,
        "samples": {"cold_s": 1, "incremental_s": len(incremental),
                    "events_per_s": 1},
        "diagnostics": diagnostics,
    }


def _trace_events(pipeline) -> int:
    from repro.pipeline.stages import EVENT_BLOCKS_STAGE

    return int(pipeline.get(EVENT_BLOCKS_STAGE).n_events)


def traced_pass(state: ReportState, store_dir, tracer, expected,
                outcomes: Outcomes) -> dict:
    """Cold + one incremental + a warm memory-tier render, traced."""
    tracer.reset()
    executions = []
    cold_s, texts, pipeline = state.render_all(
        store_dir, outcomes, expected, "traced cold",
        observer=executions.append)
    cold_layers = dict(tracer.self_s)
    state.incremental(store_dir, "touched-traced", expected, outcomes,
                      observer=executions.append)
    warm_s, _, _ = state.render_all(pipeline.store, outcomes, expected,
                                    "traced warm")
    computed = sum(e.outcome == "computed" for e in executions)
    return {
        "cold_s": cold_s, "cold_layers": cold_layers,
        "executions": len(executions), "computed": computed,
        "warm_render_ms": 1e3 * warm_s,
    }


def traced_passes(state, scratch, tracer, untraced_cold_s, expected,
                  outcomes, diagnostics) -> dict:
    """Two traced passes of one seed: per-layer numbers from the first,
    exact-count agreement checked against the second."""
    tracer.install()
    try:
        first = traced_pass(state, scratch / "traced-1", tracer, expected,
                            outcomes)
        layers = tracer.layer_metrics()
        counts = tracer.repeat_counts()
        second = traced_pass(state, scratch / "traced-2", tracer, expected,
                             outcomes)
        repeat = tracer.repeat_counts()
    finally:
        tracer.uninstall()
    outcomes.check(counts == repeat and first["computed"] == second["computed"],
                   f"traced counts differ between two runs of one seed: "
                   f"{counts} vs {repeat}")
    cold = first["cold_layers"]
    layers.update({
        "analysis.cart.fit_share": cold.get("analysis.cart.fit", 0.0)
        / first["cold_s"],
        "pipeline.computed": first["computed"],
        "pipeline.hit_ratio": 1.0 - first["computed"] / first["executions"],
        "pipeline.warm_render_ms": first["warm_render_ms"],
    })
    diagnostics["trace_overhead_cold"] = first["cold_s"] / untraced_cold_s - 1
    return layers
