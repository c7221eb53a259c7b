"""The report pipeline's stage catalogue.

One declarative place where ``simulate → aggregate → decisions →
render`` is spelled out as :class:`~repro.pipeline.core.Stage` objects:

* ``simulate`` — the run itself, persisted as a ``tickets.npz`` bundle
  (``codec="run"``), keyed by the config fingerprint and the engine
  source; every command that simulates resolves its run here;
* ``summary`` — the run's one-line summary (lets ``repro report`` print
  its header on a warm store without materializing the run);
* ``rack_day:{all,hardware,disk}`` — the flattened λ/μ rack-day tables
  (memory-only: cheap to rebuild, expensive to serialize);
* ``event_blocks`` — the run's full event trace as one columnar
  :class:`~repro.stream.blocks.BlockSegment` (``codec="blocks"``: an
  uncompressed ``.npz`` the store memory-maps back on a warm hit);
* ``provisioner:{W}h`` / ``component_provisioner:{W}h`` — the Q1
  decision models;
* ``sku_ranking`` — the Q2 SKU comparison (memory-only), ranked once
  per run for Figs 14-15 and the severity-0 field-data payload;
* ``fielddata:sev=S`` — the degradation payloads behind the
  ``fielddata`` experiment and the noise sweep (``codec="json"``);
* ``predict:{features,train,score}`` — the failure-prediction sub-DAG;
  the snapshot dataset and fitted model stay memory-only while the
  scored evaluation payload persists as JSON;
* ``autonomics:compare`` — the closed-loop policy shootout (same seed
  replayed under each built-in controller), persisted as JSON;
* ``render:{experiment}`` — one text artifact per registry entry, with
  dependencies taken from the experiment's declared ``stages``.

Every stage declares the source modules that should invalidate it via
``code=``; see ``docs/pipeline.md`` for the keying rules.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from ..autonomics.experiment import (
    DEFAULT_POLICIES,
    compute_autonomics_payload,
)
from ..decisions.component_spares import ComponentProvisioner
from ..decisions.sku_ranking import compare_skus
from ..decisions.spares import SpareProvisioner
from ..errors import ConfigError
from ..failures.engine import simulate
from ..failures.tickets import FaultType, HARDWARE_FAULTS
from ..fielddata.robustness import DEFAULT_SEVERITIES, noise_point_payload
from ..predict.dataset import build_feature_dataset
from ..predict.experiment import (
    DEFAULT_HORIZON_DAYS,
    DEFAULT_SAMPLE_EVERY,
    compute_predict_payload,
)
from ..predict.model import train_predictor
from ..reporting.context import (
    SIMULATE_STAGE,
    SKU_RANKING_STAGE,
    SUMMARY_STAGE,
    AnalysisContext,
    autonomics_stage,
    component_provisioner_stage,
    fielddata_stage,
    predict_stage,
    provisioner_stage,
    rack_day_stage,
)
from ..reporting.experiments import Experiment, get_experiment, EXPERIMENTS
from ..stream.blocks import BlockSegment, blocks_from_result
from ..telemetry.aggregate import build_rack_day_table
from .core import ArtifactStore, Pipeline, Stage, StageContext, StageExecution

if TYPE_CHECKING:
    from ..config import SimulationConfig

#: Prefix of per-experiment rendering stages.
RENDER_PREFIX = "render:"

#: The run's columnar event trace (a memory-mappable block segment).
EVENT_BLOCKS_STAGE = "event_blocks"

#: Spare-provisioning windows the catalogue always carries (daily and
#: hourly — the two the paper's Q1 artifacts use).
PROVISIONER_WINDOWS = (24.0, 1.0)


#: Version of the :func:`config_fingerprint` payload.  Bump when its
#: layout changes; keys embed it, so old entries are never looked up
#: again.
CONFIG_SCHEMA = 1


def config_fingerprint(config: "SimulationConfig") -> dict:
    """JSON-serializable, order-stable description of a config.

    Everything that influences the run must appear here: the dataclass
    tree covers seed, window, fleet knobs (including SKU mixes) and
    fault base rates.
    """
    from .. import __version__

    return {
        "config": dataclasses.asdict(config),
        "version": __version__,
        "schema": CONFIG_SCHEMA,
    }


def config_key(config: "SimulationConfig") -> str:
    """Stable content hash of a config (serve's fleet ids)."""
    payload = json.dumps(config_fingerprint(config), sort_keys=True,
                         separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def render_stage_name(experiment_id: str) -> str:
    """Stage name of one experiment's rendered text."""
    return RENDER_PREFIX + experiment_id


def simulate_stage(config: "SimulationConfig") -> Stage:
    """The root stage: run (or load) the simulation for ``config``."""
    def run(inputs: dict, ctx: StageContext) -> Any:
        return simulate(ctx.runtime["config"])

    return Stage(
        name=SIMULATE_STAGE,
        run=run,
        fingerprint_inputs={"config": config_fingerprint(config)},
        runtime={"config": config},
        code=("repro.failures.engine",),
        codec="run",
    )


def summary_stage() -> Stage:
    """The run's one-line summary, cached as text."""
    def run(inputs: dict, ctx: StageContext) -> str:
        return inputs[SIMULATE_STAGE].summary()

    return Stage(
        name=SUMMARY_STAGE,
        run=run,
        deps=(SIMULATE_STAGE,),
        codec="text",
    )


def event_blocks_stage() -> Stage:
    """The run's events flattened once into a columnar block segment.

    Downstream consumers (streaming replays, the rack-day table's block
    path, external tooling) iterate the cached segment without
    re-merging the run's logs; on a warm store the artifact comes back
    memory-mapped, so a multi-year trace costs no resident memory.
    """
    def run(inputs: dict, ctx: StageContext) -> BlockSegment:
        return BlockSegment.from_blocks(
            blocks_from_result(inputs[SIMULATE_STAGE]),
        )

    return Stage(
        name=EVENT_BLOCKS_STAGE,
        run=run,
        deps=(SIMULATE_STAGE,),
        code=("repro.stream.blocks",),
        codec="blocks",
    )


def _rack_day_stages() -> Iterable[Stage]:
    code = ("repro.telemetry.aggregate",)

    def run_all(inputs: dict, ctx: StageContext) -> Any:
        return build_rack_day_table(inputs[SIMULATE_STAGE])

    def run_hardware(inputs: dict, ctx: StageContext) -> Any:
        return build_rack_day_table(
            inputs[SIMULATE_STAGE], faults=list(HARDWARE_FAULTS), include_mu=True,
        )

    def run_disk(inputs: dict, ctx: StageContext) -> Any:
        return build_rack_day_table(
            inputs[SIMULATE_STAGE], faults=[FaultType.DISK],
        )

    yield Stage(rack_day_stage("all"), run_all,
                deps=(SIMULATE_STAGE,), code=code)
    yield Stage(rack_day_stage("hardware"), run_hardware,
                deps=(SIMULATE_STAGE,), code=code)
    yield Stage(rack_day_stage("disk"), run_disk,
                deps=(SIMULATE_STAGE,), code=code)


def _provisioner_stage(window_hours: float) -> Stage:
    def run(inputs: dict, ctx: StageContext) -> Any:
        return SpareProvisioner(inputs[SIMULATE_STAGE],
                                window_hours=window_hours)

    return Stage(
        provisioner_stage(window_hours), run,
        deps=(SIMULATE_STAGE,),
        fingerprint_inputs={"window_hours": window_hours},
        code=("repro.decisions.spares", "repro.decisions.availability"),
    )


def _component_provisioner_stage(window_hours: float) -> Stage:
    def run(inputs: dict, ctx: StageContext) -> Any:
        return ComponentProvisioner(inputs[SIMULATE_STAGE],
                                    window_hours=window_hours)

    return Stage(
        component_provisioner_stage(window_hours), run,
        deps=(SIMULATE_STAGE,),
        fingerprint_inputs={"window_hours": window_hours},
        code=("repro.decisions.component_spares",
              "repro.decisions.availability"),
    )


def sku_ranking_stage() -> Stage:
    """The run's Q2 SKU comparison, ranked once for every consumer."""
    hardware = rack_day_stage("hardware")

    def run(inputs: dict, ctx: StageContext) -> Any:
        return compare_skus(inputs[SIMULATE_STAGE], table=inputs[hardware])

    return Stage(
        SKU_RANKING_STAGE, run,
        deps=(SIMULATE_STAGE, hardware),
        code=("repro.decisions.sku_ranking",),
    )


def fielddata_payload_stage(severity: float) -> Stage:
    """One field-data degradation payload (shared with the noise sweep).

    At severity 0 degrade→clean is the identity, so that payload takes
    the pristine run's ranking from the ``sku_ranking`` stage instead
    of ranking the same run again; other severities rank their own
    degraded runs.  No payload reads a provisioner stage: the
    incremental re-render after a ``repro.decisions.spares`` edit would
    otherwise recompute all of them.
    """
    deps: tuple[str, ...] = (SIMULATE_STAGE,)
    if severity == 0:
        deps += (SKU_RANKING_STAGE,)

    def run(inputs: dict, ctx: StageContext) -> dict:
        return noise_point_payload(inputs[SIMULATE_STAGE], severity,
                                   comparison=inputs.get(SKU_RANKING_STAGE))

    return Stage(
        fielddata_stage(severity), run,
        deps=deps,
        fingerprint_inputs={"severity": severity},
        code=(
            "repro.fielddata.corruption",
            "repro.fielddata.cleaning",
            "repro.fielddata.robustness",
            "repro.decisions.sku_ranking",
            "repro.decisions.climate",
        ),
        codec="json",
    )


def noise_point_stages(config: "SimulationConfig",
                       severities: Iterable[float]) -> list[Stage]:
    """The sub-DAG behind one run's ``fielddata:sev=…`` payloads: the
    run, what the severity-0 payload reads, one payload per severity."""
    stages = [simulate_stage(config), *_rack_day_stages(), sku_ranking_stage()]
    stages.extend(fielddata_payload_stage(s) for s in severities)
    return stages


def _predict_stages() -> Iterable[Stage]:
    """The failure-prediction sub-DAG: features → train → score.

    Features and the fitted model stay memory-only (cheap to rebuild,
    awkward to serialize); the scored payload is the JSON artifact the
    ``predict`` experiment and the service layer read.
    """
    params = {
        "horizon_days": DEFAULT_HORIZON_DAYS,
        "sample_every": DEFAULT_SAMPLE_EVERY,
    }

    def run_features(inputs: dict, ctx: StageContext) -> Any:
        return build_feature_dataset(
            inputs[SIMULATE_STAGE],
            horizon_days=DEFAULT_HORIZON_DAYS,
            sample_every=DEFAULT_SAMPLE_EVERY,
        )

    def run_train(inputs: dict, ctx: StageContext) -> Any:
        return train_predictor(
            inputs[predict_stage("features")],
            horizon_days=DEFAULT_HORIZON_DAYS,
        )

    def run_score(inputs: dict, ctx: StageContext) -> dict:
        return compute_predict_payload(
            inputs[SIMULATE_STAGE],
            dataset=inputs[predict_stage("features")],
            trained=inputs[predict_stage("train")],
        )

    yield Stage(
        predict_stage("features"), run_features,
        deps=(SIMULATE_STAGE,),
        fingerprint_inputs=dict(params),
        code=("repro.predict.features", "repro.predict.dataset"),
    )
    yield Stage(
        predict_stage("train"), run_train,
        deps=(predict_stage("features"),),
        fingerprint_inputs=dict(params),
        code=("repro.predict.model",),
    )
    yield Stage(
        predict_stage("score"), run_score,
        deps=(SIMULATE_STAGE, predict_stage("features"),
              predict_stage("train")),
        fingerprint_inputs=dict(params),
        code=("repro.predict.scoring", "repro.predict.experiment"),
        codec="json",
    )


def _autonomics_stages(config: "SimulationConfig") -> Iterable[Stage]:
    """The closed-loop policy shootout as a content-addressed artifact.

    The what-if engine replays the *config* (fresh sessions per
    policy), so like the root simulate stage this one is keyed by the
    config fingerprint and carries the config at runtime rather than
    depending on the batch result.
    """
    def run_compare(inputs: dict, ctx: StageContext) -> dict:
        return compute_autonomics_payload(ctx.runtime["config"])

    yield Stage(
        autonomics_stage("compare"), run_compare,
        fingerprint_inputs={
            "config": config_fingerprint(config),
            "policies": list(DEFAULT_POLICIES),
        },
        runtime={"config": config},
        code=(
            "repro.autonomics.whatif",
            "repro.autonomics.controller",
            "repro.autonomics.experiment",
        ),
        codec="json",
    )


def _render_stage(experiment: Experiment,
                  render_params: Mapping[str, Any] | None) -> Stage:
    def run(inputs: dict, ctx: StageContext) -> str:
        context = AnalysisContext(inputs[SIMULATE_STAGE],
                                  artifacts=ctx.pipeline)
        return experiment.render(context)

    return Stage(
        render_stage_name(experiment.experiment_id), run,
        deps=(SIMULATE_STAGE,) + experiment.stages,
        fingerprint_inputs={
            "experiment": experiment.experiment_id,
            "params": dict(render_params or {}),
        },
        code=experiment.code,
        codec="text",
    )


def analysis_stages(config: "SimulationConfig") -> list[Stage]:
    """Every non-render stage: simulation, summary, tables, decisions."""
    stages: list[Stage] = [simulate_stage(config), summary_stage()]
    stages.append(event_blocks_stage())
    stages.extend(_rack_day_stages())
    stages.extend(_provisioner_stage(w) for w in PROVISIONER_WINDOWS)
    stages.append(_component_provisioner_stage(24.0))
    stages.append(sku_ranking_stage())
    stages.extend(fielddata_payload_stage(s) for s in DEFAULT_SEVERITIES)
    stages.extend(_predict_stages())
    stages.extend(_autonomics_stages(config))
    return stages


def build_report_pipeline(
    config: "SimulationConfig",
    store: ArtifactStore | None = None,
    experiment_ids: Iterable[str] | None = None,
    render_params: Mapping[str, Any] | None = None,
    observer: Callable[[StageExecution], None] | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> Pipeline:
    """The full report DAG for ``config``.

    Args:
        config: simulation configuration keying the root stage.
        store: artifact store (default: fresh memory-only).
        experiment_ids: registry ids to build render stages for
            (default: all); unknown ids raise
            :class:`~repro.errors.DataError`.
        render_params: extra rendering parameters mixed into every
            render stage's key (a render-only knob: changing it re-runs
            render stages and nothing upstream).
        observer: forwarded to :class:`~repro.pipeline.core.Pipeline`.
        clock: wall-time source for execution records.
    """
    ids = sorted(EXPERIMENTS) if experiment_ids is None else list(experiment_ids)
    stages = analysis_stages(config)
    catalogue = {stage.name for stage in stages}
    for experiment_id in ids:
        experiment = get_experiment(experiment_id)
        missing = [dep for dep in experiment.stages if dep not in catalogue]
        if missing:
            raise ConfigError(
                f"experiment {experiment_id!r} declares stage deps "
                f"{missing} absent from the analysis catalogue"
            )
        stages.append(_render_stage(experiment, render_params))
    return Pipeline(stages, store=store, observer=observer, clock=clock)
