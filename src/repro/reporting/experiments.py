"""Experiment registry: every table and figure, addressable by id.

Maps each of the paper's evaluation artifacts to the function that
regenerates it, so examples, tests and the benchmark harness can iterate
over the full set uniformly.  Each entry also *declares* which pipeline
stages it reads (``stages``) and which source modules its rendering
depends on (``code``); the pipeline builds per-experiment render stages
from these declarations, and ``repro report --jobs N`` groups
experiments with identical stage signatures onto the same worker so a
shared intermediate (e.g. the all-faults rack-day table) is built once.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..errors import DataError
from . import figures, tables
from .context import (
    SKU_RANKING_STAGE,
    AnalysisContext,
    autonomics_stage,
    component_provisioner_stage,
    fielddata_stage,
    predict_stage,
    provisioner_stage,
    rack_day_stage,
)

#: Severities of the registered ``fielddata`` experiment's payload
#: stages.  Must match ``repro.fielddata.robustness.DEFAULT_SEVERITIES``
#: (cross-checked by tests); spelled literally here because reporting
#: must not import the higher fielddata layer at module scope.
FIELDDATA_SEVERITIES = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact.

    Attributes:
        experiment_id: e.g. ``"table2"`` or ``"fig10"``.
        description: what the artifact shows.
        produce: callable mapping an AnalysisContext to a renderable
            result (a str, FigureSeries, or object with ``render()``).
        stages: pipeline stages (beyond the simulation itself) whose
            artifacts the experiment reads via the context.
        code: dotted module names whose source content should
            invalidate this experiment's cached rendering.
    """

    experiment_id: str
    description: str
    produce: Callable[[AnalysisContext], object]
    stages: tuple[str, ...] = ()
    code: tuple[str, ...] = ()

    def render(self, context: AnalysisContext) -> str:
        """Produce and render the artifact as text."""
        output = self.produce(context)
        if isinstance(output, str):
            return output
        render = getattr(output, "render", None)
        if callable(render):
            return render()
        raise DataError(f"{self.experiment_id}: result is not renderable")


def _fielddata_robustness(context: AnalysisContext) -> str:
    # Function-level import of a higher layer, allowed by the explicit
    # exception list in staticcheck.contract.LAYERING_EXCEPTIONS.
    from ..fielddata.robustness import fielddata_experiment

    return fielddata_experiment(context)


def _streaming(context: AnalysisContext) -> str:
    # Function-level import of a higher layer, allowed by the explicit
    # exception list in staticcheck.contract.LAYERING_EXCEPTIONS.
    from ..stream.experiment import streaming_experiment

    return streaming_experiment(context)


def _predict(context: AnalysisContext) -> str:
    # Function-level import of a higher layer, allowed by the explicit
    # exception list in staticcheck.contract.LAYERING_EXCEPTIONS.
    from ..predict.experiment import predict_experiment

    return predict_experiment(context)


def _autonomics(context: AnalysisContext) -> str:
    # Function-level import of a higher layer, allowed by the explicit
    # exception list in staticcheck.contract.LAYERING_EXCEPTIONS.
    from ..autonomics.experiment import autonomics_experiment

    return autonomics_experiment(context)


_TABLES = ("repro.reporting.tables",)
_FIGURES = ("repro.reporting.figures",)
#: Figs 16-18 call the Q3 binning and climate-group rules directly.
_CLIMATE_FIGURES = _FIGURES + ("repro.decisions.climate",)
_RACK_DAY_ALL = (rack_day_stage("all"),)
_SKU_RANKING = (rack_day_stage("hardware"), SKU_RANKING_STAGE)


def _registry() -> list[Experiment]:
    return [
        Experiment("table1", "DC properties",
                   lambda ctx: tables.table_i(ctx.result),
                   code=_TABLES),
        Experiment("table2", "Classification of failure tickets",
                   lambda ctx: tables.table_ii(ctx.result),
                   code=_TABLES),
        Experiment("table3", "Candidate features",
                   lambda ctx: tables.table_iii(ctx.result),
                   code=_TABLES),
        Experiment("table4", "TCO savings of MF over SF",
                   tables.table_iv,
                   stages=(provisioner_stage(24.0), provisioner_stage(1.0)),
                   code=_TABLES),
        Experiment("fig01", "Aggregate vs group requirement CDFs",
                   lambda ctx: figures.render_fig01(figures.fig01_cdf_concept(ctx)),
                   stages=(provisioner_stage(24.0),),
                   code=_FIGURES),
        Experiment("fig02", "Failure rate by DC region", figures.fig02_spatial,
                   stages=_RACK_DAY_ALL, code=_FIGURES),
        Experiment("fig03", "Failure rate by day of week", figures.fig03_day_of_week,
                   stages=_RACK_DAY_ALL, code=_FIGURES),
        Experiment("fig04", "Failure rate by month", figures.fig04_month,
                   stages=_RACK_DAY_ALL, code=_FIGURES),
        Experiment("fig05", "Failure rate by relative humidity", figures.fig05_humidity,
                   stages=_RACK_DAY_ALL, code=_FIGURES),
        Experiment("fig06", "Failure rate by workload", figures.fig06_workload,
                   stages=_RACK_DAY_ALL, code=_FIGURES),
        Experiment("fig07", "Failure rate by SKU", figures.fig07_sku,
                   stages=_RACK_DAY_ALL, code=_FIGURES),
        Experiment("fig08", "Failure rate by rack power rating", figures.fig08_power,
                   stages=_RACK_DAY_ALL, code=_FIGURES),
        Experiment("fig09", "Failure rate by equipment age", figures.fig09_age,
                   stages=_RACK_DAY_ALL, code=_FIGURES),
        Experiment("fig10", "Over-provisioning, daily",
                   lambda ctx: figures.fig10_overprovision(ctx, 24.0),
                   stages=(provisioner_stage(24.0),),
                   code=_FIGURES),
        Experiment("fig11", "Per-cluster requirement CDFs (W1, W6)",
                   lambda ctx: "\n\n".join(
                       f"[{workload}]\n" + "\n".join(
                           f"  {name}: n={len(sample)}, max={sample.max():.1f}%"
                           for name, sample in
                           figures.fig11_cluster_cdfs(ctx, workload).items()
                       )
                       for workload in ("W1", "W6")
                   ),
                   stages=(provisioner_stage(24.0),),
                   code=_FIGURES),
        Experiment("fig12", "Over-provisioning, hourly",
                   lambda ctx: figures.fig10_overprovision(ctx, 1.0),
                   stages=(provisioner_stage(1.0), provisioner_stage(24.0)),
                   code=_FIGURES),
        Experiment("fig13", "Component vs server-level spare cost",
                   figures.fig13_component_spares,
                   stages=(component_provisioner_stage(24.0),),
                   code=_FIGURES),
        Experiment("fig14", "SKU comparison, single factor",
                   lambda ctx: figures.render_fig14(figures.fig14_fig15_sku(ctx)),
                   stages=_SKU_RANKING, code=_FIGURES),
        Experiment("fig15", "SKU comparison, multi factor",
                   lambda ctx: figures.render_fig15(figures.fig14_fig15_sku(ctx)),
                   stages=_SKU_RANKING, code=_FIGURES),
        Experiment("fig16", "All failures vs temperature", figures.fig16_temperature_all,
                   stages=_RACK_DAY_ALL, code=_CLIMATE_FIGURES),
        Experiment("fig17", "Disk failures vs temperature", figures.fig17_temperature_disk,
                   stages=(rack_day_stage("disk"),), code=_CLIMATE_FIGURES),
        Experiment("fig18", "Disk failures vs T/RH groups per DC", figures.fig18_climate_mf,
                   stages=(rack_day_stage("disk"),), code=_CLIMATE_FIGURES),
        Experiment("fielddata", "Headline metrics vs field-data corruption severity",
                   _fielddata_robustness,
                   stages=tuple(fielddata_stage(s) for s in FIELDDATA_SEVERITIES),
                   code=("repro.fielddata.robustness",)),
        Experiment("streaming", "Online streaming vs batch: equivalence, "
                   "checkpoint/resume, live SLA triggers",
                   _streaming,
                   code=("repro.stream.experiment",)),
        Experiment("predict", "Online failure prediction scored against "
                   "planted ground truth, with proactive Q1",
                   _predict,
                   stages=tuple(
                       predict_stage(s) for s in ("features", "train", "score")
                   ),
                   code=("repro.predict.experiment",)),
        Experiment("autonomics", "Closed-loop policy shootout: reactive "
                   "vs predictive controllers on one seed",
                   _autonomics,
                   stages=(autonomics_stage("compare"),),
                   code=("repro.autonomics.experiment",)),
    ]


EXPERIMENTS: dict[str, Experiment] = {
    experiment.experiment_id: experiment for experiment in _registry()
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (raises DataError for unknown ids)."""
    if experiment_id not in EXPERIMENTS:
        raise DataError(
            f"unknown experiment {experiment_id!r}; have {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id]


def run_all(context: AnalysisContext) -> dict[str, str]:
    """Render every registered experiment (expensive at paper scale)."""
    return {
        experiment_id: experiment.render(context)
        for experiment_id, experiment in EXPERIMENTS.items()
    }
