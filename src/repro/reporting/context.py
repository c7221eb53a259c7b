"""Shared analysis context: caches the expensive intermediate products.

Reproducing all 18 figures needs the same handful of derived datasets
(rack-day tables, μ matrices, provisioners, the SKU ranking) over and
over; the context builds each once per simulation run.

Since the pipeline refactor the context is also a *lazy view* over a
:class:`~repro.pipeline.core.Pipeline`: constructed with ``artifacts=``,
each derived dataset is first looked up as a pipeline stage (so it is
cached, content-keyed and provenance-tracked there) and only computed
locally when the pipeline does not carry that stage.  The stage-name
helpers below are the single naming convention shared by the context,
the experiment registry's declared dependencies and the pipeline's
stage catalogue — they live here, at the bottom of that import chain,
so every user imports them downward.
"""

from __future__ import annotations

from typing import Any

from ..failures.engine import SimulationResult
from ..failures.tickets import FaultType, HARDWARE_FAULTS
from ..telemetry.aggregate import build_rack_day_table
from ..telemetry.table import Table

#: Stage holding the :class:`SimulationResult` itself.
SIMULATE_STAGE = "simulate"

#: Stage holding the run's one-line summary text.
SUMMARY_STAGE = "summary"

#: Stage holding the run's Q2 SKU comparison (Figs 14-15).
SKU_RANKING_STAGE = "sku_ranking"


def rack_day_stage(kind: str) -> str:
    """Stage name of a rack-day table: ``kind`` ∈ all/hardware/disk."""
    return f"rack_day:{kind}"


def provisioner_stage(window_hours: float) -> str:
    """Stage name of the server-level spare provisioner for a window."""
    return f"provisioner:{window_hours:g}h"


def component_provisioner_stage(window_hours: float) -> str:
    """Stage name of the component-level provisioner for a window."""
    return f"component_provisioner:{window_hours:g}h"


def fielddata_stage(severity: float) -> str:
    """Stage name of one field-data degradation payload."""
    return f"fielddata:sev={severity:g}"


def predict_stage(step: str) -> str:
    """Stage name of one failure-prediction step: features/train/score."""
    return f"predict:{step}"


def autonomics_stage(step: str) -> str:
    """Stage name of one closed-loop autonomics step (e.g. compare)."""
    return f"autonomics:{step}"


class AnalysisContext:
    """Caches derived datasets for one simulation run.

    Args:
        result: the simulation run under analysis.
        artifacts: optional pipeline (anything with ``has_stage(name)``
            and ``get(name)``) to source derived datasets from before
            computing them locally.
    """

    def __init__(self, result: SimulationResult, artifacts: Any = None):
        self.result = result
        self.artifacts = artifacts
        self._all_table: Table | None = None
        self._hardware_table: Table | None = None
        self._disk_table: Table | None = None
        self._provisioners: dict[float, object] = {}
        self._component_provisioners: dict[float, object] = {}
        self._sku_ranking = None

    def _from_artifacts(self, stage_name: str) -> Any:
        """The pipeline artifact for ``stage_name``, or None."""
        if self.artifacts is not None and self.artifacts.has_stage(stage_name):
            return self.artifacts.get(stage_name)
        return None

    @property
    def all_failures(self) -> Table:
        """Rack-day table over all fault types (Figs 2-9, 16)."""
        if self._all_table is None:
            table = self._from_artifacts(rack_day_stage("all"))
            if table is None:
                table = build_rack_day_table(self.result)
            self._all_table = table
        return self._all_table

    @property
    def hardware_failures(self) -> Table:
        """Rack-day table over hardware faults, with μ columns (Q2)."""
        if self._hardware_table is None:
            table = self._from_artifacts(rack_day_stage("hardware"))
            if table is None:
                table = build_rack_day_table(
                    self.result, faults=list(HARDWARE_FAULTS), include_mu=True,
                )
            self._hardware_table = table
        return self._hardware_table

    @property
    def disk_failures(self) -> Table:
        """Rack-day table over disk faults only (Figs 17-18)."""
        if self._disk_table is None:
            table = self._from_artifacts(rack_day_stage("disk"))
            if table is None:
                table = build_rack_day_table(
                    self.result, faults=[FaultType.DISK],
                )
            self._disk_table = table
        return self._disk_table

    @property
    def sku_ranking(self):
        """Cached :class:`~repro.decisions.sku_ranking.SkuComparison`
        over :attr:`hardware_failures` (Figs 14-15)."""
        if self._sku_ranking is None:
            ranking = self._from_artifacts(SKU_RANKING_STAGE)
            if ranking is None:
                from ..decisions.sku_ranking import compare_skus

                ranking = compare_skus(self.result,
                                       table=self.hardware_failures)
            self._sku_ranking = ranking
        return self._sku_ranking

    def provisioner(self, window_hours: float = 24.0):
        """Cached :class:`~repro.decisions.spares.SpareProvisioner`."""
        if window_hours not in self._provisioners:
            built = self._from_artifacts(provisioner_stage(window_hours))
            if built is None:
                from ..decisions.spares import SpareProvisioner

                built = SpareProvisioner(self.result, window_hours=window_hours)
            self._provisioners[window_hours] = built
        return self._provisioners[window_hours]

    def component_provisioner(self, window_hours: float = 24.0):
        """Cached :class:`~repro.decisions.component_spares.ComponentProvisioner`."""
        if window_hours not in self._component_provisioners:
            built = self._from_artifacts(
                component_provisioner_stage(window_hours))
            if built is None:
                from ..decisions.component_spares import ComponentProvisioner

                built = ComponentProvisioner(
                    self.result, window_hours=window_hours,
                )
            self._component_provisioners[window_hours] = built
        return self._component_provisioners[window_hours]
