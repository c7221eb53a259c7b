"""Multi-seed robustness sweeps over the headline conclusions.

Everything the paper measures is one realization of a stochastic
process; conclusions drawn from a single dataset (as the paper
necessarily did) carry sampling variance.  Because our substrate can be
re-simulated, this module quantifies that variance: it re-runs the
headline analyses over several seeds and reports the spread of each
metric — the reproduction analogue of error bars the paper could not
have.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..config import SimulationConfig
from ..datacenter.builder import FleetConfig
from ..decisions.availability import AvailabilitySla
from ..decisions.climate import climate_group_rates, discover_climate_thresholds
from ..decisions.sku_ranking import compare_skus
from ..decisions.spares import SpareProvisioner
from ..errors import DataError, ReproError
from ..failures.engine import SimulationResult


@dataclass(frozen=True)
class MetricSummary:
    """Distribution of one headline metric across seeds.

    Attributes:
        name: metric label.
        values: one value per completed seed (NaN = not computable).
        paper_value: the paper's reported number, when it has one.
    """

    name: str
    values: np.ndarray
    paper_value: float | None = None

    @property
    def mean(self) -> float:
        """Mean over computable seeds (NaN if none)."""
        if self.n_computable == 0:
            return float("nan")
        return float(np.nanmean(self.values))

    @property
    def spread(self) -> float:
        """Standard deviation over computable seeds (NaN if none)."""
        if self.n_computable == 0:
            return float("nan")
        return float(np.nanstd(self.values))

    @property
    def n_computable(self) -> int:
        """Seeds for which the metric could be computed."""
        return int(np.isfinite(self.values).sum())

    def render(self) -> str:
        """One summary line."""
        paper = f"  (paper: {self.paper_value:g})" if self.paper_value is not None else ""
        return (f"{self.name:38s} {self.mean:8.3f} ± {self.spread:.3f} "
                f"[n={self.n_computable}]{paper}")


# Metric extractors: name → (callable(result) -> float, paper value).
def _sf_sku_ratio(result: SimulationResult) -> float:
    return compare_skus(result).sf_ratio("S2", "S4", "mean")


def _mf_sku_ratio(result: SimulationResult) -> float:
    return compare_skus(result).mf_ratio("S2", "S4", "mean")


def _mf_overprovision_w6(result: SimulationResult) -> float:
    provisioner = SpareProvisioner(result, window_hours=24.0)
    return 100.0 * provisioner.multi_factor("W6", AvailabilitySla(1.0)).overprovision


def _sf_overprovision_w6(result: SimulationResult) -> float:
    provisioner = SpareProvisioner(result, window_hours=24.0)
    return 100.0 * provisioner.single_factor("W6", AvailabilitySla(1.0)).overprovision


def _dc1_temp_threshold(result: SimulationResult) -> float:
    found = discover_climate_thresholds(result, "DC1")
    if found.temp_threshold_f is None:
        raise DataError("no significant DC1 temperature split")
    return found.temp_threshold_f


def _dc1_hot_cool_ratio(result: SimulationResult) -> float:
    group = climate_group_rates(result, "DC1")
    return group.hot / group.cool


HEADLINE_METRICS: dict[str, tuple[Callable[[SimulationResult], float], float | None]] = {
    "Q2 SF S2/S4 average-rate ratio": (_sf_sku_ratio, 10.0),
    "Q2 MF S2/S4 average-rate ratio": (_mf_sku_ratio, 4.0),
    "Q1 SF over-provision W6@100% (%)": (_sf_overprovision_w6, None),
    "Q1 MF over-provision W6@100% (%)": (_mf_overprovision_w6, None),
    "Q3 DC1 temperature split (F)": (_dc1_temp_threshold, 78.0),
    "Q3 DC1 hot/cool disk-rate ratio": (_dc1_hot_cool_ratio, 1.5),
}


def _seed_config(seed: int, scale: float, n_days: int) -> SimulationConfig:
    return SimulationConfig(
        seed=seed, n_days=n_days,
        fleet=FleetConfig(scale=scale, observation_days=n_days),
    )


def _metrics_stage(
    metrics: dict[str, tuple[Callable[[SimulationResult], float], float | None]],
):
    """The ``sweep:metrics`` stage: every extractor over one run.

    Keyed by the extractors' qualified names plus this module's source
    fingerprint, so editing an extractor re-runs the metrics (but not
    the simulation) for every cached seed.
    """
    # Function-level import of a higher layer, allowed by the explicit
    # exception list in staticcheck.contract.LAYERING_EXCEPTIONS.
    from ..pipeline import Stage

    def run(inputs: dict, ctx) -> dict[str, float]:
        result = inputs["simulate"]
        values: dict[str, float] = {}
        for name, (extractor, _) in metrics.items():
            try:
                values[name] = float(extractor(result))
            except ReproError:
                values[name] = float("nan")
        return values

    qualnames = {
        name: f"{extractor.__module__}.{extractor.__qualname__}"
        for name, (extractor, _) in metrics.items()
    }
    return Stage(
        "sweep:metrics", run,
        deps=("simulate",),
        fingerprint_inputs={"metrics": qualnames},
        code=("repro.reporting.sweeps",),
        codec="json",
    )


def _sweep_worker(
    seed: int,
    scale: float,
    n_days: int,
    metrics: dict[str, tuple[Callable[[SimulationResult], float], float | None]],
    cache_dir: str | None = None,
) -> dict[str, float]:
    """One seed's simulation and metric extraction (picklable for pools)."""
    from ..pipeline import ArtifactStore, Pipeline, simulate_stage

    config = _seed_config(seed, scale, n_days)
    store = ArtifactStore(cache_dir)
    pipeline = Pipeline(
        [simulate_stage(config), _metrics_stage(metrics)], store=store,
    )
    return pipeline.get("sweep:metrics")


def run_sweep(
    seeds: list[int],
    scale: float = 0.3,
    n_days: int = 540,
    metrics: dict[str, tuple[Callable[[SimulationResult], float], float | None]]
        | None = None,
    jobs: int | None = 1,
    cache_dir: str | None = None,
) -> list[MetricSummary]:
    """Re-run the headline analyses over several seeds.

    Metrics that a particular realization cannot support (e.g. no
    significant climate split) record NaN for that seed rather than
    failing the sweep.  ``jobs > 1`` distributes seeds over a process
    pool (each seed is independent); custom ``metrics`` must then be
    picklable, i.e. built from module-level extractor functions.  With
    ``cache_dir`` each seed becomes a small sub-DAG over a shared
    artifact store, so repeated sweeps (and the noise sweep, and
    ``repro report`` for the same config) reuse the simulate artifacts.
    """
    if not seeds:
        raise DataError("need at least one seed")
    metrics = metrics or HEADLINE_METRICS
    from ..parallel import map_seeds

    per_seed = map_seeds(
        functools.partial(_sweep_worker, scale=scale, n_days=n_days,
                          metrics=metrics, cache_dir=cache_dir),
        seeds, jobs=jobs,
    )
    collected = {name: [row[name] for row in per_seed] for name in metrics}
    return [
        MetricSummary(
            name=name,
            values=np.array(collected[name]),
            paper_value=metrics[name][1],
        )
        for name in metrics
    ]


def render_sweep(summaries: list[MetricSummary], seeds: list[int]) -> str:
    """Text report of a sweep."""
    lines = [f"Robustness sweep over seeds {seeds}:"]
    lines.extend(summary.render() for summary in summaries)
    return "\n".join(lines)


def _noise_sweep_worker(
    seed: int,
    scale: float,
    n_days: int,
    severities: tuple[float, ...],
    cache_dir: str | None,
) -> dict[float, dict[str, float]]:
    """One seed's degrade→clean→re-analyze chain (picklable for pools).

    Each seed is a sub-DAG: one simulate stage shared by one
    ``fielddata:sev=…`` payload stage per severity — the same stages the
    report's ``fielddata`` experiment resolves, so with a shared
    ``cache_dir`` the two drivers reuse each other's artifacts.
    (Severity 0's degrade→clean loop is bit-identical to analyzing the
    pristine run directly, so that payload reads the run's
    ``sku_ranking`` stage; see :mod:`repro.fielddata.robustness`.)
    """
    # Function-level import of a higher layer, allowed by the explicit
    # exception list in staticcheck.contract.LAYERING_EXCEPTIONS.
    from ..pipeline import ArtifactStore, Pipeline, noise_point_stages
    from .context import fielddata_stage

    config = _seed_config(seed, scale, n_days)
    pipeline = Pipeline(noise_point_stages(config, severities),
                        store=ArtifactStore(cache_dir))
    return {
        severity: pipeline.get(fielddata_stage(severity))["metrics"]
        for severity in severities
    }


def run_noise_sweep(
    seeds: list[int],
    severities: Sequence[float],
    scale: float = 0.3,
    n_days: int = 540,
    jobs: int | None = 1,
    cache_dir: str | None = None,
) -> dict[float, list[MetricSummary]]:
    """Noise-robustness sweep: seeds × corruption severities.

    For every seed, the run's field data is degraded through
    :func:`repro.fielddata.corruption.standard_pipeline` at each
    severity, cleaned, and re-analyzed; the result maps severity →
    per-metric summaries across seeds.  Severity 0 reproduces
    :func:`run_sweep`'s numbers exactly.
    """
    if not seeds:
        raise DataError("need at least one seed")
    severities = tuple(dict.fromkeys(float(level) for level in severities))
    for level in severities:
        if not 0.0 <= level <= 1.0:
            raise DataError(f"severity must be in [0, 1], got {level}")
    if not severities:
        raise DataError("need at least one severity level")
    from ..parallel import map_seeds

    per_seed = map_seeds(
        functools.partial(_noise_sweep_worker, scale=scale, n_days=n_days,
                          severities=severities, cache_dir=cache_dir),
        seeds, jobs=jobs,
    )
    return {
        severity: [
            MetricSummary(
                name=name,
                values=np.array([row[severity][name] for row in per_seed]),
                paper_value=paper_value,
            )
            for name, (_, paper_value) in HEADLINE_METRICS.items()
        ]
        for severity in severities
    }


def render_noise_sweep(
    by_severity: dict[float, list[MetricSummary]],
    seeds: list[int],
) -> str:
    """Text table of a noise sweep: metrics × severities, mean ± sd."""
    severities = sorted(by_severity)
    lines = [
        f"Noise-robustness sweep over seeds {seeds} "
        f"(mean ± sd across seeds, after cleaning):",
        f"{'metric':38s}" + "".join(f"  {'sev=' + format(s, '.2f'):>16s}"
                                    for s in severities),
    ]
    names = [summary.name for summary in by_severity[severities[0]]]
    for index, name in enumerate(names):
        cells = []
        for severity in severities:
            summary = by_severity[severity][index]
            cells.append(f"  {summary.mean:8.3f} ±{summary.spread:6.3f}")
        lines.append(f"{name:38s}" + "".join(cells))
    return "\n".join(lines)
