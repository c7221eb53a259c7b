"""Reproductions of the paper's Figures 1-18 as data series.

Every function takes an :class:`~repro.reporting.context.AnalysisContext`
and returns a :class:`FigureSeries` — labels plus one or more named
value series, with a text renderer — so benchmarks, tests and examples
all share one implementation per figure.

Values follow the paper's conventions: failure rates are per rack-day,
and (like the paper's plots) series can be normalized to their maximum
via :meth:`FigureSeries.normalized`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..decisions.availability import PAPER_SLAS, AvailabilitySla
from ..decisions.climate import (
    FIG16_TEMP_BINS,
    climate_group_rates,
    temperature_binned_rates,
)
from ..decisions.sku_ranking import FIG14_SKUS
from ..errors import DataError
from ..telemetry.aggregate import mean_rate_by
from ..telemetry.stats import BinSpec, binned_mean_sd, make_range_bins
from .context import AnalysisContext
from .render import render_bars, render_cdf


@dataclass(frozen=True)
class FigureSeries:
    """One reproduced figure: labels and named value series.

    Attributes:
        figure_id: e.g. ``"fig06"``.
        title: what the paper's figure shows.
        labels: x-axis categories.
        series: name → values (aligned with ``labels``).
        notes: free-form reproduction notes.
    """

    figure_id: str
    title: str
    labels: tuple[str, ...]
    series: dict[str, np.ndarray]
    notes: str = ""

    def values(self, name: str) -> np.ndarray:
        """One named series."""
        if name not in self.series:
            raise DataError(f"{self.figure_id}: unknown series {name!r}")
        return self.series[name]

    def normalized(self, name: str) -> np.ndarray:
        """A series scaled to its maximum (the paper's normalization)."""
        values = self.values(name).astype(float)
        finite = values[np.isfinite(values)]
        peak = finite.max() if finite.size else 0.0
        if peak <= 0:
            raise DataError(f"{self.figure_id}: series {name!r} has no positive values")
        return values / peak

    def render(self) -> str:
        """Text rendering of all series as bar charts."""
        parts = [f"{self.figure_id}: {self.title}"]
        for name, values in self.series.items():
            parts.append(render_bars(list(self.labels), values, title=f"[{name}]"))
        if self.notes:
            parts.append(f"note: {self.notes}")
        return "\n".join(parts)


def _rate_figure(
    context: AnalysisContext,
    figure_id: str,
    title: str,
    factor: str,
    label_order: list[str] | None = None,
) -> FigureSeries:
    """Shared builder for the Figs 2-9 family: mean/sd λ by one factor."""
    stats = mean_rate_by(context.all_failures, factor)
    labels = label_order or sorted(stats)
    missing = [label for label in labels if label not in stats]
    if missing:
        raise DataError(f"{figure_id}: no data for {missing}")
    means = np.array([stats[label][0] for label in labels])
    sds = np.array([stats[label][1] for label in labels])
    return FigureSeries(
        figure_id=figure_id, title=title, labels=tuple(labels),
        series={"mean": means, "sd": sds},
    )


# -- §V-B evidence figures ------------------------------------------------

def fig02_spatial(context: AnalysisContext) -> FigureSeries:
    """Fig 2: mean failure rate by DC region (inter/intra-DC)."""
    regions = context.result.fleet.region_names
    return _rate_figure(context, "fig02", "Inter-DC and Intra-DC failure rate",
                        "region", label_order=regions)


def _per_year_series(
    context: AnalysisContext,
    factor: str,
    labels: list[str],
) -> dict[str, np.ndarray]:
    """Mean-rate series split by observation year (the paper's Figs 3-4
    plot 2012 and 2013 as separate, mutually confirming series)."""
    table = context.all_failures
    years = table.column("year").astype(int)
    series: dict[str, np.ndarray] = {}
    for year in np.unique(years):
        subset = table.filter(years == year)
        if subset.n_rows < 100:
            continue
        stats = mean_rate_by(subset, factor)
        series[f"year{year}"] = np.array([
            stats[label][0] if label in stats else np.nan for label in labels
        ])
    return series


def fig03_day_of_week(context: AnalysisContext) -> FigureSeries:
    """Fig 3: mean failure rate by day of week (overall + per year)."""
    labels = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"]
    figure = _rate_figure(
        context, "fig03", "Failure rate by day of week", "day_of_week",
        label_order=labels,
    )
    figure.series.update(_per_year_series(context, "day_of_week", labels))
    return figure


def fig04_month(context: AnalysisContext) -> FigureSeries:
    """Fig 4: mean failure rate by month of year (overall + per year)."""
    labels = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
              "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
    figure = _rate_figure(
        context, "fig04", "Failure rate by month of year", "month",
        label_order=labels,
    )
    figure.series.update(_per_year_series(context, "month", labels))
    return figure


def fig05_humidity(context: AnalysisContext) -> FigureSeries:
    """Fig 5: mean failure rate by relative-humidity bin."""
    bins = make_range_bins([20.0, 30.0, 40.0, 50.0, 60.0, 70.0])
    table = context.all_failures
    bin_index = bins.assign(table.column("rh").astype(float))
    means, sds, counts = binned_mean_sd(
        bin_index, table.column("failures").astype(float), bins.n_bins
    )
    return FigureSeries(
        figure_id="fig05", title="Failure rate by relative humidity (%)",
        labels=bins.labels, series={"mean": means, "sd": sds,
                                    "count": counts.astype(float)},
    )


def fig06_workload(context: AnalysisContext) -> FigureSeries:
    """Fig 6: mean failure rate by workload W1-W7."""
    return _rate_figure(
        context, "fig06", "Failure rate by workload", "workload",
        label_order=[f"W{i}" for i in range(1, 8)],
    )


def fig07_sku(context: AnalysisContext) -> FigureSeries:
    """Fig 7: mean failure rate by SKU S1-S4."""
    return _rate_figure(context, "fig07", "Failure rate by SKU",
                        "sku", label_order=["S1", "S2", "S3", "S4"])


def fig08_power(context: AnalysisContext) -> FigureSeries:
    """Fig 8: mean failure rate by rack power rating."""
    table = context.all_failures
    rated = table.column("rated_power_kw").astype(float)
    levels = sorted(np.unique(rated).tolist())
    means, sds = [], []
    failures = table.column("failures").astype(float)
    for level in levels:
        group = failures[rated == level]
        means.append(group.mean())
        sds.append(group.std())
    return FigureSeries(
        figure_id="fig08", title="Failure rate by rack power rating (kW)",
        labels=tuple(f"{level:g}" for level in levels),
        series={"mean": np.array(means), "sd": np.array(sds)},
    )


def fig09_age(context: AnalysisContext) -> FigureSeries:
    """Fig 9: mean failure rate by equipment age (months)."""
    bins = BinSpec(
        edges=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
        labels=("0-5", "5-10", "10-15", "15-20", "20-25",
                "25-30", "30-35", "35-40", ">40"),
    )
    table = context.all_failures
    bin_index = bins.assign(table.column("age_months").astype(float))
    means, sds, counts = binned_mean_sd(
        bin_index, table.column("failures").astype(float), bins.n_bins
    )
    return FigureSeries(
        figure_id="fig09", title="Failure rate by equipment age (months)",
        labels=bins.labels, series={"mean": means, "sd": sds,
                                    "count": counts.astype(float)},
    )


# -- Q1 figures -------------------------------------------------------------

def fig01_cdf_concept(
    context: AnalysisContext,
    workload: str = "W6",
    sla_level: float = 0.95,
) -> dict[str, np.ndarray]:
    """Fig 1: aggregate CDF vs per-group CDFs of spare requirements.

    Returns the pooled per-rack requirement-fraction sample plus the
    calmest and the most demanding MF cluster's samples — the e / g1 /
    g2 construction of the illustrative figure, from real (simulated)
    data.
    """
    provisioner = context.provisioner(24.0)
    sla = AvailabilitySla(sla_level)
    plan = provisioner.multi_factor(workload, sla)
    if plan.clusters is None or len(plan.clusters) < 2:
        raise DataError("need at least two clusters for the Fig 1 construction")
    racks = plan.rack_indices
    # Each rack's own requirement fraction is its LB allocation.
    requirements = provisioner.lower_bound(workload, sla).per_rack_fraction
    clusters = sorted(plan.clusters, key=lambda cluster: cluster.fraction)
    rack_position = {rack: i for i, rack in enumerate(racks.tolist())}
    low = np.array([requirements[rack_position[r]]
                    for r in clusters[0].rack_indices.tolist()])
    high = np.array([requirements[rack_position[r]]
                     for r in clusters[-1].rack_indices.tolist()])
    return {"all": requirements, "group_low": low, "group_high": high}


def render_fig01(samples: dict[str, np.ndarray]) -> str:
    """Text rendering of Fig 1's three CDFs."""
    parts = ["fig01: requirement CDFs (aggregate vs groups)"]
    for name, sample in samples.items():
        parts.append(render_cdf(sample, title=f"[{name}] n={len(sample)}"))
    return "\n".join(parts)


def fig10_overprovision(
    context: AnalysisContext,
    window_hours: float = 24.0,
    workloads: tuple[str, ...] = ("W1", "W6"),
) -> FigureSeries:
    """Figs 10/12: over-provisioned capacity, LB/MF/SF × SLA × workload.

    ``window_hours=24`` reproduces Fig 10 (daily), ``1.0`` Fig 12
    (hourly).
    """
    provisioner = context.provisioner(window_hours)
    daily = context.provisioner(24.0) if window_hours < 24.0 else None
    labels = []
    data: dict[str, list[float]] = {"LB": [], "MF": [], "SF": []}
    for workload in workloads:
        for level in PAPER_SLAS:
            sla = AvailabilitySla(level)
            plans = {
                "LB": provisioner.lower_bound(workload, sla),
                "SF": provisioner.single_factor(workload, sla),
            }
            if daily is not None:
                # Hourly provisioning reuses the daily deployment-time
                # clusters; only the window granularity changes.
                daily_plan = daily.multi_factor(workload, sla)
                plans["MF"] = provisioner.multi_factor(
                    workload, sla, clusters_from=daily_plan,
                )
            else:
                plans["MF"] = provisioner.multi_factor(workload, sla)
            labels.append(f"{workload}@{level * 100:g}%")
            for approach in ("LB", "MF", "SF"):
                data[approach].append(100.0 * plans[approach].overprovision)
    figure_id = "fig10" if window_hours >= 24.0 else "fig12"
    return FigureSeries(
        figure_id=figure_id,
        title=f"Over-provisioning %, {'daily' if window_hours >= 24 else 'hourly'} granularity",
        labels=tuple(labels),
        series={name: np.array(values) for name, values in data.items()},
    )


def fig11_cluster_cdfs(
    context: AnalysisContext,
    workload: str,
    sla_level: float = 1.0,
) -> dict[str, np.ndarray]:
    """Fig 11: per-cluster over-provision requirement samples.

    Returns ``{"SF": pooled samples, "Cluster1": ..., ...}`` in
    ascending cluster-fraction order (percent of rack capacity).
    """
    provisioner = context.provisioner(24.0)
    sla = AvailabilitySla(sla_level)
    plan = provisioner.multi_factor(workload, sla)
    assert plan.clusters is not None
    pooled = provisioner.pooled_fractions(plan.rack_indices)
    output: dict[str, np.ndarray] = {"SF": 100.0 * pooled}
    for index, cluster in enumerate(
        sorted(plan.clusters, key=lambda c: c.fraction), start=1
    ):
        output[f"Cluster{index}"] = 100.0 * cluster.requirement_samples
    return output


def fig13_component_spares(
    context: AnalysisContext,
    sla_level: float = 1.0,
    workloads: tuple[str, ...] = ("W1", "W6"),
) -> FigureSeries:
    """Fig 13: component-level vs server-level spare cost (100% SLA).

    Values are costs normalized to the maximum bar, matching the
    figure's "% cost of overprovisioning" axis.
    """
    provisioner = context.component_provisioner(24.0)
    sla = AvailabilitySla(sla_level)
    labels = []
    data: dict[str, list[float]] = {"LB": [], "MF": [], "SF": []}
    for workload in workloads:
        plans = provisioner.compare(workload, sla)
        for kind in ("component", "server"):
            labels.append(f"{workload}/{kind}")
            for approach in ("LB", "MF", "SF"):
                plan = plans[approach]
                cost = (plan.component_cost if kind == "component"
                        else plan.server_cost)
                data[approach].append(cost)
    series = {}
    peak = max(max(values) for values in data.values())
    for name, values in data.items():
        series[name] = 100.0 * np.array(values) / peak
    return FigureSeries(
        figure_id="fig13",
        title="Component vs server-level spare cost (100% SLA, daily)",
        labels=tuple(labels),
        series=series,
    )


# -- Q2 figures -------------------------------------------------------------

def fig14_fig15_sku(context: AnalysisContext):
    """Figs 14-15: SKU reliability via SF and MF.

    Returns the context's :class:`~repro.decisions.sku_ranking.SkuComparison`
    (computed once per run, shared by both figures); use
    :func:`render_fig14` / :func:`render_fig15` for text output.
    """
    return context.sku_ranking


def render_fig14(comparison) -> str:
    """Fig 14 text: normalized SF peak and average rates for S1-S4."""
    labels = list(FIG14_SKUS)
    peak = comparison.normalized_sf(statistic="peak")
    mean = comparison.normalized_sf(statistic="mean")
    parts = ["fig14: SKU comparison (single factor, normalized to peak SKU)"]
    parts.append(render_bars(labels, [peak[s] for s in labels], title="[peak rate]"))
    parts.append(render_bars(labels, [mean[s] for s in labels], title="[avg rate]"))
    return "\n".join(parts)


def render_fig15(comparison) -> str:
    """Fig 15 text: MF-adjusted peak and average rates for S2 vs S4.

    Uses the common-support statistics (both SKUs standardized over the
    strata they share) when available, so the bars and the printed
    ratio agree.
    """
    labels = ["S2", "S4"]
    peak_stats = comparison.mf_pair_peak or comparison.mf_peak
    mean_stats = comparison.mf_pair or comparison.mf_mean
    peaks = [peak_stats[s].peak for s in labels]
    means = [mean_stats[s].mean for s in labels]
    parts = ["fig15: SKU comparison (multi factor, stratum-standardized)"]
    parts.append(render_bars(labels, peaks, title="[peak rate]"))
    parts.append(render_bars(labels, means, title="[avg rate]"))
    parts.append(
        f"S2/S4 average-rate ratio: SF {comparison.sf_ratio('S2', 'S4'):.1f}X "
        f"vs MF {comparison.mf_ratio('S2', 'S4'):.1f}X"
    )
    return "\n".join(parts)


# -- Q3 figures -------------------------------------------------------------

def fig16_temperature_all(context: AnalysisContext) -> FigureSeries:
    """Fig 16: all failures vs operating-temperature bin."""
    binned = temperature_binned_rates(
        context.result, table=context.all_failures, bins=FIG16_TEMP_BINS,
    )
    return FigureSeries(
        figure_id="fig16", title="All failures vs temperature (F)",
        labels=binned.bins.labels,
        series={"mean": binned.means, "sd": binned.sds,
                "count": binned.counts.astype(float)},
    )


def fig17_temperature_disk(context: AnalysisContext) -> FigureSeries:
    """Fig 17: hard-disk failures vs operating-temperature bin."""
    binned = temperature_binned_rates(
        context.result, table=context.disk_failures, bins=FIG16_TEMP_BINS,
    )
    return FigureSeries(
        figure_id="fig17", title="Hard disk failures vs temperature (F)",
        labels=binned.bins.labels,
        series={"mean": binned.means, "sd": binned.sds,
                "count": binned.counts.astype(float)},
    )


def fig18_climate_mf(context: AnalysisContext) -> FigureSeries:
    """Fig 18: HDD failures vs T/RH groups per DC (MF view).

    Bars are normalized to DC1's hot-and-dry subgroup, as the paper's
    y-axis note specifies.
    """
    groups = {
        dc.name: climate_group_rates(
            context.result, dc.name, table=context.disk_failures,
        )
        for dc in context.result.fleet.datacenters
    }
    dc1 = context.result.fleet.datacenters[0].name
    reference = groups[dc1].hot_dry
    if not np.isfinite(reference) or reference <= 0:
        raise DataError("DC1 hot-and-dry group is empty; cannot normalize Fig 18")
    labels, values = [], []
    for dc_name, group in groups.items():
        for name, value in (("T<=78F", group.cool), ("T>=78.8F", group.hot),
                            ("T>=78.8+RH<=25.5", group.hot_dry), ("All", group.overall)):
            labels.append(f"{dc_name}:{name}")
            values.append(value / reference if np.isfinite(value) else np.nan)
    return FigureSeries(
        figure_id="fig18",
        title="HDD failures vs temperature and RH (normalized to DC1 hot+dry)",
        labels=tuple(labels),
        series={"rate": np.array(values)},
        notes="within-rack-normalized rates; NaN = regime never observed",
    )
