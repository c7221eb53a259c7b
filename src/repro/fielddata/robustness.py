"""Noise robustness of the paper's headline conclusions.

The paper's central claim is methodological: multi-factor (MF)
analyses of field data are trustworthy where single-factor (SF)
analyses mislead.  Real field data is never clean, so this module
stress-tests that claim — it degrades a run's operator-visible data
through the standard corruption pipeline at increasing severity, runs
the cleaning pipeline, re-computes every headline metric, and reports
which conclusions survive.  At severity 0 the degrade→clean→re-analyze
loop is bit-identical to analyzing the pristine run directly.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..decisions.availability import AvailabilitySla
from ..decisions.climate import climate_group_rates, discover_climate_thresholds
from ..decisions.sku_ranking import SkuComparison, compare_skus
from ..decisions.spares import SpareProvisioner
from ..errors import ReproError
from ..failures.engine import SimulationResult
from ..reporting.context import fielddata_stage as stage_name
from .cleaning import CleaningReport, clean_dataset, fleet_lambda
from .corruption import CorruptionReport, standard_pipeline
from .dataset import FieldDataset

if TYPE_CHECKING:
    from ..reporting.context import AnalysisContext

#: Severity grid used by the registered ``fielddata`` experiment.
DEFAULT_SEVERITIES = (0.0, 0.5, 1.0)

#: Metric names, matching :data:`repro.reporting.sweeps.HEADLINE_METRICS`.
METRIC_NAMES = (
    "Q2 SF S2/S4 average-rate ratio",
    "Q2 MF S2/S4 average-rate ratio",
    "Q1 SF over-provision W6@100% (%)",
    "Q1 MF over-provision W6@100% (%)",
    "Q3 DC1 temperature split (F)",
    "Q3 DC1 hot/cool disk-rate ratio",
)


def headline_metrics(
    result: SimulationResult,
    comparison: SkuComparison | None = None,
) -> dict[str, float]:
    """All headline metrics of one (possibly reconstituted) run.

    Same names and definitions as
    :data:`repro.reporting.sweeps.HEADLINE_METRICS`, but evaluated in
    consolidated blocks — the SKU comparison and the spare provisioner
    are each built once and reused for their SF and MF variants, which
    matters when the metrics are re-evaluated per severity level.
    Metrics a realization cannot support record NaN.

    Args:
        result: the run to analyze.
        comparison: ``result``'s SKU comparison, when already computed
            (ranked here otherwise).
    """
    values = dict.fromkeys(METRIC_NAMES, float("nan"))
    with contextlib.suppress(ReproError):
        comparison = comparison or compare_skus(result)
        values["Q2 SF S2/S4 average-rate ratio"] = float(
            comparison.sf_ratio("S2", "S4", "mean"))
        values["Q2 MF S2/S4 average-rate ratio"] = float(
            comparison.mf_ratio("S2", "S4", "mean"))
    with contextlib.suppress(ReproError):
        provisioner = SpareProvisioner(result, window_hours=24.0)
        sla = AvailabilitySla(1.0)
        values["Q1 SF over-provision W6@100% (%)"] = 100.0 * float(
            provisioner.single_factor("W6", sla).overprovision)
        values["Q1 MF over-provision W6@100% (%)"] = 100.0 * float(
            provisioner.multi_factor("W6", sla).overprovision)
    with contextlib.suppress(ReproError):
        found = discover_climate_thresholds(result, "DC1")
        if found.temp_threshold_f is not None:
            values["Q3 DC1 temperature split (F)"] = float(found.temp_threshold_f)
        group = climate_group_rates(result, "DC1")
        values["Q3 DC1 hot/cool disk-rate ratio"] = float(group.hot / group.cool)
    return values


@dataclass(frozen=True)
class NoisePoint:
    """One severity level's worth of the degradation experiment.

    Attributes:
        severity: shared severity knob of the standard pipeline.
        metrics: headline metric name → value after degrade + clean.
        lambda_naive: fleet hardware λ with the naive whole-window
            denominator (RMAs per rack-day).
        lambda_exposure: the same λ with censoring-aware exposure.
        corruption: what the corruption pipeline injected.
        cleaning: what the cleaning pipeline found and repaired.
    """

    severity: float
    metrics: dict[str, float]
    lambda_naive: float
    lambda_exposure: float
    corruption: CorruptionReport
    cleaning: CleaningReport


def degrade_and_clean(
    result: SimulationResult,
    severity: float,
    seed: int | None = None,
    comparison: SkuComparison | None = None,
) -> tuple[SimulationResult, NoisePoint]:
    """Degrade one run's field data, clean it, and re-analyze.

    The corruption seed defaults to the run's own seed so the whole
    chain stays a pure function of (config, severity).  Returns the
    reconstituted result (sharing the base run's deterministic
    substrate) and the :class:`NoisePoint` for this severity.

    ``comparison`` is the degraded run's SKU comparison, when already
    computed: at severity 0 degrade→clean is the identity, so the
    pristine run's ranking is that run's own.
    """
    pipeline_seed = result.config.seed if seed is None else seed
    dataset = FieldDataset.from_result(result)
    corrupted, corruption = standard_pipeline(severity, seed=pipeline_seed).apply(dataset)
    cleaned, cleaning = clean_dataset(corrupted)
    degraded_result = cleaned.to_result(base=result)
    point = NoisePoint(
        severity=severity,
        metrics=headline_metrics(degraded_result, comparison),
        lambda_naive=fleet_lambda(cleaned, censoring_aware=False),
        lambda_exposure=fleet_lambda(cleaned, censoring_aware=True),
        corruption=corruption,
        cleaning=cleaning,
    )
    return degraded_result, point


def noise_point_payload(
    result: SimulationResult,
    severity: float,
    comparison: SkuComparison | None = None,
) -> dict:
    """One severity's :class:`NoisePoint`, as a JSON-serializable dict.

    This is the artifact behind the pipeline's ``fielddata:sev=…``
    stages (see :func:`stage_name`): everything the rendering needs —
    metrics, the two λ estimates and the cleaning summary text — and
    nothing process-bound, so it round-trips through the artifact
    store's ``json`` codec bit-identically.  ``comparison`` is passed
    on to :func:`degrade_and_clean`.
    """
    point = degrade_and_clean(result, severity, comparison=comparison)[1]
    return {
        "severity": point.severity,
        "metrics": dict(point.metrics),
        "lambda_naive": point.lambda_naive,
        "lambda_exposure": point.lambda_exposure,
        "cleaning_text": point.cleaning.render(),
    }


def _survival_verdict(payloads: list[dict]) -> list[str]:
    """SF-vs-MF survival lines for the two paired conclusions."""
    baseline = payloads[0]["metrics"]
    lines = []
    for question, sf_name, mf_name in (
        ("Q2 SKU ranking", "Q2 SF S2/S4 average-rate ratio",
         "Q2 MF S2/S4 average-rate ratio"),
        ("Q1 spare provisioning", "Q1 SF over-provision W6@100% (%)",
         "Q1 MF over-provision W6@100% (%)"),
    ):
        for label, name in (("SF", sf_name), ("MF", mf_name)):
            base = baseline[name]
            worst = max(
                abs(payload["metrics"][name] - base)
                for payload in payloads
            )
            relative = worst / abs(base) if base else float("inf")
            lines.append(
                f"  {question} ({label}): max drift {relative:6.1%} "
                f"of clean value across severities"
            )
    return lines


def render_noise_payloads(payloads: list[dict]) -> str:
    """The degradation table: metrics in rows, severities in columns."""
    severities = [payload["severity"] for payload in payloads]
    header = f"{'metric':38s}" + "".join(
        f"  sev={severity:4.2f}" for severity in severities
    )
    lines = [
        "Field-data robustness: headline metrics vs corruption severity",
        "(standard pipeline, cleaned before analysis)",
        "",
        header,
    ]
    for name in METRIC_NAMES:
        row = f"{name:38s}" + "".join(
            f"  {payload['metrics'][name]:8.3f}" for payload in payloads
        )
        lines.append(row)
    lines.append(
        f"{'fleet HW lambda (naive, /rack-day)':38s}" + "".join(
            f"  {payload['lambda_naive']:8.5f}" for payload in payloads
        )
    )
    lines.append(
        f"{'fleet HW lambda (exposure-aware)':38s}" + "".join(
            f"  {payload['lambda_exposure']:8.5f}" for payload in payloads
        )
    )
    lines.append("")
    lines.extend(_survival_verdict(payloads))
    lines.append("")
    for payload in payloads:
        lines.append(
            f"severity {payload['severity']:.2f}: {payload['cleaning_text']}"
        )
    return "\n".join(lines)


def fielddata_experiment(context: "AnalysisContext") -> str:
    """Registered experiment: noise sweep on the context's run.

    When the context is a view over a pipeline, each severity's payload
    is sourced from its ``fielddata:sev=…`` stage — cached and shared
    with the noise-sweep driver — and only computed here otherwise.
    """
    artifacts = getattr(context, "artifacts", None)
    payloads = []
    for severity in DEFAULT_SEVERITIES:
        payload = None
        if artifacts is not None and artifacts.has_stage(stage_name(severity)):
            payload = artifacts.get(stage_name(severity))
        if payload is None:
            payload = noise_point_payload(context.result, severity)
        payloads.append(payload)
    return render_noise_payloads(payloads)
