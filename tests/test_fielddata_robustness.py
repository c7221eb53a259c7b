"""Noise robustness: severity-0 bit-identity and the degradation table."""

import math

import numpy as np
import pytest

from repro.errors import DataError, ReproError
from repro.fielddata.robustness import (
    DEFAULT_SEVERITIES,
    METRIC_NAMES,
    degrade_and_clean,
    headline_metrics,
    noise_point_payload,
    render_noise_payloads,
)
from repro.reporting.sweeps import HEADLINE_METRICS, run_noise_sweep


def _same_value(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


class TestHeadlineMetrics:
    def test_names_match_sweep_registry(self):
        assert set(METRIC_NAMES) == set(HEADLINE_METRICS)

    def test_matches_sweep_extractors(self, tiny_run):
        consolidated = headline_metrics(tiny_run)
        for name, (extractor, _) in HEADLINE_METRICS.items():
            try:
                expected = float(extractor(tiny_run))
            except ReproError:
                expected = float("nan")
            assert _same_value(consolidated[name], expected), name


class TestSeverityZero:
    def test_degrade_and_clean_is_bit_identical(self, tiny_run):
        direct = headline_metrics(tiny_run)
        _, point = degrade_and_clean(tiny_run, 0.0)
        for name in METRIC_NAMES:
            assert _same_value(point.metrics[name], direct[name]), name
        assert not point.cleaning.duplicates_removed
        assert point.lambda_naive == point.lambda_exposure

    def test_reconstituted_result_reuses_substrate(self, tiny_run):
        degraded, _ = degrade_and_clean(tiny_run, 0.0)
        assert degraded.calendar is tiny_run.calendar
        assert degraded.environment is tiny_run.environment


class TestNoiseSweep:
    def test_points_cover_requested_severities(self, tiny_run):
        payloads = [noise_point_payload(tiny_run, s) for s in (0.0, 1.0)]
        assert [payload["severity"] for payload in payloads] == [0.0, 1.0]
        for payload in payloads:
            assert set(payload["metrics"]) == set(METRIC_NAMES)

    def test_corruption_actually_bites(self, tiny_run):
        points = [degrade_and_clean(tiny_run, s)[1] for s in (0.0, 1.0)]
        assert points[1].cleaning.racks_censored > 0
        assert points[1].cleaning.cells_imputed > points[0].cleaning.cells_imputed

    def test_empty_severities_rejected(self):
        with pytest.raises(DataError, match="severity"):
            run_noise_sweep([11], ())

    def test_render_contains_table_and_verdicts(self, tiny_run):
        text = render_noise_payloads(
            [noise_point_payload(tiny_run, s) for s in DEFAULT_SEVERITIES]
        )
        for name in METRIC_NAMES:
            assert name in text
        assert "sev=0.00" in text
        assert "max drift" in text
        assert "exposure-aware" in text


class TestRegistry:
    def test_fielddata_experiment_registered(self):
        from repro.reporting import EXPERIMENTS, get_experiment

        assert "fielddata" in EXPERIMENTS
        experiment = get_experiment("fielddata")
        assert "severity" in experiment.description.lower()

    def test_experiment_renders(self, tiny_run):
        from repro.reporting import AnalysisContext, get_experiment

        text = get_experiment("fielddata").render(AnalysisContext(tiny_run))
        assert "Field-data robustness" in text


class TestNoiseSweepRunner:
    def test_run_noise_sweep_matches_plain_sweep_at_zero(self):
        from repro.reporting.sweeps import run_noise_sweep, run_sweep

        seeds = [7]
        plain = run_sweep(seeds, scale=0.05, n_days=120)
        noisy = run_noise_sweep(seeds, (0.0, 0.7), scale=0.05, n_days=120)
        assert set(noisy) == {0.0, 0.7}
        by_name = {summary.name: summary for summary in noisy[0.0]}
        for summary in plain:
            assert np.array_equal(summary.values, by_name[summary.name].values,
                                  equal_nan=True), summary.name

    def test_render_noise_sweep(self):
        from repro.reporting.sweeps import render_noise_sweep, run_noise_sweep

        noisy = run_noise_sweep([7], (0.0, 1.0), scale=0.05, n_days=120)
        text = render_noise_sweep(noisy, [7])
        assert "sev=0.00" in text
        assert "sev=1.00" in text
        assert "Q2 SF S2/S4" in text
