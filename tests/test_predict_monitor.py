"""Live predictive monitor: parity, analyzer integration, serving."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DataError
from repro.predict import PredictiveMonitor, build_feature_dataset, train_predictor
from repro.stream import (
    AlertKind,
    StreamAnalyzer,
    StreamInventory,
    blocks_from_result,
    load_checkpoint,
    save_checkpoint,
)
from stream_oracle import ReferencePredictiveMonitor, block_events

THRESHOLD = 0.7


@pytest.fixture(scope="module")
def inventory(tiny_run) -> StreamInventory:
    return StreamInventory.from_result(tiny_run)


@pytest.fixture(scope="module")
def model(tiny_run):
    dataset = build_feature_dataset(tiny_run)
    fitted, _, _ = train_predictor(dataset)
    return fitted


def _alerts(monitor, block) -> list:
    return [alert for _, alert in monitor.update_block(block)]


def _run_blocks(tiny_run, monitor) -> list:
    alerts = []
    for block in blocks_from_result(tiny_run):
        alerts.extend(_alerts(monitor, block))
    alerts.extend(monitor.finish())
    return alerts


class TestMonitor:
    def test_emits_day_boundary_alerts(self, tiny_run, inventory, model):
        monitor = PredictiveMonitor(inventory, model, threshold=THRESHOLD)
        alerts = _run_blocks(tiny_run, monitor)
        assert alerts and monitor.alerts_emitted == len(alerts)
        for alert in alerts:
            assert alert.kind is AlertKind.PREDICTED_FAILURE
            assert alert.time_hours % 24.0 == 0.0
            assert alert.value > THRESHOLD
            assert alert.threshold == THRESHOLD
            assert "failure risk" in alert.message

    def test_scalar_and_block_paths_agree(self, tiny_run, inventory, model):
        blocked = PredictiveMonitor(inventory, model, threshold=THRESHOLD)
        block_alerts = _run_blocks(tiny_run, blocked)

        scalar = ReferencePredictiveMonitor(inventory, model,
                                            threshold=THRESHOLD)
        scalar_alerts = []
        for event in block_events(blocks_from_result(tiny_run)):
            scalar_alerts.extend(scalar.update(event))
        scalar_alerts.extend(scalar.finish())
        assert scalar_alerts == block_alerts

    def test_unfitted_model_rejected(self, inventory):
        from repro.predict import TwoStagePredictor

        with pytest.raises(DataError, match="fitted"):
            PredictiveMonitor(inventory, TwoStagePredictor())

    def test_threshold_validated(self, inventory, model):
        with pytest.raises(DataError, match="threshold"):
            PredictiveMonitor(inventory, model, threshold=1.5)

    def test_state_roundtrip_resumes_identically(self, tiny_run, inventory,
                                                 model):
        continuous = PredictiveMonitor(inventory, model, threshold=THRESHOLD)
        blocks = list(blocks_from_result(tiny_run))
        half = len(blocks) // 2 or 1
        tail_expected = []
        for i, block in enumerate(blocks):
            alerts = _alerts(continuous, block)
            if i >= half:
                tail_expected.extend(alerts)
        tail_expected.extend(continuous.finish())

        prefix = PredictiveMonitor(inventory, model, threshold=THRESHOLD)
        for block in blocks[:half]:
            prefix.update_block(block)
        resumed = PredictiveMonitor.from_state(
            inventory, model, prefix.state_arrays(), prefix.meta(),
        )
        tail = []
        for block in blocks[half:]:
            tail.extend(_alerts(resumed, block))
        tail.extend(resumed.finish())
        assert tail == tail_expected
        np.testing.assert_array_equal(resumed._flagged, continuous._flagged)


class TestAnalyzerIntegration:
    def test_attached_monitor_alerts_reach_the_summary(self, tiny_run,
                                                       inventory, model):
        analyzer = StreamAnalyzer(inventory)
        analyzer.attach_monitor(
            PredictiveMonitor(inventory, model, threshold=THRESHOLD))
        for block in blocks_from_result(tiny_run):
            analyzer.process_block(block)
        analyzer.finish()
        kinds = {alert["kind"] for alert in analyzer.summary()["alerts"]}
        assert AlertKind.PREDICTED_FAILURE.value in kinds

    def test_scalar_and_block_analyzers_agree(self, tiny_run, inventory,
                                              model):
        """One-record blocks (event-at-a-time order) and default blocks
        raise the same alerts, predictive ones included."""
        def run(**kwargs):
            analyzer = StreamAnalyzer(inventory)
            analyzer.attach_monitor(
                PredictiveMonitor(inventory, model, threshold=THRESHOLD))
            for block in blocks_from_result(tiny_run, **kwargs):
                analyzer.process_block(block)
            analyzer.finish()
            return analyzer

        blocked = run()
        scalar = run(block_size=1)
        assert any(alert.kind is AlertKind.PREDICTED_FAILURE
                   for alert in blocked.alerts)
        assert scalar.alerts == blocked.alerts

    def test_attach_after_feeding_rejected(self, tiny_run, inventory, model):
        analyzer = StreamAnalyzer(inventory)
        analyzer.consume_blocks(blocks_from_result(tiny_run), max_events=10)
        with pytest.raises(DataError, match="attach"):
            analyzer.attach_monitor(
                PredictiveMonitor(inventory, model))

    def test_checkpoint_requires_factories_for_extra_monitors(
            self, inventory, model, tmp_path):
        analyzer = StreamAnalyzer(inventory)
        analyzer.attach_monitor(
            PredictiveMonitor(inventory, model))
        path = tmp_path / "state.npz"
        save_checkpoint(analyzer, path)
        with pytest.raises(DataError, match="PredictiveMonitor"):
            load_checkpoint(path, inventory)


class TestServePredict:
    def test_parse_defaults(self):
        from repro.serve.queries import QUERY_DEFAULTS, parse_query

        query = parse_query("predict", None)
        assert query.param_dict() == QUERY_DEFAULTS["predict"]

    def test_parse_validates_domains(self):
        from repro.serve.queries import parse_query

        with pytest.raises(DataError, match="act_fraction"):
            parse_query("predict", {"act_fraction": 0.0})
        with pytest.raises(DataError, match="horizon_days"):
            parse_query("predict", {"horizon_days": 0})
        with pytest.raises(DataError, match="top"):
            parse_query("predict", {"top": 0})

    def test_stage_name_prefix(self):
        from repro.serve.queries import parse_query, query_stage_name

        name = query_stage_name(parse_query("predict", {"top": 5}))
        assert name.startswith("serve:predict:")
        assert "top=5" in name

    def test_http_route_serves_predict(self, tmp_path):
        import asyncio

        from repro.serve import build_app
        from repro.serve.http import Request

        app = build_app(store_dir=str(tmp_path), workers=2, use_threads=True)
        app.service.register_fleet(
            {"seed": 5, "scale": 0.05, "days": 60}, name="tiny")
        status, payload = asyncio.run(app.dispatch(Request(
            "GET", "/v1/fleets/tiny/predict?act_fraction=0.1", {}, b"",
        )))
        assert status == 200
        assert payload["act_fraction"] == pytest.approx(0.1)
        assert "operating_point" in payload["proactive"]
        assert isinstance(payload["top_risks"], list)

        status, payload = asyncio.run(app.dispatch(Request(
            "GET", "/v1/fleets/tiny/q7", {}, b"",
        )))
        assert status == 404
        assert "predict" in payload["error"]["message"]
