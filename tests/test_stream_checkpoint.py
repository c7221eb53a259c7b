"""Checkpoint bundle format: integrity, refusals, metadata."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.decisions.availability import AvailabilitySla
from repro.errors import DataError
from repro.stream import (
    STREAM_CHECKPOINT_SCHEMA,
    StreamAnalyzer,
    StreamInventory,
    blocks_from_result,
    checkpoint_meta,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture(scope="module")
def half_streamed(tiny_run):
    inventory = StreamInventory.from_result(tiny_run)
    analyzer = StreamAnalyzer(
        inventory, window_hours=6.0, sla=AvailabilitySla(0.95),
        spare_fraction=0.02, drift=True,
    )
    total = sum(len(block) for block in blocks_from_result(tiny_run))
    analyzer.consume_blocks(blocks_from_result(tiny_run),
                            max_events=total // 2)
    return inventory, analyzer


class TestSaveLoad:
    def test_roundtrip_preserves_everything(self, half_streamed, tmp_path):
        inventory, analyzer = half_streamed
        path = save_checkpoint(analyzer, tmp_path / "c.npz")
        clone = load_checkpoint(path, inventory)
        assert clone.events_seen == analyzer.events_seen
        assert clone.last_time_hours == analyzer.last_time_hours
        assert clone.racks_in_service == analyzer.racks_in_service
        assert clone.sensor_samples == analyzer.sensor_samples
        assert clone.window_hours == analyzer.window_hours
        assert clone.sla == analyzer.sla
        assert clone.alerts == analyzer.alerts
        assert np.array_equal(clone.lambda_matrix(),
                              analyzer.lambda_matrix())
        assert np.array_equal(clone.mu_matrix(), analyzer.mu_matrix())
        assert clone.monitor is not None and clone.drift is not None
        assert np.array_equal(clone.monitor.down, analyzer.monitor.down)
        assert np.array_equal(clone.drift.day_counts,
                              analyzer.drift.day_counts)
        assert clone.summary() == analyzer.summary()

    def test_monitorless_analyzer_roundtrips(self, tiny_run, tmp_path):
        inventory = StreamInventory.from_result(tiny_run)
        analyzer = StreamAnalyzer(inventory, spare_fraction=None,
                                  drift=False)
        analyzer.consume_blocks(blocks_from_result(tiny_run), max_events=100)
        clone = load_checkpoint(
            save_checkpoint(analyzer, tmp_path / "m.npz"), inventory,
        )
        assert clone.monitor is None and clone.drift is None
        assert clone.summary() == analyzer.summary()

    def test_meta_readable_without_inventory(self, half_streamed, tmp_path):
        _, analyzer = half_streamed
        path = save_checkpoint(analyzer, tmp_path / "c.npz")
        meta = checkpoint_meta(path)
        assert meta["schema"] == STREAM_CHECKPOINT_SCHEMA
        assert meta["events_seen"] == analyzer.events_seen
        assert set(meta["parts"]) == {"lambda", "mu", "sku", "dc",
                                      "monitor", "drift"}


class TestRefusals:
    def test_finished_analyzer_refused(self, tiny_run, tmp_path):
        analyzer = StreamAnalyzer(StreamInventory.from_result(tiny_run))
        analyzer.consume_blocks(blocks_from_result(tiny_run))
        analyzer.finish()
        with pytest.raises(DataError, match="finished"):
            save_checkpoint(analyzer, tmp_path / "f.npz")

    def test_wrong_inventory_refused(self, half_streamed, tmp_path):
        import dataclasses

        inventory, analyzer = half_streamed
        path = save_checkpoint(analyzer, tmp_path / "c.npz")
        other = dataclasses.replace(inventory, n_days=inventory.n_days + 1)
        with pytest.raises(DataError, match="different inventory"):
            load_checkpoint(path, other)

    def test_missing_file_refused(self, half_streamed, tmp_path):
        inventory, _ = half_streamed
        with pytest.raises(DataError, match="no such checkpoint"):
            load_checkpoint(tmp_path / "absent.npz", inventory)

    def test_non_checkpoint_npz_refused(self, half_streamed, tmp_path):
        inventory, _ = half_streamed
        path = tmp_path / "other.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(DataError, match="not a stream checkpoint"):
            load_checkpoint(path, inventory)

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty",
                                        "flipped"])
    @pytest.mark.parametrize("reader", ["meta", "load"])
    def test_damaged_bundle_named(self, half_streamed, tmp_path, damage,
                                  reader):
        inventory, analyzer = half_streamed
        path = save_checkpoint(analyzer, tmp_path / "c.npz")
        data = path.read_bytes()
        middle = len(data) // 2
        path.write_bytes({
            "truncated": data[:middle],
            "garbage": b"garbage",
            "empty": b"",
            # Compressed member bytes overwritten in place: the zip
            # directory still parses, the member does not inflate.
            "flipped": data[:middle] + bytes(64) + data[middle + 64:],
        }[damage])
        with pytest.raises(DataError, match="corrupt") as raised:
            if reader == "meta":
                checkpoint_meta(path)
            else:
                load_checkpoint(path, inventory)
        assert str(path) in str(raised.value)

    def test_schema_mismatch_refused(self, half_streamed, tmp_path):
        inventory, analyzer = half_streamed
        path = save_checkpoint(analyzer, tmp_path / "c.npz")
        with np.load(path) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
        meta = json.loads(bytes(arrays["meta_json"].tobytes()).decode())
        meta["schema"] = STREAM_CHECKPOINT_SCHEMA + 1
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8,
        )
        tampered = tmp_path / "tampered.npz"
        with tampered.open("wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(DataError, match="schema"):
            load_checkpoint(tampered, inventory)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_open_interval_refused(self, half_streamed, tmp_path,
                                              bad):
        inventory, analyzer = half_streamed
        path = save_checkpoint(analyzer, tmp_path / "c.npz")
        with np.load(path) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
        bounds = arrays["mu.open_bounds"].copy()
        assert len(bounds), "fixture must leave an interval open"
        bounds[0, 1] = bad
        arrays["mu.open_bounds"] = bounds
        tampered = tmp_path / "tampered.npz"
        with tampered.open("wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(DataError, match="non-finite"):
            load_checkpoint(tampered, inventory)

    @pytest.mark.parametrize("key", ["parts", "events_seen",
                                     "inventory_fingerprint"])
    @pytest.mark.parametrize("reader", ["meta", "load"])
    def test_missing_meta_key_named(self, half_streamed, tmp_path, key,
                                    reader):
        inventory, analyzer = half_streamed
        path = save_checkpoint(analyzer, tmp_path / "c.npz")
        with np.load(path) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        meta = json.loads(bytes(arrays["meta_json"].tobytes()).decode())
        del meta[key]
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8,
        )
        tampered = tmp_path / "tampered.npz"
        with tampered.open("wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(DataError, match=key) as raised:
            if reader == "meta":
                checkpoint_meta(tampered)
            else:
                load_checkpoint(tampered, inventory)
        assert str(tampered) in str(raised.value)

    def test_position_enforced_after_resume(self, half_streamed,
                                            tiny_run, tmp_path):
        inventory, analyzer = half_streamed
        path = save_checkpoint(analyzer, tmp_path / "c.npz")
        clone = load_checkpoint(path, inventory)
        wrong_offset = blocks_from_result(tiny_run)  # starts at seq 0
        with pytest.raises(DataError, match="position"):
            clone.process_block(next(wrong_offset))


def _tampered_checkpoint(analyzer, tmp_path, edit):
    """A checkpoint of ``analyzer`` whose arrays ``edit`` rewrote."""
    path = save_checkpoint(analyzer, tmp_path / "c.npz")
    with np.load(path) as bundle:
        arrays = {key: bundle[key] for key in bundle.files}
    edit(arrays)
    tampered = tmp_path / "tampered.npz"
    with tampered.open("wb") as handle:
        np.savez(handle, **arrays)
    return tampered


class TestStateArrayShapes:
    """Every malformed state array fails as a DataError naming the file
    and the array, before any of it reaches an estimator."""

    def _refused(self, half_streamed, tmp_path, edit, array, match):
        inventory, analyzer = half_streamed
        path = _tampered_checkpoint(analyzer, tmp_path, edit)
        with pytest.raises(DataError, match=match) as raised:
            load_checkpoint(path, inventory)
        assert str(path) in str(raised.value)
        assert array in str(raised.value)

    def test_missing_lambda_counts(self, half_streamed, tmp_path):
        self._refused(half_streamed, tmp_path,
                      lambda arrays: arrays.pop("lambda.counts"),
                      "lambda.counts", "missing")

    def test_undersized_lambda_counts(self, half_streamed, tmp_path):
        # At the parent this resumed and finished with a (3, 3) λ matrix.
        def shrink(arrays):
            arrays["lambda.counts"] = arrays["lambda.counts"][:3, :3].copy()

        self._refused(half_streamed, tmp_path, shrink, "lambda.counts",
                      r"shape \(3, 3\)")

    def test_undersized_mu_diff(self, half_streamed, tmp_path):
        def shrink(arrays):
            arrays["mu.diff"] = arrays["mu.diff"][:2, :2].copy()

        self._refused(half_streamed, tmp_path, shrink, "mu.diff",
                      r"shape \(2, 2\)")

    def test_non_finite_open_bound_names_file(self, half_streamed, tmp_path):
        def poison(arrays):
            bounds = arrays["mu.open_bounds"].copy()
            assert len(bounds), "fixture must leave an interval open"
            bounds[0, 0] = np.nan
            arrays["mu.open_bounds"] = bounds

        self._refused(half_streamed, tmp_path, poison, "open_bounds",
                      "non-finite")

    def test_unpaired_open_bounds(self, half_streamed, tmp_path):
        def drop_row(arrays):
            arrays["mu.open_bounds"] = arrays["mu.open_bounds"][1:].copy()

        self._refused(half_streamed, tmp_path, drop_row, "mu.open_bounds",
                      "expected")

    @pytest.mark.parametrize("array", ["sku.ring", "dc.totals", "monitor.down",
                                       "drift.day_counts"])
    def test_other_parts_checked(self, half_streamed, tmp_path, array):
        def shrink(arrays):
            arrays[array] = arrays[array][:1].copy()

        self._refused(half_streamed, tmp_path, shrink, array, "expected")


@pytest.fixture(scope="module")
def fitted_model(tiny_run):
    from repro.predict import build_feature_dataset, train_predictor

    dataset = build_feature_dataset(tiny_run, horizon_days=3)
    model, _, _ = train_predictor(dataset, horizon_days=3)
    return model


class TestExtraMonitors:
    """Checkpointing analyzers with attached extra monitors (ISSUE 10
    satellite: resume with a PredictiveMonitor is bit-identical)."""

    def _monitored_analyzer(self, inventory, model):
        from repro.predict import PredictiveMonitor

        analyzer = StreamAnalyzer(
            inventory, sla=AvailabilitySla(0.95),
            spare_fraction=0.02, drift=True,
        )
        analyzer.attach_monitor(
            PredictiveMonitor(inventory, model, threshold=0.6),
        )
        return analyzer

    def test_predictive_monitor_resume_bit_identical(
        self, tiny_run, fitted_model, tmp_path,
    ):
        from repro.predict import PredictiveMonitor

        inventory = StreamInventory.from_result(tiny_run)
        blocks = list(blocks_from_result(tiny_run))
        cut = len(blocks) // 3

        uninterrupted = self._monitored_analyzer(inventory, fitted_model)
        for block in blocks:
            uninterrupted.process_block(block)

        first_leg = self._monitored_analyzer(inventory, fitted_model)
        for block in blocks[:cut]:
            first_leg.process_block(block)
        path = save_checkpoint(first_leg, tmp_path / "p.npz")
        resumed = load_checkpoint(path, inventory, [
            lambda arrays, meta: PredictiveMonitor.from_state(
                inventory, fitted_model, arrays, meta,
            ),
        ])
        for block in blocks[cut:]:
            resumed.process_block(block)

        assert resumed.alerts == uninterrupted.alerts
        assert np.array_equal(resumed.mu_matrix(),
                              uninterrupted.mu_matrix())
        restored = resumed.extra_monitors[0]
        original = uninterrupted.extra_monitors[0]
        assert np.array_equal(restored._flagged, original._flagged)
        assert restored.alerts_emitted == original.alerts_emitted
        assert resumed.summary() == uninterrupted.summary()

    def test_extras_recorded_in_meta(self, tiny_run, fitted_model, tmp_path):
        inventory = StreamInventory.from_result(tiny_run)
        analyzer = self._monitored_analyzer(inventory, fitted_model)
        analyzer.consume_blocks(blocks_from_result(tiny_run), max_events=200)
        path = save_checkpoint(analyzer, tmp_path / "p.npz")
        meta = checkpoint_meta(path)
        assert meta["extras"] == [{"type": "PredictiveMonitor"}]

    def test_missing_factory_refused(self, tiny_run, fitted_model, tmp_path):
        inventory = StreamInventory.from_result(tiny_run)
        analyzer = self._monitored_analyzer(inventory, fitted_model)
        analyzer.consume_blocks(blocks_from_result(tiny_run), max_events=200)
        path = save_checkpoint(analyzer, tmp_path / "p.npz")
        with pytest.raises(DataError, match="PredictiveMonitor"):
            load_checkpoint(path, inventory)

    def test_surplus_factory_refused(self, half_streamed, tmp_path):
        inventory, analyzer = half_streamed
        path = save_checkpoint(analyzer, tmp_path / "c.npz")
        with pytest.raises(DataError, match="0 extra"):
            load_checkpoint(path, inventory,
                            [lambda arrays, meta: None])

    def test_stateless_extra_refused(self, tiny_run, tmp_path):
        class OpaqueMonitor:
            def update_block(self, block):
                return []

            def finish(self):
                return []

        analyzer = StreamAnalyzer(StreamInventory.from_result(tiny_run))
        analyzer.attach_monitor(OpaqueMonitor())
        analyzer.consume_blocks(blocks_from_result(tiny_run), max_events=50)
        with pytest.raises(DataError, match="OpaqueMonitor"):
            save_checkpoint(analyzer, tmp_path / "o.npz")
