"""Streaming feature extraction: parity, snapshots, checkpoint/resume."""

from __future__ import annotations

import dataclasses
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DataError
from repro.predict.features import (
    PREDICT_FEATURES,
    StreamingFeatures,
    load_feature_state,
    save_feature_state,
)
from repro.stream import StreamInventory, blocks_from_result
from repro.telemetry.schema import FeatureKind
from stream_oracle import ReferenceFeatures, block_events


@pytest.fixture(scope="module")
def inventory(tiny_run) -> StreamInventory:
    return StreamInventory.from_result(tiny_run)


def _assert_state_equal(a: StreamingFeatures, b: StreamingFeatures) -> None:
    state_a, state_b = a.state_arrays(), b.state_arrays()
    assert sorted(state_a) == sorted(state_b)
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name],
                                      err_msg=name)
    assert a.meta() == b.meta()


class TestParity:
    def test_scalar_and_block_paths_bit_identical(self, tiny_run, inventory):
        scalar = ReferenceFeatures(inventory)
        for event in block_events(blocks_from_result(tiny_run)):
            scalar.update(event)
        blocked = StreamingFeatures(inventory)
        for block in blocks_from_result(tiny_run):
            blocked.update_block(block)
        _assert_state_equal(scalar, blocked)

    def test_block_size_does_not_matter(self, tiny_run, inventory):
        coarse = StreamingFeatures(inventory)
        for block in blocks_from_result(tiny_run):
            coarse.update_block(block)
        fine = StreamingFeatures(inventory)
        for block in blocks_from_result(tiny_run, block_size=193):
            fine.update_block(block)
        _assert_state_equal(coarse, fine)

    def test_snapshots_agree_across_paths(self, tiny_run, inventory):
        day = inventory.n_days - 1
        scalar = ReferenceFeatures(inventory)
        for event in block_events(blocks_from_result(tiny_run)):
            scalar.update(event)
        blocked = StreamingFeatures(inventory)
        for block in blocks_from_result(tiny_run):
            blocked.update_block(block)
        left = scalar.feature_arrays(day)
        right = blocked.feature_arrays(day)
        assert sorted(left) == sorted(right)
        for name in left:
            np.testing.assert_array_equal(left[name], right[name],
                                          err_msg=name)


class TestSnapshots:
    def test_snapshot_carries_every_feature(self, tiny_run, inventory):
        features = StreamingFeatures(inventory)
        for block in blocks_from_result(tiny_run):
            features.update_block(block)
        snapshot = features.feature_arrays(inventory.n_days - 1)
        for name in PREDICT_FEATURES:
            assert name in snapshot
            assert len(snapshot[name]) == features.n_servers_total

    def test_snapshot_cannot_rewind(self, inventory):
        features = StreamingFeatures(inventory)
        features.feature_arrays(5)
        with pytest.raises(DataError, match="already at day"):
            features.feature_arrays(3)

    def test_schema_matches_feature_order(self, inventory):
        schema = StreamingFeatures(inventory).feature_schema()
        assert tuple(schema.names) == PREDICT_FEATURES
        assert schema.get("sku").kind is FeatureKind.NOMINAL
        assert schema.get("dc").kind is FeatureKind.NOMINAL
        assert schema.get("trailing_hw").kind is FeatureKind.CONTINUOUS


class TestCheckpoint:
    def test_roundtrip_preserves_state(self, tiny_run, inventory, tmp_path):
        features = StreamingFeatures(inventory)
        blocks = list(blocks_from_result(tiny_run))
        for block in blocks[: len(blocks) // 2 or 1]:
            features.update_block(block)
        path = tmp_path / "features.npz"
        save_feature_state(features, path, events_seen=1234)
        restored, seen = load_feature_state(path, inventory)
        assert seen == 1234
        _assert_state_equal(features, restored)

    def test_inventory_fingerprint_checked(self, tiny_run, inventory,
                                           tmp_path):
        features = StreamingFeatures(inventory)
        path = tmp_path / "features.npz"
        save_feature_state(features, path)
        other = dataclasses.replace(inventory, n_days=inventory.n_days + 1)
        with pytest.raises(DataError, match="fingerprint|inventory"):
            load_feature_state(path, other)

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_damaged_bundle_named(self, tiny_run, inventory, tmp_path,
                                  damage):
        features = StreamingFeatures(inventory)
        features.update_block(next(blocks_from_result(tiny_run)))
        path = tmp_path / "features.npz"
        save_feature_state(features, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] if damage == "truncated"
                         else b"garbage")
        with pytest.raises(DataError, match="corrupt") as raised:
            load_feature_state(path, inventory)
        assert str(path) in str(raised.value)

    @pytest.mark.parametrize("key", ["extractor", "events_seen",
                                     "inventory_fingerprint"])
    def test_missing_meta_key_named(self, inventory, tmp_path, key):
        path = save_feature_state(StreamingFeatures(inventory),
                                  tmp_path / "features.npz")
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
            load_feature_state(tampered, inventory)
        assert str(tampered) in str(raised.value)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_resume_bit_identical_to_continuous(self, tiny_run, inventory,
                                                data):
        """The tentpole resume property: a checkpoint taken at *any*
        event position, restored and fed the remaining stream in *any*
        blocking, ends bit-identical to the uninterrupted run."""
        block_size = data.draw(st.sampled_from((64, 257, 1024, 8192)))
        total = sum(len(b) for b in blocks_from_result(tiny_run))
        split = data.draw(st.integers(min_value=1, max_value=total - 1))

        continuous = StreamingFeatures(inventory)
        for block in blocks_from_result(tiny_run, block_size=block_size):
            continuous.update_block(block)

        prefix = StreamingFeatures(inventory)
        fed = 0
        for block in blocks_from_result(tiny_run, block_size=block_size):
            take = min(len(block), split - fed)
            if take:
                prefix.update_block(block.slice(0, take))
                fed += take
            if fed >= split:
                break
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "features.npz"
            save_feature_state(prefix, path, events_seen=split)
            resumed, seen = load_feature_state(path, inventory)
        assert seen == split
        for block in blocks_from_result(tiny_run, skip=split,
                                        block_size=block_size):
            resumed.update_block(block)

        _assert_state_equal(continuous, resumed)
        day = inventory.n_days - 1
        left = continuous.feature_arrays(day)
        right = resumed.feature_arrays(day)
        for name in left:
            np.testing.assert_array_equal(left[name], right[name],
                                          err_msg=name)
