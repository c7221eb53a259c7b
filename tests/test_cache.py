"""The run cache: the pipeline's ``simulate`` stage on a disk store.

Every command that simulates (``simulate``, ``report``, ``corrupt``,
``predict``, ``sweep``) resolves its run through this one stage, so
these tests pin the store's caching of runs: keying, round-trip
fidelity, self-healing of damaged entries, eviction and the CLI flags.
"""

import json
import time

import numpy as np
import pytest

import repro
from repro.errors import DataError
from repro.pipeline import (
    DEFAULT_MAX_ENTRIES,
    ArtifactStore,
    Pipeline,
    config_key,
    simulate_stage,
)
from repro.pipeline.core import load_run_bundle
from repro.reporting.context import SIMULATE_STAGE
from repro.telemetry.schema import TICKET_LOG_COLUMNS


def stage_key(config):
    """The simulate stage's content key for ``config``."""
    return Pipeline([simulate_stage(config)]).key(SIMULATE_STAGE)


def resolve(config, store):
    """``(result, outcome)`` of the simulate stage on ``store``."""
    pipeline = Pipeline([simulate_stage(config)], store=store)
    result = pipeline.get(SIMULATE_STAGE)
    return result, pipeline.executions[0].outcome


def entry_dir(root, config):
    """Directory of ``config``'s persisted run under store ``root``."""
    return ArtifactStore(root).entry_dir(SIMULATE_STAGE, stage_key(config))


def has(root, config):
    return (entry_dir(root, config) / "meta.json").exists()


def assert_same_run(fresh, cached):
    for column in TICKET_LOG_COLUMNS:
        assert np.array_equal(
            getattr(fresh.tickets, column), getattr(cached.tickets, column)
        ), column
    assert np.array_equal(fresh.environment.temp_f, cached.environment.temp_f)
    assert np.array_equal(fresh.environment.rh, cached.environment.rh)
    assert np.array_equal(fresh.bms.temp_f, cached.bms.temp_f, equal_nan=True)
    assert np.array_equal(fresh.bms.rh, cached.bms.rh, equal_nan=True)
    assert len(fresh.bms.alarms) == len(cached.bms.alarms)
    assert fresh.fleet.n_racks == cached.fleet.n_racks


@pytest.fixture()
def config():
    return repro.SimulationConfig.small(seed=9, scale=0.04, n_days=60)


@pytest.fixture()
def root(tmp_path):
    return tmp_path / "store"


class TestKeying:
    def test_key_is_stable(self, config):
        assert config_key(config) == config_key(config)
        assert stage_key(config) == stage_key(config)
        # Pinned: serve's fleet ids in fleets.json are this hash, so the
        # config payload must not change without a schema bump.
        assert config_key(config) == "184e29f3b9faa3b259cecffe2aecb09c"

    def test_key_changes_with_seed(self, config):
        other = repro.SimulationConfig.small(seed=10, scale=0.04, n_days=60)
        assert config_key(config) != config_key(other)
        assert stage_key(config) != stage_key(other)

    def test_key_changes_with_fleet_knobs(self, config):
        other = repro.SimulationConfig.small(seed=9, scale=0.05, n_days=60)
        assert config_key(config) != config_key(other)
        assert stage_key(config) != stage_key(other)

    def test_key_changes_with_version(self, config, monkeypatch):
        import repro as package

        before = config_key(config), stage_key(config)
        monkeypatch.setattr(package, "__version__", "999.0.0")
        assert config_key(config) != before[0]
        assert stage_key(config) != before[1]


class TestRoundTrip:
    def test_miss_then_hit(self, config, root):
        assert not has(root, config)
        fresh, outcome_a = resolve(config, ArtifactStore(root))
        assert outcome_a == "computed"
        assert has(root, config)
        cached, outcome_b = resolve(config, ArtifactStore(root))
        assert outcome_b == "disk"
        assert_same_run(fresh, cached)

    def test_warm_path_performs_no_simulation(self, config, root,
                                              monkeypatch):
        """A disk hit must never enter the ticket generator."""
        resolve(config, ArtifactStore(root))  # warm

        import repro.failures.engine as engine

        def explode(*args, **kwargs):
            raise AssertionError("warm store path called _generate_tickets")

        monkeypatch.setattr(engine, "_generate_tickets", explode)
        result, outcome = resolve(config, ArtifactStore(root))
        assert outcome == "disk"
        assert len(result.tickets) > 0

    def test_no_cache_is_plain_simulate(self, config, root):
        result, outcome = resolve(config, ArtifactStore())
        assert outcome == "computed"
        assert_same_run(repro.simulate(config), result)
        assert not root.exists()

    def test_corrupt_meta_rejected(self, config, root):
        """A parseable meta.json with the wrong key is a miss: the entry
        is evicted, the run recomputed and the entry rewritten."""
        resolve(config, ArtifactStore(root))
        entry = entry_dir(root, config)
        meta = json.loads((entry / "meta.json").read_text())
        meta["key"] = "f" * 32
        (entry / "meta.json").write_text(json.dumps(meta))
        _, outcome = resolve(config, ArtifactStore(root))
        assert outcome == "computed"
        meta = json.loads((entry / "meta.json").read_text())
        assert meta["key"] == stage_key(config)

    def test_corrupt_bundle_named_in_error(self, config, root):
        resolve(config, ArtifactStore(root))
        entry = entry_dir(root, config)
        meta = json.loads((entry / "meta.json").read_text())
        (entry / "tickets.npz").write_bytes(b"garbage")
        with pytest.raises(DataError, match="corrupt") as raised:
            load_run_bundle(entry, config, meta)
        assert str(entry / "tickets.npz") in str(raised.value)

    def test_truncated_bundle_named_in_error(self, config, root):
        resolve(config, ArtifactStore(root))
        entry = entry_dir(root, config)
        meta = json.loads((entry / "meta.json").read_text())
        bundle = entry / "tickets.npz"
        bundle.write_bytes(bundle.read_bytes()[:2000])
        with pytest.raises(DataError, match="corrupt") as raised:
            load_run_bundle(entry, config, meta)
        assert str(bundle) in str(raised.value)

    def test_garbage_bundle_self_heals(self, config, root):
        fresh, _ = resolve(config, ArtifactStore(root))
        (entry_dir(root, config) / "tickets.npz").write_bytes(b"garbage")
        healed, outcome = resolve(config, ArtifactStore(root))
        assert outcome == "computed"  # corruption counts as a miss...
        assert_same_run(fresh, healed)
        repaired, outcome = resolve(config, ArtifactStore(root))
        assert outcome == "disk"  # ...and the entry is rewritten.
        assert_same_run(fresh, repaired)


class TestEviction:
    def _configs(self, n):
        return [
            repro.SimulationConfig.small(seed=s, scale=0.02, n_days=30)
            for s in range(n)
        ]

    def test_prune_keeps_newest(self, root):
        configs = self._configs(3)
        store = ArtifactStore(root)
        for cfg in configs:
            resolve(cfg, store)
        assert len(store.stage_entries(SIMULATE_STAGE)) == 3
        removed = store.prune(max_entries=1)
        assert removed == 2
        assert not has(root, configs[0])
        assert has(root, configs[2])

    def test_put_auto_prunes(self, root):
        store = ArtifactStore(root, max_entries=1)
        for cfg in self._configs(2):
            resolve(cfg, store)
        assert len(store.stage_entries(SIMULATE_STAGE)) == 1

    def test_default_bound(self, root):
        assert DEFAULT_MAX_ENTRIES >= 1
        assert ArtifactStore(root).max_entries == DEFAULT_MAX_ENTRIES

    def test_clear(self, config, root):
        store = ArtifactStore(root)
        resolve(config, store)
        store.clear()
        assert store.stage_entries(SIMULATE_STAGE) == []
        assert not has(root, config)
        assert resolve(config, store)[1] == "computed"

    def test_negative_prune_rejected(self, config, root):
        store = ArtifactStore(root)
        resolve(config, store)
        with pytest.raises(DataError):
            store.prune(max_entries=-1)


class TestClockInjection:
    def test_default_clock_is_wall_time(self, tmp_path):
        assert ArtifactStore(tmp_path)._clock is time.time

    def test_injected_clock_stamps_metadata(self, root, config):
        ticks = iter([1000.0, 2000.0])
        resolve(config, ArtifactStore(root, clock=lambda: next(ticks)))
        meta = json.loads((entry_dir(root, config) / "meta.json").read_text())
        assert meta["created"] == 1000.0

    def test_fake_clock_makes_put_replayable(self, tmp_path, config):
        """Two stores fed the same fake clock write identical metadata."""
        stamps = []
        for name in ("a", "b"):
            resolve(config, ArtifactStore(tmp_path / name, clock=lambda: 42.5))
            meta = json.loads(
                (entry_dir(tmp_path / name, config) / "meta.json").read_text()
            )
            stamps.append(meta["created"])
        assert stamps == [42.5, 42.5]


class TestCliIntegration:
    ARGS = ["--scale", "0.02", "--days", "30"]

    def test_cache_dir_flag_populates_cache(self, tmp_path, capsys):
        from repro.cli import main

        cache_root = tmp_path / "cc"
        argv = ["simulate", *self.ARGS, "--out", str(tmp_path / "sim"),
                "--cache-dir", str(cache_root)]
        assert main(argv) == 0
        assert len(ArtifactStore(cache_root).stage_entries(SIMULATE_STAGE)) == 1
        capsys.readouterr()

        # Second run hits the store and says so.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "loaded from run cache" in captured.err

    def test_no_cache_flag_bypasses(self, tmp_path, capsys):
        from repro.cli import main

        cache_root = tmp_path / "cc"
        argv = ["simulate", *self.ARGS, "--out", str(tmp_path / "sim"),
                "--cache-dir", str(cache_root), "--no-cache"]
        assert main(argv) == 0
        assert ArtifactStore(cache_root).stage_entries(SIMULATE_STAGE) == []
        captured = capsys.readouterr()
        assert "loaded from run cache" not in captured.err

    def test_report_reuses_the_simulated_run(self, tmp_path, capsys):
        """``simulate`` and ``report`` share one run in one store."""
        from repro.cli import main

        cache_root = tmp_path / "cc"
        assert main(["simulate", *self.ARGS, "--out", str(tmp_path / "sim"),
                     "--cache-dir", str(cache_root)]) == 0
        capsys.readouterr()
        assert main(["report", "table2", *self.ARGS,
                     "--cache-dir", str(cache_root)]) == 0
        assert "(loaded from run cache)" in capsys.readouterr().err
        manifest = json.loads((cache_root / "manifest.json").read_text())
        outcomes = [e["outcome"] for e in manifest["executions"]
                    if e["stage"] == SIMULATE_STAGE]
        assert outcomes == ["disk"]
        assert len(list(cache_root.rglob("tickets.npz"))) == 1

    def test_engine_edit_recomputes_the_run(self, tmp_path, capsys,
                                            monkeypatch):
        """An edit to the engine's source invalidates a stored run."""
        import repro.pipeline.core as core
        from repro.cli import main

        cache_root = tmp_path / "cc"
        argv = ["simulate", *self.ARGS, "--out", str(tmp_path / "sim"),
                "--cache-dir", str(cache_root)]
        assert main(argv) == 0
        capsys.readouterr()
        original = core.source_fingerprint
        monkeypatch.setattr(
            core, "source_fingerprint",
            lambda module: ("edited" if module == "repro.failures.engine"
                            else original(module)),
        )
        assert main(argv) == 0
        assert "loaded from run cache" not in capsys.readouterr().err
        assert len(ArtifactStore(cache_root).stage_entries(SIMULATE_STAGE)) == 2


class TestCrashedWriterHardening:
    """A writer killed mid-``put`` must read back as a miss, not a crash."""

    def test_missing_meta_is_a_miss_and_evicts(self, config, root):
        resolve(config, ArtifactStore(root))
        entry = entry_dir(root, config)
        (entry / "meta.json").unlink()
        stage = simulate_stage(config)
        assert ArtifactStore(root).fetch(stage, stage_key(config)) is None
        assert not entry.exists()

    def test_truncated_meta_is_a_miss_and_evicts(self, config, root):
        resolve(config, ArtifactStore(root))
        entry = entry_dir(root, config)
        (entry / "meta.json").write_text('{"key": "abc123')  # cut mid-write
        stage = simulate_stage(config)
        assert ArtifactStore(root).fetch(stage, stage_key(config)) is None
        assert not entry.exists()

    def test_non_dict_meta_is_a_miss_and_evicts(self, config, root):
        resolve(config, ArtifactStore(root))
        entry = entry_dir(root, config)
        (entry / "meta.json").write_text('["not", "a", "dict"]')
        stage = simulate_stage(config)
        assert ArtifactStore(root).fetch(stage, stage_key(config)) is None
        assert not entry.exists()

    def test_missing_bundle_is_a_miss_and_evicts(self, config, root):
        fresh, _ = resolve(config, ArtifactStore(root))
        entry = entry_dir(root, config)
        (entry / "tickets.npz").unlink()
        stage = simulate_stage(config)
        assert ArtifactStore(root).fetch(stage, stage_key(config)) is None
        assert not entry.exists()
        healed, outcome = resolve(config, ArtifactStore(root))
        assert outcome == "computed"
        assert_same_run(fresh, healed)

    def test_recovers_after_crash(self, config, root):
        fresh, _ = resolve(config, ArtifactStore(root))
        (entry_dir(root, config) / "meta.json").unlink()
        healed, outcome = resolve(config, ArtifactStore(root))
        assert outcome == "computed"  # wreckage counted as a miss...
        assert_same_run(fresh, healed)
        _, outcome = resolve(config, ArtifactStore(root))
        assert outcome == "disk"  # ...and the entry was rewritten cleanly.

    def test_prune_sweeps_half_written_entries(self, config, root):
        store = ArtifactStore(root)
        resolve(config, store)
        wreck = store.stage_dir(SIMULATE_STAGE) / ("0" * 32)
        wreck.mkdir(parents=True)
        (wreck / "tickets.npz").write_bytes(b"partial")  # no meta.json
        assert store.prune(max_entries=8) == 1
        assert not wreck.exists()
        assert len(store.stage_entries(SIMULATE_STAGE)) == 1  # good one stays
