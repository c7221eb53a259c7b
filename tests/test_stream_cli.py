"""`repro stream` end-to-end and the `streaming` experiment."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.reporting import EXPERIMENTS, get_experiment

SIM = ["--seed", "9", "--scale", "0.05", "--days", "60"]
FOLLOW = ["--follow", "--poll-interval", "0", "--max-idle-polls", "1"]


@pytest.fixture(scope="module")
def export_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-stream") / "run"
    assert main(["simulate", *SIM, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def corrupt_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-stream-fd") / "fd"
    assert main(["corrupt", *SIM, "--severity", "0.5", "--out", str(out)]) == 0
    return out


class TestStreamCommand:
    def test_pristine_export_calibrated_zero_alerts(self, export_dir, capsys):
        assert main(["stream", *SIM, "--from", str(export_dir)]) == 0
        captured = capsys.readouterr()
        assert "alerts             : 0" in captured.out
        assert "calibrated spare fraction" in captured.err

    def test_stressed_spares_emit_alerts(self, export_dir, capsys):
        assert main(["stream", *SIM, "--from", str(export_dir),
                     "--spare-fraction", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "[sla-risk]" in out

    def test_corrupt_bundle_streams(self, corrupt_dir, capsys):
        capsys.readouterr()  # drop the export's own output
        base = ["stream", *SIM, "--from", str(corrupt_dir),
                "--spare-fraction", "0.02"]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "events seen" in out and "tickets counted" in out
        # Following the bundle (sensors included) streams the same.
        assert main([*base, *FOLLOW]) == 0
        assert capsys.readouterr().out == out

    def test_checkpoint_resume_matches_one_shot(self, export_dir, tmp_path,
                                                capsys):
        ckpt = tmp_path / "stream.npz"
        assert main(["stream", *SIM, "--from", str(export_dir),
                     "--spare-fraction", "0.01",
                     "--max-events", "500", "--checkpoint", str(ckpt)]) == 0
        first = capsys.readouterr()
        assert "wrote checkpoint" in first.err
        assert ckpt.exists()

        assert main(["stream", *SIM, "--from", str(export_dir),
                     "--resume", str(ckpt)]) == 0
        resumed = capsys.readouterr()
        assert "(resumed at event 500)" in resumed.err

        assert main(["stream", *SIM, "--from", str(export_dir),
                     "--spare-fraction", "0.01"]) == 0
        one_shot = capsys.readouterr()
        assert resumed.out == one_shot.out

    def test_follow_mode_on_static_directory(self, export_dir, tmp_path,
                                             capsys):
        """--follow and --resume … --follow print exactly what one
        pass prints: the followed stream is the one-shot stream."""
        capsys.readouterr()  # drop the export's own output
        base = ["stream", *SIM, "--from", str(export_dir)]
        assert main([*base, "--spare-fraction", "0.01"]) == 0
        one_shot = capsys.readouterr().out

        assert main([*base, "--spare-fraction", "0.01", *FOLLOW]) == 0
        assert capsys.readouterr().out == one_shot

        ckpt = tmp_path / "c.npz"
        assert main([*base, "--spare-fraction", "0.01", "--max-events", "500",
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main([*base, "--resume", str(ckpt), *FOLLOW]) == 0
        assert capsys.readouterr().out == one_shot

    def test_window_hours_flag(self, export_dir, capsys):
        assert main(["stream", *SIM, "--from", str(export_dir),
                     "--spare-fraction", "0.5",
                     "--window-hours", "6"]) == 0
        assert "6h windows" in capsys.readouterr().out

    def test_mismatched_config_rejected(self, export_dir):
        from repro.errors import DataError

        with pytest.raises(DataError):
            main(["stream", "--seed", "9", "--scale", "0.1", "--days", "60",
                  "--from", str(export_dir)])


def _damage(path, how):
    data = path.read_bytes()
    path.write_bytes(data[:2000] if how == "truncated" else b"garbage")


class TestDamagedInputs:
    """Damaged ``.npz`` inputs fail as DataError naming the file."""

    @pytest.mark.parametrize("how", ["truncated", "garbage"])
    def test_damaged_checkpoint_named(self, export_dir, tmp_path, capsys,
                                      how):
        from repro.errors import DataError

        ckpt = tmp_path / "stream.npz"
        assert main(["stream", *SIM, "--from", str(export_dir),
                     "--max-events", "300", "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        _damage(ckpt, how)
        with pytest.raises(DataError, match="corrupt") as raised:
            main(["stream", *SIM, "--from", str(export_dir),
                  "--resume", str(ckpt)])
        assert str(ckpt) in str(raised.value)

    @pytest.mark.parametrize("how", ["truncated", "garbage"])
    def test_damaged_sensor_bundle_named(self, corrupt_dir, tmp_path, how):
        import shutil

        from repro.errors import DataError

        bundle_dir = tmp_path / "fd"
        shutil.copytree(corrupt_dir, bundle_dir)
        sensors = bundle_dir / "sensors.npz"
        _damage(sensors, how)
        with pytest.raises(DataError, match="corrupt") as raised:
            main(["stream", *SIM, "--from", str(bundle_dir),
                  "--spare-fraction", "0.02"])
        assert str(sensors) in str(raised.value)


class TestStreamingExperiment:
    def test_registered(self):
        assert "streaming" in EXPERIMENTS

    def test_renders_and_verifies_contracts(self, tiny_run):
        from repro.reporting import AnalysisContext

        text = get_experiment("streaming").render(AnalysisContext(tiny_run))
        assert "λ bit-identical to batch : yes" in text
        assert "μ bit-identical to batch : yes" in text
        assert "checkpoint/resume exact  : yes" in text
        assert "alerts at calibration    : 0" in text

    def test_listed_by_cli(self, capsys):
        assert main(["list"]) == 0
        assert "streaming" in capsys.readouterr().out
