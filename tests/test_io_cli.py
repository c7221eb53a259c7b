"""CSV export/import and CLI tests."""


import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.errors import DataError
from repro.telemetry.io import (
    export_inventory_csv,
    export_tickets_csv,
    iter_csv_rows,
    read_csv_table,
)


class TestTicketExport:
    def test_roundtrip_counts_and_fields(self, tiny_run, tmp_path):
        path = tmp_path / "tickets.csv"
        n = export_tickets_csv(tiny_run, path)
        assert n == len(tiny_run.tickets)
        columns = read_csv_table(path)
        assert len(columns["ticket_id"]) == n
        assert set(columns["dc"]) <= {"DC1", "DC2"}
        assert set(columns["category"]) <= {"Hardware", "Software", "Boot", "Others"}

    def test_exported_days_match_log(self, tiny_run, tmp_path):
        path = tmp_path / "tickets.csv"
        export_tickets_csv(tiny_run, path)
        columns = read_csv_table(path)
        days = np.array([int(d) for d in columns["day_index"]])
        assert np.array_equal(days, tiny_run.tickets.day_index)


class TestInventoryExport:
    def test_one_row_per_rack(self, tiny_run, tmp_path):
        path = tmp_path / "inventory.csv"
        n = export_inventory_csv(tiny_run, path)
        assert n == tiny_run.fleet.n_racks
        columns = read_csv_table(path)
        assert len(set(columns["rack_id"])) == n
        assert set(columns["sku"]) <= {f"S{i}" for i in range(1, 8)}


class TestReadCsv:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            read_csv_table(tmp_path / "nope.csv")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_csv_table(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError):
            read_csv_table(path)


class TestIterCsvRows:
    def _write(self, tmp_path, n_rows):
        path = tmp_path / "data.csv"
        path.write_text(
            "a,b\n" + "".join(f"{i},{i * 2}\n" for i in range(n_rows))
        )
        return path

    def test_chunks_bounded_and_complete(self, tmp_path):
        path = self._write(tmp_path, 10)
        chunks = list(iter_csv_rows(path, chunk_rows=4))
        assert [len(rows) for _, rows in chunks] == [4, 4, 2]
        assert all(header == ["a", "b"] for header, _ in chunks)
        flat = [row for _, rows in chunks for row in rows]
        assert flat == [[str(i), str(i * 2)] for i in range(10)]

    def test_header_only_file_yields_empty_chunk(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        assert list(iter_csv_rows(path)) == [(["a", "b"], [])]

    def test_exact_multiple_of_chunk_size(self, tmp_path):
        path = self._write(tmp_path, 8)
        chunks = list(iter_csv_rows(path, chunk_rows=4))
        assert [len(rows) for _, rows in chunks] == [4, 4]

    def test_bad_chunk_rows_rejected(self, tmp_path):
        path = self._write(tmp_path, 2)
        with pytest.raises(DataError, match="chunk_rows"):
            list(iter_csv_rows(path, chunk_rows=0))

    def test_read_csv_table_matches_chunked_reader(self, tiny_run, tmp_path):
        path = tmp_path / "tickets.csv"
        export_tickets_csv(tiny_run, path)
        table = read_csv_table(path)
        rebuilt: dict[str, list[str]] = {}
        for header, rows in iter_csv_rows(path, chunk_rows=7):
            for name in header:
                rebuilt.setdefault(name, [])
            for row in rows:
                for name, cell in zip(header, row):
                    rebuilt[name].append(cell)
        assert rebuilt == table


class TestArgumentValidation:
    def test_negative_jobs_rejected_with_clear_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["simulate", "--jobs", "-2"]
            )
        assert excinfo.value.code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_zero_jobs_means_all_cores_still_allowed(self):
        args = build_parser().parse_args(["simulate", "--jobs", "0"])
        assert args.jobs == 0

    def test_non_integer_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--jobs", "many"])
        assert "invalid" in capsys.readouterr().err

    def test_empty_seeds_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["simulate", "--seeds"])
        assert excinfo.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--seeds", "1", "-3"])
        assert "seeds must be >= 0" in capsys.readouterr().err

    def test_sweep_empty_seeds_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--seeds"])
        assert "--seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["stream", "--jobs", "2"],
        ["stream", "--cache-dir", "store"],
        ["stream", "--no-cache"],
        ["autonomics", "--jobs", "2"],
        ["autonomics", "--cache-dir", "store"],
        ["autonomics", "--no-cache"],
        ["corrupt", "--jobs", "2"],
        ["predict", "train", "--jobs", "2"],
        ["pipeline", "dag", "--jobs", "2"],
    ])
    def test_options_no_command_reads_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig10" in output
        assert "table2" in output

    def test_simulate_command_writes_csvs(self, tmp_path, capsys):
        code = main([
            "simulate", "--seed", "5", "--scale", "0.03", "--days", "60",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "tickets.csv").exists()
        assert (tmp_path / "out" / "inventory.csv").exists()
        assert "RMA tickets" in capsys.readouterr().out

    def test_report_command(self, capsys):
        code = main([
            "report", "fig03", "--seed", "5", "--scale", "0.03",
            "--days", "90",
        ])
        assert code == 0
        assert "day of week" in capsys.readouterr().out

    def test_report_unknown_experiment_rejected(self):
        with pytest.raises(DataError):
            main(["report", "fig99", "--scale", "0.03", "--days", "60"])

    def test_sweep_command(self, capsys):
        code = main([
            "sweep", "--seeds", "9", "--scale", "0.05", "--days", "150",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Robustness sweep" in output
        assert "Q2 SF S2/S4" in output

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_corrupt_command_writes_dataset(self, tmp_path, capsys):
        code = main([
            "corrupt", "--seed", "5", "--scale", "0.03", "--days", "60",
            "--severity", "0.5", "--clean", "--out", str(tmp_path / "fd"),
        ])
        assert code == 0
        for name in ("tickets.csv", "inventory.csv", "sensors.npz"):
            assert (tmp_path / "fd" / name).exists()
        output = capsys.readouterr().out
        assert "corruption pipeline" in output
        assert "cleaning:" in output

    def test_corrupt_severity_zero_matches_simulate(self, tmp_path):
        main([
            "simulate", "--seed", "5", "--scale", "0.03", "--days", "60",
            "--out", str(tmp_path / "plain"),
        ])
        main([
            "corrupt", "--seed", "5", "--scale", "0.03", "--days", "60",
            "--severity", "0", "--out", str(tmp_path / "fd"),
        ])
        plain = (tmp_path / "plain" / "tickets.csv").read_text()
        corrupted = (tmp_path / "fd" / "tickets.csv").read_text()
        assert plain == corrupted

    def test_sweep_noise_command(self, capsys):
        code = main([
            "sweep", "--seeds", "9", "--scale", "0.05", "--days", "150",
            "--noise", "0", "1",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Noise-robustness sweep" in output
        assert "sev=1.00" in output

    def test_sweep_noise_rejects_bad_severity(self):
        with pytest.raises(DataError):
            main([
                "sweep", "--seeds", "9", "--scale", "0.05", "--days", "150",
                "--noise", "2.0",
            ])
