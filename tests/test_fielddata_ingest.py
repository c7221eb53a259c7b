"""Typed CSV ingestion: round-trip equality and row-level diagnostics."""

import filecmp

import numpy as np
import pytest

from repro.errors import DataError
from repro.fielddata import (
    FieldDataset,
    export_dataset,
    load_field_dataset,
    load_inventory_csv,
    load_tickets_csv,
    standard_pipeline,
)
from repro.fielddata.dataset import TICKET_COLUMN_NAMES
from repro.telemetry.io import export_ticket_log_csv, export_fleet_inventory_csv


def _rewrite_cell(path, row, column_index, value):
    lines = path.read_text().splitlines()
    cells = lines[row - 1].split(",")
    cells[column_index] = value
    lines[row - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TestTicketRoundTrip:
    def test_load_preserves_every_column(self, tiny_run, tmp_path):
        path = tmp_path / "tickets.csv"
        export_ticket_log_csv(tiny_run.tickets, tiny_run.fleet, path)
        loaded = load_tickets_csv(path, tiny_run.fleet)
        for name in ("day_index", "rack_index", "server_offset",
                     "fault_code", "false_positive", "batch_id"):
            assert np.array_equal(getattr(loaded, name),
                                  getattr(tiny_run.tickets, name)), name

    def test_reexport_is_byte_identical(self, tiny_run, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        export_ticket_log_csv(tiny_run.tickets, tiny_run.fleet, first)
        loaded = load_tickets_csv(first, tiny_run.fleet)
        export_ticket_log_csv(loaded, tiny_run.fleet, second)
        assert filecmp.cmp(first, second, shallow=False)

    def test_bad_fault_label_names_the_row(self, tiny_run, tmp_path):
        path = tmp_path / "tickets.csv"
        export_ticket_log_csv(tiny_run.tickets, tiny_run.fleet, path)
        _rewrite_cell(path, row=3, column_index=6, value="Gremlins")
        with pytest.raises(DataError, match="row 3.*fault_type.*Gremlins"):
            load_tickets_csv(path, tiny_run.fleet)

    def test_unknown_rack_names_the_row(self, tiny_run, tmp_path):
        path = tmp_path / "tickets.csv"
        export_ticket_log_csv(tiny_run.tickets, tiny_run.fleet, path)
        _rewrite_cell(path, row=5, column_index=4, value="RACK-NOPE")
        with pytest.raises(DataError, match="row 5"):
            load_tickets_csv(path, tiny_run.fleet)

    def test_inconsistent_dc_rejected(self, tiny_run, tmp_path):
        path = tmp_path / "tickets.csv"
        export_ticket_log_csv(tiny_run.tickets, tiny_run.fleet, path)
        columns = path.read_text().splitlines()
        original_dc = columns[1].split(",")[3]
        other = "DC2" if original_dc == "DC1" else "DC1"
        _rewrite_cell(path, row=2, column_index=3, value=other)
        with pytest.raises(DataError, match="row 2.*belongs to"):
            load_tickets_csv(path, tiny_run.fleet)

    @pytest.mark.parametrize("column, value", [
        ("start_hour_abs", "nan"),
        ("start_hour_abs", "inf"),
        ("start_hour_abs", "-inf"),
        ("repair_hours", "nan"),
        ("repair_hours", "inf"),
        ("repair_hours", "-inf"),
        ("repair_hours", "-1.5"),
    ])
    def test_bad_ticket_time_names_file_row_and_column(
            self, tiny_run, tmp_path, column, value):
        path = tmp_path / "tickets.csv"
        export_ticket_log_csv(tiny_run.tickets, tiny_run.fleet, path)
        header = path.read_text().splitlines()[0].split(",")
        _rewrite_cell(path, row=4, column_index=header.index(column),
                      value=value)
        with pytest.raises(DataError) as error:
            load_tickets_csv(path, tiny_run.fleet)
        message = str(error.value)
        assert str(path) in message
        assert "row 4" in message
        assert repr(column) in message and repr(value) in message

    def test_missing_column_rejected(self, tiny_run, tmp_path):
        path = tmp_path / "tickets.csv"
        path.write_text("day_index,rack_id\n0,R1\n")
        with pytest.raises(DataError, match="missing column"):
            load_tickets_csv(path, tiny_run.fleet)


class TestInventoryRoundTrip:
    def test_plain_export_loads(self, tiny_run, tmp_path):
        path = tmp_path / "inventory.csv"
        export_fleet_inventory_csv(tiny_run.fleet, path)
        inventory = load_inventory_csv(path)
        assert inventory.n_racks == tiny_run.fleet.n_racks
        assert inventory.decommission_day is None
        inventory.validate_against(tiny_run.fleet)

    def test_censored_export_carries_decommission(self, tiny_run, tmp_path):
        path = tmp_path / "inventory.csv"
        decommission = np.full(tiny_run.fleet.n_racks, tiny_run.n_days,
                               dtype=np.int64)
        decommission[0] = 17
        export_fleet_inventory_csv(tiny_run.fleet, path,
                                   decommission_day=decommission)
        inventory = load_inventory_csv(path)
        assert inventory.decommission_day is not None
        assert np.array_equal(inventory.decommission_day, decommission)

    def test_length_mismatch_rejected(self, tiny_run, tmp_path):
        with pytest.raises(DataError):
            export_fleet_inventory_csv(
                tiny_run.fleet, tmp_path / "inv.csv",
                decommission_day=np.array([1, 2, 3], dtype=np.int64),
            )


class TestDatasetRoundTrip:
    def test_corrupted_dataset_round_trips(self, tiny_run, tmp_path):
        dataset = FieldDataset.from_result(tiny_run)
        corrupted, _ = standard_pipeline(0.8, seed=2).apply(dataset)
        paths = export_dataset(corrupted, tmp_path / "a")
        loaded = load_field_dataset(tmp_path / "a", tiny_run.config)
        for name in TICKET_COLUMN_NAMES:
            if name in ("start_hour_abs", "repair_hours"):
                continue  # CSV rounds these to 3 decimals
            assert np.array_equal(getattr(loaded.tickets, name),
                                  getattr(corrupted.tickets, name)), name
        assert np.array_equal(loaded.temp_f, corrupted.temp_f, equal_nan=True)
        assert np.array_equal(loaded.decommission_day,
                              corrupted.decommission_day)
        # second export of the loaded dataset is byte-identical
        paths2 = export_dataset(loaded, tmp_path / "b")
        for key in ("tickets", "inventory"):
            assert filecmp.cmp(paths[key], paths2[key], shallow=False), key

    def test_missing_sensor_bundle_rejected(self, tiny_run, tmp_path):
        dataset = FieldDataset.from_result(tiny_run)
        paths = export_dataset(dataset, tmp_path / "a")
        paths["sensors"].unlink()
        with pytest.raises(DataError, match="sensor bundle"):
            load_field_dataset(tmp_path / "a", tiny_run.config)

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_damaged_sensor_bundle_named(self, tiny_run, tmp_path, damage):
        paths = export_dataset(FieldDataset.from_result(tiny_run),
                               tmp_path / "a")
        data = paths["sensors"].read_bytes()
        paths["sensors"].write_bytes(
            data[: len(data) // 2] if damage == "truncated" else b"garbage")
        with pytest.raises(DataError, match="corrupt") as raised:
            load_field_dataset(tmp_path / "a", tiny_run.config)
        assert str(paths["sensors"]) in str(raised.value)

    def test_wrong_config_rejected(self, tiny_run, tmp_path):
        from repro.config import SimulationConfig

        dataset = FieldDataset.from_result(tiny_run)
        export_dataset(dataset, tmp_path / "a")
        other = SimulationConfig.small(seed=99, scale=0.08, n_days=120)
        with pytest.raises(DataError):
            load_field_dataset(tmp_path / "a", other)
