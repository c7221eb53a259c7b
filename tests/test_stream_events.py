"""Event model and block sources: ordering, filtering, skip, follow."""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.config import FleetConfig, SimulationConfig
from repro.errors import DataError
from repro.stream import (
    ALL_KINDS,
    EventKind,
    StreamInventory,
    blocks_from_directory,
    blocks_from_parts,
    blocks_from_result,
    follow_directory,
)
from repro.stream.blocks import KIND_RANK
from repro.telemetry.io import export_inventory_csv, export_tickets_csv
from stream_oracle import CloseHeap, Event, block_events, close_of


@pytest.fixture(scope="module")
def tiny_events(tiny_run):
    return block_events(blocks_from_result(tiny_run))


class TestStreamOrder:
    def test_seq_is_contiguous_from_zero(self, tiny_events):
        assert [e.seq for e in tiny_events] == list(range(len(tiny_events)))

    def test_total_order_time_then_kind_rank(self, tiny_events):
        keys = [(e.time_hours, KIND_RANK[e.kind]) for e in tiny_events]
        assert keys == sorted(keys)

    def test_all_kinds_present(self, tiny_events):
        assert {e.kind for e in tiny_events} == set(ALL_KINDS)

    def test_every_open_has_exactly_one_close(self, tiny_events):
        opens = [e for e in tiny_events if e.kind is EventKind.TICKET_OPEN]
        closes = [e for e in tiny_events if e.kind is EventKind.TICKET_CLOSE]
        assert sorted(e.ticket_ordinal for e in opens) == \
            sorted(e.ticket_ordinal for e in closes)

    def test_close_carries_open_payload_at_end_hour(self, tiny_events):
        opens = {e.ticket_ordinal: e for e in tiny_events
                 if e.kind is EventKind.TICKET_OPEN}
        for close in tiny_events:
            if close.kind is not EventKind.TICKET_CLOSE:
                continue
            source = opens[close.ticket_ordinal]
            assert close.time_hours == source.end_hour_abs
            assert close.rack_index == source.rack_index
            assert close.fault_code == source.fault_code

    def test_sensor_events_one_per_rack_day(self, tiny_run, tiny_events):
        sensors = [e for e in tiny_events if e.kind is EventKind.SENSOR_SAMPLE]
        assert len(sensors) == tiny_run.n_days * tiny_run.fleet.n_racks

    def test_inventory_events_commission_each_rack(self, tiny_run, tiny_events):
        changes = [e for e in tiny_events
                   if e.kind is EventKind.INVENTORY_CHANGE]
        assert len(changes) == tiny_run.fleet.n_racks
        assert all(e.value == 1.0 for e in changes)

    def test_deterministic_across_passes(self, tiny_run, tiny_events):
        assert block_events(blocks_from_result(tiny_run)) == tiny_events


class TestKindsAndSkip:
    def test_kind_filter_preserves_global_numbering(self, tiny_run, tiny_events):
        wanted = {EventKind.TICKET_OPEN, EventKind.TICKET_CLOSE}
        filtered = block_events(blocks_from_result(tiny_run, kinds=wanted))
        expected = [e for e in tiny_events if e.kind in wanted]
        # Ticket-only streams renumber densely (no inventory/sensor slots).
        assert [e.kind for e in filtered] == [e.kind for e in expected]
        assert [e.time_hours for e in filtered] == \
            [e.time_hours for e in expected]

    def test_skip_yields_identical_suffix(self, tiny_run, tiny_events):
        for skip in (0, 1, 1000, len(tiny_events) - 1, len(tiny_events)):
            assert block_events(blocks_from_result(tiny_run, skip=skip)) == \
                tiny_events[skip:]

    def test_empty_kinds_rejected(self, tiny_run):
        with pytest.raises(DataError, match="kinds"):
            list(blocks_from_result(tiny_run, kinds=[]))


class TestCloseHeap:
    """The order oracle's pending-close heap."""

    def _open(self, seq, t, repair, ordinal=0):
        return Event(seq=seq, time_hours=t, kind=EventKind.TICKET_OPEN,
                     repair_hours=repair, ticket_ordinal=ordinal)

    def test_pops_strictly_before_key(self):
        heap = CloseHeap()
        heap.push(self._open(0, 0.0, 5.0))
        open_rank = KIND_RANK[EventKind.TICKET_OPEN]
        assert list(heap.pop_due(5.0, open_rank)) == []  # close rank > open
        assert len(heap) == 1
        due = list(heap.pop_due(6.0, open_rank))
        assert len(due) == 1 and due[0].time_hours == 5.0

    def test_drain_orders_by_time_then_ordinal(self):
        heap = CloseHeap()
        heap.push(self._open(0, 0.0, 7.0, ordinal=4))
        heap.push(self._open(1, 1.0, 6.0, ordinal=2))
        heap.push(self._open(2, 2.0, 1.0, ordinal=9))
        drained = [(e.time_hours, e.ticket_ordinal) for e in heap.drain()]
        assert drained == [(3.0, 9), (7.0, 2), (7.0, 4)]

    def test_close_of_flips_kind_and_time(self):
        close = close_of(self._open(3, 2.0, 4.5))
        assert close.kind is EventKind.TICKET_CLOSE
        assert close.time_hours == 6.5


class TestStreamInventory:
    def test_fingerprint_stable_and_shape_sensitive(self, tiny_run):
        a = StreamInventory.from_result(tiny_run)
        b = StreamInventory.from_result(tiny_run)
        assert a.fingerprint() == b.fingerprint()
        import dataclasses

        shorter = dataclasses.replace(a, n_days=a.n_days - 1)
        assert shorter.fingerprint() != a.fingerprint()

    def test_field_dataset_keeps_censoring(self, tiny_run):
        from repro.fielddata import FieldDataset

        dataset = FieldDataset.from_result(tiny_run)
        decommission = dataset.decommission_day.copy()
        decommission[0] = 7
        inventory = StreamInventory.from_fleet(
            dataset.fleet, dataset.n_days, decommission_day=decommission,
        )
        assert inventory.decommission_day[0] == 7
        events = block_events(blocks_from_parts(
            inventory, tickets=dataset.tickets,
            kinds={EventKind.INVENTORY_CHANGE},
        ))
        exits = [e for e in events if e.value == -1.0]
        assert len(exits) == 1 and exits[0].rack_index == 0
        assert exits[0].time_hours == 7 * 24.0


class TestDirectoryFlattening:
    @pytest.fixture(scope="class")
    def export_dir(self, tiny_run, tmp_path_factory):
        out = tmp_path_factory.mktemp("stream-export")
        export_tickets_csv(tiny_run, out / "tickets.csv")
        export_inventory_csv(tiny_run, out / "inventory.csv")
        return out

    def test_matches_in_memory_ticket_counts(self, tiny_run, export_dir):
        tickets = {EventKind.TICKET_OPEN, EventKind.TICKET_CLOSE}
        from_csv = block_events(blocks_from_directory(
            export_dir, tiny_run.config, kinds=tickets,
        ))
        in_memory = block_events(blocks_from_result(tiny_run, kinds=tickets))
        assert len(from_csv) == len(in_memory)

        # CSV rounds hours to 3 decimals, which can swap near-tied
        # open/close interleavings; per-ticket payload identity is on
        # the integer columns, keyed by log ordinal.
        def opens_by_ordinal(events):
            return {
                e.ticket_ordinal:
                    (e.rack_index, e.day_index, e.fault_code, e.batch_id,
                     e.false_positive, e.server_offset)
                for e in events if e.kind is EventKind.TICKET_OPEN
            }

        assert opens_by_ordinal(from_csv) == opens_by_ordinal(in_memory)

    def test_sensor_bundle_optional(self, export_dir, tiny_run):
        events = block_events(blocks_from_directory(export_dir,
                                                    tiny_run.config))
        assert not any(e.kind is EventKind.SENSOR_SAMPLE for e in events)

    def test_missing_tickets_csv_raises(self, tmp_path, tiny_run, export_dir):
        (tmp_path / "inventory.csv").write_bytes(
            (export_dir / "inventory.csv").read_bytes()
        )
        with pytest.raises(DataError):
            list(blocks_from_directory(tmp_path, tiny_run.config))


SIM = ["--seed", "9", "--scale", "0.05", "--days", "60"]
SIM_CONFIG = SimulationConfig(
    seed=9, n_days=60, fleet=FleetConfig(scale=0.05, observation_days=60),
)


@pytest.fixture(scope="module")
def follow_exports(tmp_path_factory):
    """A plain ``simulate`` export and a ``corrupt`` one with sensors."""
    root = tmp_path_factory.mktemp("follow")
    assert main(["simulate", *SIM, "--out", str(root / "plain")]) == 0
    assert main(["corrupt", *SIM, "--severity", "0.5",
                 "--out", str(root / "corrupt")]) == 0
    assert (root / "corrupt" / "sensors.npz").exists()
    return [root / "plain", root / "corrupt"]


def _records(blocks) -> tuple[bytes, list[int]]:
    """All records as bytes (NaN readings compare by bit pattern) plus
    each block's ``(start_seq, end_seq)``."""
    blocks = list(blocks)
    return (b"".join(block.data.tobytes() for block in blocks),
            [(block.start_seq, block.end_seq) for block in blocks])


class _GrowingExport:
    """A copy of an export whose ``tickets.csv`` grows at every poll."""

    def __init__(self, source: Path, out: Path, schedule: list[int]):
        for name in ("inventory.csv", "sensors.npz"):
            if (source / name).exists():
                shutil.copy(source / name, out / name)
        self.lines = (source / "tickets.csv").read_text().splitlines(
            keepends=True)
        self.path = out / "tickets.csv"
        self.schedule = iter(schedule)
        self.grow()

    def write(self, n_rows: int, tail: str = "") -> None:
        self.path.write_text("".join(self.lines[:1 + n_rows]) + tail,
                             newline="")

    def grow(self, _interval: float = 0.0) -> None:
        n_rows = next(self.schedule, None)
        if n_rows is not None:
            self.write(n_rows)


class TestFollowDirectory:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_followed_records_equal_one_shot(self, follow_exports, data):
        """Whatever the append schedule and resume point, following a
        growing export yields one-shot's records byte for byte, with
        the same seq numbering."""
        fractions = data.draw(st.lists(
            st.floats(0.0, 1.0, exclude_max=True), max_size=7, unique=True,
        ))
        skip_fraction = data.draw(st.floats(0.0, 1.0))
        for source in follow_exports:
            one_shot, spans = _records(blocks_from_directory(source,
                                                             SIM_CONFIG))
            total = spans[-1][1]
            skip = int(skip_fraction * total)
            expected, _ = _records(blocks_from_directory(source, SIM_CONFIG,
                                                         skip=skip))
            n_rows = len((source / "tickets.csv").read_text().splitlines()) - 1
            schedule = sorted({int(f * n_rows) for f in fractions}) + [n_rows]
            with tempfile.TemporaryDirectory() as tmp:
                export = _GrowingExport(source, Path(tmp), schedule)
                followed, spans = _records(follow_directory(
                    tmp, SIM_CONFIG, poll_interval=0.0, max_idle_polls=2,
                    sleep=export.grow, skip=skip,
                ))
            assert followed == expected
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            if skip < total:
                assert spans[0][0] == skip and spans[-1][1] == total
            else:
                assert spans == []

    def test_out_of_order_append_rejected(self, tiny_run, tmp_path):
        export_tickets_csv(tiny_run, tmp_path / "tickets.csv")
        export_inventory_csv(tiny_run, tmp_path / "inventory.csv")
        lines = (tmp_path / "tickets.csv").read_text().splitlines(keepends=True)
        # Append a copy of an early row: its start hour precedes the tail.
        (tmp_path / "tickets.csv").write_text(
            "".join(lines) + lines[1], newline=""
        )
        with pytest.raises(DataError, match="start-time order"):
            list(follow_directory(
                tmp_path, tiny_run.config,
                poll_interval=0.0, max_idle_polls=1, sleep=lambda _: None,
            ))

    def test_malformed_appended_row_rejected(self, follow_exports, tmp_path):
        source = follow_exports[0]
        n_rows = len((source / "tickets.csv").read_text().splitlines()) - 1
        export = _GrowingExport(source, tmp_path, [n_rows // 2])
        header = export.lines[0].rstrip("\n").split(",")
        row = export.lines[n_rows // 2 + 1].rstrip("\n").split(",")
        row[header.index("server_offset")] = "not-a-number"

        def append_bad_row(_interval):
            export.write(n_rows // 2, ",".join(row) + "\n")

        with pytest.raises(DataError) as error:
            list(follow_directory(
                tmp_path, SIM_CONFIG, poll_interval=0.0, max_idle_polls=2,
                sleep=append_bad_row,
            ))
        assert "tickets.csv" in str(error.value)
        assert f"row {n_rows // 2 + 2}" in str(error.value)

    def test_close_before_released_events_rejected(self, follow_exports,
                                                   tmp_path):
        """A ticket whose close precedes what was already streamed (a
        negative repair) cannot be followed exactly: refused at ingest,
        naming the appended row and its column."""
        source = follow_exports[0]
        n_rows = len((source / "tickets.csv").read_text().splitlines()) - 1
        export = _GrowingExport(source, tmp_path, [n_rows // 2])
        header = export.lines[0].rstrip("\n").split(",")
        row = export.lines[n_rows // 2 + 1].rstrip("\n").split(",")
        row[header.index("repair_hours")] = "-1000.0"

        def append_row(_interval):
            export.write(n_rows // 2, ",".join(row) + "\n")

        with pytest.raises(
            DataError,
            match=f"row {n_rows // 2 + 2}: column 'repair_hours': '-1000.0'",
        ):
            list(follow_directory(
                tmp_path, SIM_CONFIG, poll_interval=0.0, max_idle_polls=2,
                sleep=append_row,
            ))
