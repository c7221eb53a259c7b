"""The columnar event core's equivalence contracts, property-style.

Two layers of bit-identity, exercised over deliberately nasty
randomized ticket logs, at chunk sizes down to one event per block:

1. :func:`~repro.stream.blocks.blocks_from_parts` must match the
   generator-based heap merge kept as the order oracle in
   ``stream_oracle.flatten_parts_merged``, record for record — across
   kind filters, skip offsets and chunk boundaries;
2. every consumer's vectorized ``update_block`` must land on the same
   state under any blocking: λ and μ equal the batch matrices, and the
   consumers without a batch counterpart equal their per-event
   references in ``stream_oracle`` — counters, alert sequences,
   checkpoint bundles.

Plus the spill format (``BlockSegment`` save/load/mmap roundtrip), the
interning pool, the pipeline ``blocks`` codec, and the chunked CSV
reader's error context.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.decisions.availability import AvailabilitySla
from repro.errors import DataError
from repro.failures.tickets import FAULT_TYPES, TicketLog
from repro.fielddata import FieldDataset
from repro.stream import (
    BlockSegment,
    EventKind,
    StreamAnalyzer,
    StreamInventory,
    StreamingGroupCounts,
    StreamingLambda,
    StreamingMu,
    StringPool,
    blocks_from_parts,
    blocks_from_result,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.triggers import RateDriftDetector, SlaRiskMonitor
from repro.telemetry.aggregate import lambda_matrix, mu_matrix
from repro.telemetry.io import iter_csv_rows
from stream_oracle import (
    ReferenceDriftDetector,
    ReferenceGroupCounts,
    ReferenceSlaRiskMonitor,
    block_events,
    flatten_parts_merged,
)

BLOCK_SIZES = (1, 7, 64, 8192)


def random_ticket_log(rng: np.random.Generator, arrays, n_days: int,
                      n_tickets: int) -> TicketLog:
    """Shuffled row order, shared batches, FPs, long and zero repairs."""
    n_racks = arrays.n_racks
    rack = rng.integers(0, n_racks, n_tickets)
    day = rng.integers(0, n_days, n_tickets)
    start = day * 24.0 + rng.uniform(0.0, 24.0, n_tickets)
    offset = np.array([
        rng.integers(0, arrays.n_servers[r]) for r in rack
    ], dtype=np.int64)
    fault = rng.integers(0, len(FAULT_TYPES), n_tickets)
    fp = rng.random(n_tickets) < 0.25
    repair = np.where(
        rng.random(n_tickets) < 0.1, 0.0,
        rng.exponential(30.0, n_tickets),
    )
    batch = np.where(
        rng.random(n_tickets) < 0.35,
        rng.integers(0, max(n_tickets // 6, 1), n_tickets),
        -1,
    )
    log = TicketLog()
    log.append_chunk(
        day_index=day.astype(np.int64),
        start_hour_abs=start,
        rack_index=rack.astype(np.int64),
        server_offset=offset,
        fault_code=fault.astype(np.int64),
        false_positive=fp,
        repair_hours=repair,
        batch_id=batch.astype(np.int64),
    )
    log.finalize()
    return log


@pytest.fixture(scope="module")
def randomized_results(tiny_run):
    arrays = tiny_run.fleet.arrays()
    results = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        log = random_ticket_log(rng, arrays, tiny_run.n_days,
                                n_tickets=400 + seed * 137)
        dataset = FieldDataset.from_result(tiny_run).replace(tickets=log)
        results.append(dataset.to_result(base=tiny_run))
    return results


def _parts(result):
    return dict(
        inventory=StreamInventory.from_result(result),
        tickets=result.tickets,
        temp_f=result.bms.temp_f,
        rh=result.bms.rh,
    )


class TestEventViewEquivalence:
    """Blocks ≡ the heap-merge order oracle, record for record."""

    def test_identical_across_block_sizes(self, randomized_results):
        for result in randomized_results:
            parts = _parts(result)
            reference = list(flatten_parts_merged(**parts))
            for block_size in BLOCK_SIZES:
                view = block_events(blocks_from_parts(
                    **parts, block_size=block_size,
                ))
                assert view == reference

    def test_identical_under_kind_filters(self, randomized_results):
        result = randomized_results[0]
        parts = _parts(result)
        for kinds in (
            {EventKind.TICKET_OPEN},
            {EventKind.TICKET_OPEN, EventKind.TICKET_CLOSE},
            {EventKind.TICKET_CLOSE},
            {EventKind.INVENTORY_CHANGE, EventKind.SENSOR_SAMPLE},
        ):
            reference = list(flatten_parts_merged(**parts, kinds=kinds))
            view = block_events(blocks_from_parts(**parts, kinds=kinds,
                                                  block_size=7))
            assert view == reference

    def test_identical_at_every_skip_class(self, randomized_results):
        """Resume offsets on, before and after chunk boundaries."""
        result = randomized_results[1]
        parts = _parts(result)
        reference = list(flatten_parts_merged(**parts))
        total = len(reference)
        for skip in (0, 1, 63, 64, 65, total // 2, total - 1, total):
            view = block_events(blocks_from_parts(**parts, skip=skip,
                                                  block_size=64))
            assert view == reference[skip:]

    def test_blocks_carry_absolute_seq(self, randomized_results):
        result = randomized_results[2]
        parts = _parts(result)
        position = 11
        for block in blocks_from_parts(**parts, skip=11, block_size=13):
            assert block.start_seq == position
            assert np.array_equal(
                block.seq,
                np.arange(position, position + len(block)),
            )
            position = block.end_seq

    def test_flatten_result_matches_reference(self, tiny_run):
        reference = list(flatten_parts_merged(**_parts(tiny_run)))
        assert block_events(blocks_from_result(tiny_run)) == reference


class TestUpdateBlockEquivalence:
    """update_block under any blocking ≡ the batch path, or (for the
    consumers without one) ≡ the per-event oracle, bit for bit."""

    def _events_and_blocks(self, result, block_size, kinds=(EventKind.TICKET_OPEN,)):
        events = list(flatten_parts_merged(**_parts(result), kinds=kinds))
        blocks = list(blocks_from_parts(**_parts(result), kinds=kinds,
                                        block_size=block_size))
        return events, blocks

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_streaming_lambda(self, randomized_results, block_size):
        for result in randomized_results:
            columnar = StreamingLambda(result.fleet.n_racks, result.n_days)
            for block in blocks_from_parts(**_parts(result),
                                           block_size=block_size):
                columnar.update_block(block)
            expected = lambda_matrix(result)
            assert np.array_equal(columnar.matrix(), expected)
            assert columnar.events_counted == expected.sum()

    @pytest.mark.parametrize("per_server", (True, False))
    def test_streaming_mu(self, randomized_results, per_server):
        for result in randomized_results:
            arrays = result.fleet.arrays()
            columnar = StreamingMu(arrays.n_servers, arrays.server_base,
                                   result.n_days, window_hours=6.0,
                                   per_server=per_server)
            for block in blocks_from_parts(**_parts(result), block_size=37):
                columnar.update_block(block)
            assert np.array_equal(
                columnar.matrix(),
                mu_matrix(result, 6.0, per_server=per_server),
            )

    def test_streaming_group_counts(self, randomized_results):
        for result in randomized_results:
            inventory = StreamInventory.from_result(result)
            events, blocks = self._events_and_blocks(result, block_size=19)
            scalar = ReferenceGroupCounts(inventory.sku_code,
                                          inventory.sku_names)
            for event in events:
                scalar.update(event)
            columnar = StreamingGroupCounts(inventory.sku_code,
                                            inventory.sku_names)
            for block in blocks:
                columnar.update_block(block)
            assert np.array_equal(scalar.totals, columnar.totals)
            assert np.array_equal(scalar.trailing_counts(),
                                  columnar.trailing_counts())

    @pytest.mark.parametrize("spare_fraction", (0.0, 0.02, 0.2))
    def test_sla_monitor(self, randomized_results, spare_fraction):
        kinds = {EventKind.TICKET_OPEN, EventKind.TICKET_CLOSE}
        for result in randomized_results:
            inventory = StreamInventory.from_result(result)
            events, blocks = self._events_and_blocks(result, block_size=23, kinds=kinds)
            sla = AvailabilitySla(0.999)
            scalar = ReferenceSlaRiskMonitor(inventory, sla, spare_fraction)
            scalar_alerts = []
            for event in events:
                scalar_alerts.extend(scalar.update(event))
            columnar = SlaRiskMonitor(inventory, sla, spare_fraction)
            columnar_alerts = []
            for block in blocks:
                columnar_alerts.extend(
                    alert for _, alert in columnar.update_block(block))
            assert scalar_alerts == columnar_alerts
            for name, array in scalar.state_arrays().items():
                assert np.array_equal(array, columnar.state_arrays()[name])

    def test_drift_detector(self, randomized_results):
        for result in randomized_results:
            events, blocks = self._events_and_blocks(result, block_size=29)
            scalar = ReferenceDriftDetector(result.n_days, ratio=1.5,
                                            min_excess=2.0)
            scalar_alerts = []
            for event in events:
                scalar_alerts.extend(scalar.update(event))
            columnar = RateDriftDetector(result.n_days, ratio=1.5,
                                         min_excess=2.0)
            columnar_alerts = []
            for block in blocks:
                columnar_alerts.extend(
                    alert for _, alert in columnar.update_block(block))
            assert scalar_alerts == columnar_alerts
            for name, array in scalar.state_arrays().items():
                assert np.array_equal(array, columnar.state_arrays()[name])

    @pytest.mark.parametrize("block_size", (1, 17, 8192))
    def test_analyzer_end_to_end(self, randomized_results, block_size):
        """Summary and alerts do not depend on the blocking: one-record
        blocks (the event-at-a-time order) agree with any other size,
        and λ/μ equal the batch matrices."""
        for result in randomized_results:
            inventory = StreamInventory.from_result(result)

            def run(size):
                analyzer = StreamAnalyzer(inventory,
                                          sla=AvailabilitySla(0.999),
                                          spare_fraction=0.05)
                analyzer.consume_blocks(blocks_from_parts(
                    **_parts(result), block_size=size,
                ))
                analyzer.finish()
                return analyzer

            reference = run(1)
            columnar = run(block_size)
            assert columnar.summary() == reference.summary()
            assert columnar.alerts == reference.alerts
            assert np.array_equal(columnar.lambda_matrix(),
                                  lambda_matrix(result))
            assert np.array_equal(columnar.mu_matrix(), mu_matrix(result))

    def test_checkpoint_split_mid_block(self, randomized_results, tmp_path):
        """Resume from a split that falls inside a block."""
        result = randomized_results[0]
        inventory = StreamInventory.from_result(result)

        def analyzer():
            return StreamAnalyzer(inventory, sla=AvailabilitySla(0.999),
                                  spare_fraction=0.05)

        single = analyzer()
        single.consume_blocks(blocks_from_parts(**_parts(result),
                                                block_size=64))
        single.finish()

        split = 5 * 64 + 17
        partial = analyzer()
        partial.consume_blocks(
            blocks_from_parts(**_parts(result), block_size=64),
            max_events=split,
        )
        assert partial.events_seen == split
        path = save_checkpoint(partial, tmp_path / "mid.ckpt.npz")
        resumed = load_checkpoint(path, inventory)
        assert resumed.blocks_seen == partial.blocks_seen
        resumed.consume_blocks(blocks_from_parts(
            **_parts(result), skip=resumed.events_seen, block_size=64,
        ))
        resumed.finish()
        assert resumed.summary() == single.summary()
        assert resumed.alerts == single.alerts


class TestBlockSegment:
    def test_save_load_roundtrip_bit_identical(self, tiny_run, tmp_path):
        segment = BlockSegment.from_blocks(blocks_from_result(tiny_run))
        path = tmp_path / "trace.npz"
        segment.save(path)
        back = BlockSegment.load(path)
        assert back.records.tobytes() == segment.records.tobytes()
        assert back.start_seq == segment.start_seq
        assert back.n_events == segment.n_events
        # Loaded records are backed by a memory map, not a copy.
        base = back.records
        while not isinstance(base, np.memmap) and base.base is not None:
            base = base.base
        assert isinstance(base, np.memmap)

    def test_iteration_preserves_stream(self, tiny_run, tmp_path):
        reference = list(flatten_parts_merged(**_parts(tiny_run)))
        BlockSegment.from_blocks(
            blocks_from_result(tiny_run), block_size=101,
        ).save(tmp_path / "spill.npz")
        spilled = BlockSegment.load(tmp_path / "spill.npz")
        assert block_events(spilled) == reference

    def test_pools_survive_roundtrip(self, tiny_run, tmp_path):
        inventory = StreamInventory.from_result(tiny_run)
        segment = BlockSegment.from_blocks(
            blocks_from_result(tiny_run),
            pools=inventory.label_pools(),
        )
        path = tmp_path / "pools.npz"
        segment.save(path)
        back = BlockSegment.load(path)
        assert set(back.pools) == set(segment.pools)
        for name, labels in segment.pools.items():
            assert tuple(back.pools[name]) == tuple(labels)

    def test_non_contiguous_blocks_refused(self, tiny_run):
        blocks = list(blocks_from_result(tiny_run, block_size=64))
        with pytest.raises(DataError, match="not contiguous"):
            BlockSegment.from_blocks([blocks[0], blocks[2]])

    def test_corrupt_segment_refused(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, events=np.zeros(3))
        with pytest.raises(DataError):
            BlockSegment.load(path)


class TestStringPool:
    def test_intern_dedupes_and_preserves_order(self):
        pool = StringPool()
        codes = [pool.intern(s) for s in ("r0", "r1", "r0", "r2", "r1")]
        assert codes == [0, 1, 0, 2, 1]
        assert pool.labels == ("r0", "r1", "r2")
        assert pool.code_of("r2") == 2

    def test_encode_decode_roundtrip(self):
        pool = StringPool(("a", "b"))
        codes = pool.encode(["b", "a", "b", "c"])
        assert codes.tolist() == [1, 0, 1, 2]
        assert pool.decode(codes) == ("b", "a", "b", "c")


class TestBlocksPipelineStage:
    def test_event_blocks_stage_cold_and_warm(self, tmp_path):
        from repro.config import SimulationConfig
        from repro.pipeline.core import ArtifactStore
        from repro.pipeline.stages import (
            EVENT_BLOCKS_STAGE,
            build_report_pipeline,
        )

        config = SimulationConfig.small(seed=9, scale=0.05, n_days=60)
        cold = build_report_pipeline(
            config, store=ArtifactStore(tmp_path), experiment_ids=[],
        )
        segment = cold.get(EVENT_BLOCKS_STAGE)
        warm = build_report_pipeline(
            config, store=ArtifactStore(tmp_path), experiment_ids=[],
        )
        reloaded = warm.get(EVENT_BLOCKS_STAGE)
        assert reloaded.records.tobytes() == segment.records.tobytes()
        assert reloaded.start_seq == segment.start_seq


class TestCsvErrorContext:
    def test_ragged_row_names_file_and_absolute_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = ["a,b"] + [f"{i},{i}" for i in range(9)] + ["lonely"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as error:
            for _header, _rows in iter_csv_rows(path, chunk_rows=4):
                pass
        message = str(error.value)
        # Row 10 sits in the third chunk; the number must be absolute.
        assert "bad.csv" in message
        assert "ragged row 10" in message
