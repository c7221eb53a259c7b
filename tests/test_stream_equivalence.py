"""The batch-equivalence contract, property-style.

Streaming λ and μ must be *bit-identical* to the batch
`telemetry.aggregate` path on the same data — across randomized ticket
logs (arbitrary row order, correlated batches, false positives, long
repairs, out-of-range spills), window sizes, fault filters, and
arbitrary checkpoint/resume split points.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DataError
from repro.failures.tickets import FAULT_TYPES, HARDWARE_FAULTS, TicketLog
from repro.fielddata import FieldDataset
from repro.stream import (
    EventKind,
    StreamAnalyzer,
    StreamInventory,
    StreamingLambda,
    StreamingMu,
    blocks_from_result,
    load_checkpoint,
    save_checkpoint,
)
from repro.telemetry.aggregate import lambda_matrix, mu_matrix

WINDOW_SIZES = (24.0, 6.0, 1.0, 7.5)


def fold_opens(estimator, result):
    """Fold a run's ticket-open stream into an estimator, block by block."""
    for block in blocks_from_result(result, kinds={EventKind.TICKET_OPEN}):
        estimator.update_block(block)
    return estimator


def random_ticket_log(rng: np.random.Generator, arrays, n_days: int,
                      n_tickets: int) -> TicketLog:
    """A deliberately nasty random log: shuffled row order, shared batch
    ids across racks/days, FP-first batches, zero-length and multi-week
    repairs, intervals spilling past the trace end."""
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
    # Random row order: log ordinals deliberately decorrelated from time.
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
    """tiny_run with its ticket log swapped for randomized logs."""
    arrays = tiny_run.fleet.arrays()
    results = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        log = random_ticket_log(rng, arrays, tiny_run.n_days,
                                n_tickets=400 + seed * 137)
        dataset = FieldDataset.from_result(tiny_run).replace(tickets=log)
        results.append(dataset.to_result(base=tiny_run))
    return results


class TestLambdaEquivalence:
    def test_bit_identical_on_simulated_run(self, tiny_run):
        lam = fold_opens(
            StreamingLambda(tiny_run.fleet.n_racks, tiny_run.n_days),
            tiny_run,
        )
        assert np.array_equal(lam.matrix(), lambda_matrix(tiny_run))

    def test_bit_identical_on_randomized_logs(self, randomized_results):
        for result in randomized_results:
            lam = fold_opens(
                StreamingLambda(result.fleet.n_racks, result.n_days), result,
            )
            assert np.array_equal(lam.matrix(), lambda_matrix(result))

    def test_bit_identical_with_fault_filter(self, randomized_results):
        result = randomized_results[0]
        faults = list(HARDWARE_FAULTS)
        lam = fold_opens(
            StreamingLambda(result.fleet.n_racks, result.n_days,
                            faults=faults),
            result,
        )
        assert np.array_equal(lam.matrix(), lambda_matrix(result, faults))

    def test_bit_identical_without_dedupe(self, randomized_results):
        result = randomized_results[1]
        lam = fold_opens(
            StreamingLambda(result.fleet.n_racks, result.n_days,
                            dedupe_batches=False),
            result,
        )
        assert np.array_equal(
            lam.matrix(), lambda_matrix(result, dedupe_batches=False),
        )


class TestMuEquivalence:
    @pytest.mark.parametrize("window_hours", WINDOW_SIZES)
    def test_bit_identical_on_simulated_run(self, tiny_run, window_hours):
        arrays = tiny_run.fleet.arrays()
        mu = fold_opens(
            StreamingMu(arrays.n_servers, arrays.server_base,
                        tiny_run.n_days, window_hours=window_hours),
            tiny_run,
        )
        assert np.array_equal(mu.matrix(),
                              mu_matrix(tiny_run, window_hours))

    @pytest.mark.parametrize("window_hours", WINDOW_SIZES)
    def test_bit_identical_on_randomized_logs(self, randomized_results,
                                              window_hours):
        for result in randomized_results:
            arrays = result.fleet.arrays()
            mu = fold_opens(
                StreamingMu(arrays.n_servers, arrays.server_base,
                            result.n_days, window_hours=window_hours),
                result,
            )
            assert np.array_equal(mu.matrix(),
                                  mu_matrix(result, window_hours))

    def test_bit_identical_component_mode(self, randomized_results):
        result = randomized_results[2]
        arrays = result.fleet.arrays()
        mu = fold_opens(
            StreamingMu(arrays.n_servers, arrays.server_base,
                        result.n_days, per_server=False),
            result,
        )
        assert np.array_equal(mu.matrix(),
                              mu_matrix(result, per_server=False))

    def test_matrix_readable_at_any_midpoint(self, tiny_run):
        """matrix() mid-stream never disturbs the final answer."""
        arrays = tiny_run.fleet.arrays()
        mu = StreamingMu(arrays.n_servers, arrays.server_base,
                         tiny_run.n_days)
        for block in blocks_from_result(
            tiny_run, kinds={EventKind.TICKET_OPEN}, block_size=97,
        ):
            mu.update_block(block)
            mu.matrix()
        assert np.array_equal(mu.matrix(), mu_matrix(tiny_run))


class TestNonFiniteRepair:
    """A non-finite repair time fails both paths instead of skewing μ.

    The edited ticket is a true-positive hardware ticket on a server that
    files a later one, so its interval would be merged, not dropped.
    """

    @staticmethod
    def _with_bad_repair(result, value):
        log = result.tickets
        arrays = result.fleet.arrays()
        hardware = np.flatnonzero(log.hardware_mask() & ~log.false_positive)
        gid = arrays.server_base[log.rack_index] + log.server_offset
        row = next(
            int(i) for i in hardware
            if np.any((gid[hardware] == gid[i])
                      & (log.start_hour_abs[hardware] > log.start_hour_abs[i]))
        )
        columns = {name: getattr(log, name).copy()
                   for name in TicketLog._COLUMNS}
        columns["repair_hours"][row] = value
        edited = TicketLog()
        edited.append_chunk(**columns)
        edited.finalize()
        dataset = FieldDataset.from_result(result).replace(tickets=edited)
        return dataset.to_result(base=result)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_batch_mu_rejects(self, tiny_run, value):
        result = self._with_bad_repair(tiny_run, value)
        with pytest.raises(DataError, match="non-finite"):
            mu_matrix(result)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_streaming_mu_rejects(self, tiny_run, value):
        result = self._with_bad_repair(tiny_run, value)
        arrays = result.fleet.arrays()
        with pytest.raises(DataError, match="non-finite"):
            fold_opens(
                StreamingMu(arrays.n_servers, arrays.server_base,
                            result.n_days),
                result,
            )


class TestCheckpointResumeEquivalence:
    def _full(self, result, window_hours=24.0):
        analyzer = StreamAnalyzer(
            StreamInventory.from_result(result),
            window_hours=window_hours, spare_fraction=0.01,
        )
        analyzer.consume_blocks(blocks_from_result(result))
        analyzer.finish()
        return analyzer

    def _assert_identical(self, resumed, full):
        assert np.array_equal(resumed.lambda_matrix(), full.lambda_matrix())
        assert np.array_equal(resumed.mu_matrix(), full.mu_matrix())
        assert resumed.alerts == full.alerts
        assert resumed.summary() == full.summary()

    def test_random_split_points(self, tiny_run, tmp_path):
        full = self._full(tiny_run)
        inventory = StreamInventory.from_result(tiny_run)
        rng = np.random.default_rng(7)
        splits = [0, 1, full.events_seen - 1, full.events_seen] + \
            rng.integers(2, full.events_seen - 2, 5).tolist()
        for i, split in enumerate(splits):
            partial = StreamAnalyzer(inventory, spare_fraction=0.01)
            partial.consume_blocks(blocks_from_result(tiny_run),
                                   max_events=split)
            path = save_checkpoint(partial, tmp_path / f"split-{i}.npz")
            resumed = load_checkpoint(path, inventory)
            assert resumed.events_seen == split
            resumed.consume_blocks(blocks_from_result(tiny_run, skip=split))
            resumed.finish()
            self._assert_identical(resumed, full)

    def test_double_checkpoint_chain(self, tiny_run, tmp_path):
        """checkpoint → resume → checkpoint again → resume again."""
        full = self._full(tiny_run)
        inventory = StreamInventory.from_result(tiny_run)
        third = full.events_seen // 3
        a = StreamAnalyzer(inventory, spare_fraction=0.01)
        a.consume_blocks(blocks_from_result(tiny_run), max_events=third)
        b = load_checkpoint(save_checkpoint(a, tmp_path / "a.npz"), inventory)
        b.consume_blocks(blocks_from_result(tiny_run, skip=b.events_seen),
                         max_events=third)
        c = load_checkpoint(save_checkpoint(b, tmp_path / "b.npz"), inventory)
        c.consume_blocks(blocks_from_result(tiny_run, skip=c.events_seen))
        c.finish()
        self._assert_identical(c, full)

    def test_randomized_log_with_hourly_windows(self, randomized_results,
                                                tmp_path):
        result = randomized_results[0]
        inventory = StreamInventory.from_result(result)
        full = self._full(result, window_hours=1.0)
        split = full.events_seen // 2
        partial = StreamAnalyzer(inventory, window_hours=1.0,
                                 spare_fraction=0.01)
        partial.consume_blocks(blocks_from_result(result), max_events=split)
        resumed = load_checkpoint(
            save_checkpoint(partial, tmp_path / "r.npz"), inventory,
        )
        resumed.consume_blocks(blocks_from_result(result, skip=split))
        resumed.finish()
        self._assert_identical(resumed, full)
        assert np.array_equal(resumed.mu_matrix(), mu_matrix(result, 1.0))

    def test_resume_rejects_wrong_position(self, tiny_run):
        from repro.errors import DataError

        analyzer = StreamAnalyzer(StreamInventory.from_result(tiny_run))
        blocks = blocks_from_result(tiny_run, block_size=1)
        analyzer.process_block(next(blocks))
        next(blocks)  # drop one → gap
        with pytest.raises(DataError, match="position"):
            analyzer.process_block(next(blocks))
