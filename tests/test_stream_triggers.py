"""Decision triggers: SLA-risk calibration contract and drift detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.decisions.availability import AvailabilitySla
from repro.errors import DataError
from repro.failures.tickets import FAULT_CODE, FaultType
from repro.fielddata import FieldDataset, standard_pipeline
from repro.stream import (
    AlertKind,
    RateDriftDetector,
    SlaRiskMonitor,
    StreamAnalyzer,
    EventKind,
    StreamInventory,
    blocks_from_parts,
    blocks_from_result,
    calibrated_spare_fraction,
)
from repro.telemetry.aggregate import mu_matrix
from stream_oracle import Event, block_of, close_of

DISK = FAULT_CODE[FaultType.DISK]


def _tiny_inventory():
    return StreamInventory(
        rack_ids=("R0", "R1"),
        n_servers=np.array([10, 20]),
        server_base=np.array([0, 10]),
        commission_day=np.zeros(2, dtype=np.int64),
        decommission_day=np.full(2, 30, dtype=np.int64),
        sku_code=np.zeros(2, dtype=np.int64),
        sku_names=("S",),
        dc_code=np.zeros(2, dtype=np.int64),
        dc_names=("D",),
        n_days=30,
    )


def _open(t, rack=0, offset=0, repair=10.0, ordinal=0, fault=DISK, fp=False):
    return Event(seq=-1, time_hours=t, kind=EventKind.TICKET_OPEN,
                 rack_index=rack, server_offset=offset,
                 day_index=int(t // 24.0), fault_code=fault,
                 false_positive=fp, repair_hours=repair,
                 ticket_ordinal=ordinal)


def feed(trigger, event):
    """Fold one event in as a one-row block; returns its alerts."""
    return [alert for _, alert in trigger.update_block(block_of(event))]


class TestSlaRiskMonitor:
    def test_fires_on_breach_once_per_episode(self):
        monitor = SlaRiskMonitor(_tiny_inventory(), AvailabilitySla(1.0),
                                 spare_fraction=0.1)  # allowed = 1 server
        first = _open(0.0, offset=0)
        second = _open(1.0, offset=1, ordinal=1)
        third = _open(2.0, offset=2, ordinal=2)
        assert feed(monitor, first) == []
        alerts = feed(monitor, second)  # 2 down > 1.0 allowed
        assert len(alerts) == 1
        assert alerts[0].kind is AlertKind.SLA_RISK
        assert alerts[0].rack_index == 0 and alerts[0].value == 2.0
        assert feed(monitor, third) == []  # still in breach: no re-alert

    def test_realerts_after_recovery(self):
        monitor = SlaRiskMonitor(_tiny_inventory(), AvailabilitySla(1.0),
                                 spare_fraction=0.1)
        a, b = _open(0.0, offset=0), _open(1.0, offset=1, ordinal=1)
        feed(monitor, a)
        assert len(feed(monitor, b)) == 1
        feed(monitor, close_of(a))  # back to 1 down <= allowed
        assert monitor.breached[0] == False  # noqa: E712
        c = _open(12.0, offset=2, ordinal=2)
        assert len(feed(monitor, c)) == 1  # new episode

    def test_same_server_double_ticket_counts_once(self):
        monitor = SlaRiskMonitor(_tiny_inventory(), AvailabilitySla(1.0),
                                 spare_fraction=0.1)
        feed(monitor, _open(0.0, offset=4))
        assert feed(monitor, _open(1.0, offset=4, ordinal=1)) == []
        assert monitor.down[0] == 1

    def test_shortfall_tolerates_at_lower_sla(self):
        # SLA 0.9 on 10 servers tolerates 1 down even with zero spares.
        monitor = SlaRiskMonitor(_tiny_inventory(), AvailabilitySla(0.9),
                                 spare_fraction=0.0)
        assert feed(monitor, _open(0.0, offset=0)) == []
        assert len(feed(monitor, _open(1.0, offset=1, ordinal=1))) == 1

    def test_software_and_fp_ignored(self):
        monitor = SlaRiskMonitor(_tiny_inventory(), AvailabilitySla(1.0),
                                 spare_fraction=0.0)
        assert feed(
            monitor, _open(0.0, fault=FAULT_CODE[FaultType.TIMEOUT]),
        ) == []
        assert feed(monitor, _open(1.0, fp=True, ordinal=1)) == []
        assert monitor.down[0] == 0

    def test_negative_fraction_rejected(self):
        with pytest.raises(DataError, match="spare_fraction"):
            SlaRiskMonitor(_tiny_inventory(), AvailabilitySla(1.0),
                           spare_fraction=-0.1)

    def test_per_rack_fractions(self):
        monitor = SlaRiskMonitor(
            _tiny_inventory(), AvailabilitySla(1.0),
            spare_fraction=np.array([0.0, 0.5]),
        )
        assert len(feed(monitor, _open(0.0, rack=0, offset=0))) == 1
        # Rack 1 has 10 spares provisioned: far from breach.
        assert feed(monitor, _open(1.0, rack=1, offset=0, ordinal=1)) == []


class TestCalibrationContract:
    """Calibrated provisioning is provably silent on its own history."""

    def _stream_with_fraction(self, result, fraction):
        analyzer = StreamAnalyzer(
            StreamInventory.from_result(result),
            sla=AvailabilitySla(1.0), spare_fraction=fraction, drift=False,
        )
        analyzer.consume_blocks(blocks_from_result(result))
        analyzer.finish()
        return analyzer

    def test_zero_spurious_alerts_on_pristine_run(self, tiny_run):
        fraction = calibrated_spare_fraction(
            mu_matrix(tiny_run), tiny_run.fleet.arrays().n_servers,
            AvailabilitySla(1.0),
        )
        analyzer = self._stream_with_fraction(tiny_run, fraction)
        assert analyzer.alerts == []

    def test_zero_spurious_alerts_on_severity_zero_bundle(self, tiny_run):
        dataset, _ = standard_pipeline(0.0, seed=1).apply(
            FieldDataset.from_result(tiny_run)
        )
        result = dataset.to_result(base=tiny_run)
        fraction = calibrated_spare_fraction(
            mu_matrix(result), result.fleet.arrays().n_servers,
            AvailabilitySla(1.0),
        )
        inventory = StreamInventory.from_fleet(
            dataset.fleet, dataset.n_days,
            decommission_day=dataset.decommission_day,
        )
        analyzer = StreamAnalyzer(inventory, sla=AvailabilitySla(1.0),
                                  spare_fraction=fraction)
        analyzer.consume_blocks(blocks_from_parts(
            inventory, tickets=dataset.tickets,
            temp_f=dataset.temp_f, rh=dataset.rh,
        ))
        analyzer.finish()
        assert [a for a in analyzer.alerts
                if a.kind is AlertKind.SLA_RISK] == []

    def test_stressed_provisioning_fires(self, tiny_run):
        fraction = calibrated_spare_fraction(
            mu_matrix(tiny_run), tiny_run.fleet.arrays().n_servers,
            AvailabilitySla(1.0),
        )
        stressed = self._stream_with_fraction(tiny_run, fraction * 0.25)
        assert any(a.kind is AlertKind.SLA_RISK for a in stressed.alerts)

    def test_calibration_shape_check(self):
        with pytest.raises(DataError, match="n_racks"):
            calibrated_spare_fraction(
                np.zeros((3, 4)), np.array([1, 2]), AvailabilitySla(1.0),
            )


class TestRateDriftDetector:
    def _feed_days(self, detector, rates):
        """rates[d] tickets on day d, spread through the day."""
        ordinal = 0
        alerts = []
        for day, count in enumerate(rates):
            for i in range(count):
                alerts += feed(detector, _open(
                    day * 24.0 + (i + 0.5) * 24.0 / max(count, 1),
                    offset=i % 5, ordinal=ordinal,
                ))
                ordinal += 1
        alerts += detector.finish()
        return alerts

    def test_silent_on_stationary_rate(self):
        detector = RateDriftDetector(n_days=60)
        assert self._feed_days(detector, [3] * 60) == []

    def test_fires_on_surge(self):
        detector = RateDriftDetector(n_days=60)
        alerts = self._feed_days(detector, [3] * 40 + [12] * 20)
        assert alerts and alerts[0].kind is AlertKind.RATE_DRIFT
        assert "above" in alerts[0].message
        # One alert for the whole episode, not one per day.
        assert len(alerts) == 1

    def test_fires_on_collapse(self):
        detector = RateDriftDetector(n_days=80, min_excess=3.0)
        alerts = self._feed_days(detector, [6] * 50 + [0] * 30)
        assert alerts and "below" in alerts[0].message

    def test_min_excess_guards_quiet_fleets(self):
        # 0 → 0.3/day doubles the "rate" but is only ~2 events: silent.
        detector = RateDriftDetector(n_days=60, min_excess=5.0)
        rates = [0] * 50 + [1, 0, 0, 1, 0, 0, 0, 1, 0, 0]
        assert self._feed_days(detector, rates) == []

    def test_no_evaluation_before_baseline_fills(self):
        detector = RateDriftDetector(n_days=20)  # needs 35 days of history
        assert self._feed_days(detector, [0] * 10 + [9] * 10) == []

    def test_batch_counts_once(self):
        import dataclasses

        detector = RateDriftDetector(n_days=40)
        event = dataclasses.replace(_open(0.0), batch_id=3)
        feed(detector, event)
        feed(detector, dataclasses.replace(event, ticket_ordinal=1))
        assert detector.day_counts[0] == 1

    def test_parameter_validation(self):
        with pytest.raises(DataError):
            RateDriftDetector(n_days=0)
        with pytest.raises(DataError, match="ratio"):
            RateDriftDetector(n_days=10, ratio=1.0)

    def test_state_roundtrip_mid_episode(self):
        detector = RateDriftDetector(n_days=60)
        ordinal = 0
        for day in range(45):
            count = 3 if day < 40 else 12
            for i in range(count):
                feed(detector, _open(day * 24.0 + i * 0.1, offset=i % 5,
                                     ordinal=ordinal))
                ordinal += 1
        clone = RateDriftDetector.from_state(detector.state_arrays(),
                                             detector.meta())
        tail_a, tail_b = [], []
        for day in range(45, 60):
            for i in range(12):
                event = _open(day * 24.0 + i * 0.1, offset=i % 5,
                              ordinal=ordinal)
                tail_a += feed(detector, event)
                tail_b += feed(clone, event)
                ordinal += 1
        tail_a += detector.finish()
        tail_b += clone.finish()
        assert tail_a == tail_b
