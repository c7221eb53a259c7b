"""Sensor and BMS tests."""

import numpy as np
import pytest

import repro
from repro.environment.bms import (
    AlarmThresholds,
    BmsLog,
    BuildingManagementSystem,
    _fill_nans_along_days,
)
from repro.environment.conditions import EnvironmentSeries
from repro.environment.sensors import (
    Sensor,
    SensorKind,
    SensorLevel,
    rack_sensor_pair,
)
from repro.errors import ConfigError
from repro.rng import RngRegistry


class TestSensor:
    def test_reading_is_noisy_but_centered(self):
        sensor = Sensor("s", SensorKind.INLET_TEMP, SensorLevel.RACK, "r",
                        noise_sd=0.5, dropout_rate=0.0)
        rng = np.random.default_rng(0)
        readings = np.array([sensor.read(70.0, rng) for _ in range(500)])
        assert abs(readings.mean() - 70.0) < 0.1
        assert 0.3 < readings.std() < 0.7

    def test_dropout_yields_nan(self):
        sensor = Sensor("s", SensorKind.INLET_TEMP, SensorLevel.RACK, "r",
                        noise_sd=0.0, dropout_rate=0.999)
        rng = np.random.default_rng(0)
        readings = np.array([sensor.read(70.0, rng) for _ in range(20)])
        assert np.isnan(readings).any()

    def test_dropout_rate_of_one_rejected(self):
        with pytest.raises(ConfigError):
            Sensor("s", SensorKind.INLET_TEMP, SensorLevel.RACK, "r",
                   noise_sd=0.0, dropout_rate=1.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            Sensor("s", SensorKind.INLET_TEMP, SensorLevel.RACK, "r", noise_sd=-1.0)

    def test_rack_pair_kinds(self):
        temp, humidity = rack_sensor_pair("DC1-R001")
        assert temp.kind is SensorKind.INLET_TEMP
        assert humidity.kind is SensorKind.RELATIVE_HUMIDITY
        assert temp.location == "DC1-R001"


class TestAlarmThresholds:
    def test_inverted_temp_band_rejected(self):
        with pytest.raises(ConfigError):
            AlarmThresholds(temp_low_f=90.0, temp_high_f=60.0)

    def test_invalid_rh_band_rejected(self):
        with pytest.raises(ConfigError):
            AlarmThresholds(rh_low=80.0, rh_high=10.0)


class TestNanFill:
    def test_interpolates_interior_gap(self):
        values = np.array([[1.0], [np.nan], [3.0]])
        filled = _fill_nans_along_days(values)
        assert filled[1, 0] == pytest.approx(2.0)

    def test_edges_extend_nearest(self):
        values = np.array([[np.nan], [2.0], [np.nan]])
        filled = _fill_nans_along_days(values)
        assert filled[0, 0] == pytest.approx(2.0)
        assert filled[2, 0] == pytest.approx(2.0)

    def test_all_nan_column_rejected(self):
        with pytest.raises(ConfigError):
            _fill_nans_along_days(np.full((3, 1), np.nan))


class TestBmsCollection:
    @pytest.fixture(scope="class")
    def collected(self):
        config = repro.SimulationConfig.small(seed=6, scale=0.05, n_days=90)
        rngs = RngRegistry(config.seed)
        from repro.datacenter.builder import build_fleet

        fleet = build_fleet(config.fleet, rngs)
        env = EnvironmentSeries(fleet, config.n_days, rngs)
        bms = BuildingManagementSystem(fleet)
        return env, bms.collect(env, rngs)

    def test_log_shape(self, collected):
        env, log = collected
        assert log.temp_f.shape == env.temp_f.shape
        assert log.n_days == env.n_days

    def test_readings_track_truth(self, collected):
        env, log = collected
        valid = ~np.isnan(log.temp_f)
        error = (log.temp_f - env.temp_f)[valid]
        assert abs(error.mean()) < 0.1
        assert error.std() < 1.5

    def test_dropout_fraction_small_but_present(self, collected):
        _, log = collected
        assert 0.0 < log.dropout_fraction() < 0.02

    def test_filled_arrays_have_no_nans(self, collected):
        _, log = collected
        assert not np.isnan(log.filled_temp_f()).any()
        assert not np.isnan(log.filled_rh()).any()

    def test_alarms_reference_real_excursions(self, collected):
        _, log = collected
        thresholds = AlarmThresholds()
        for alarm in log.alarms[:50]:
            value = (log.temp_f if alarm.kind is SensorKind.INLET_TEMP
                     else log.rh)[alarm.day_index, alarm.rack_index]
            assert value == pytest.approx(alarm.value)
            if alarm.direction == "high":
                assert alarm.value > alarm.threshold
            else:
                assert alarm.value < alarm.threshold
        # At least the RH-low alarm should fire in the dry DC1 winter.
        assert any(alarm.direction == "low" for alarm in log.alarms)

    def test_mismatched_fleet_rejected(self, collected):
        env, _ = collected
        config = repro.SimulationConfig.small(seed=7, scale=0.02, n_days=90)
        from repro.datacenter.builder import build_fleet

        other_fleet = build_fleet(config.fleet, RngRegistry(7))
        bms = BuildingManagementSystem(other_fleet)
        with pytest.raises(ConfigError):
            bms.collect(env, RngRegistry(8))


class TestBmsLogValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            BmsLog(np.zeros((2, 3)), np.zeros((3, 2)), [])
