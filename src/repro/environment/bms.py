"""Building Management System (BMS): sensor collection and alarms.

Per §IV, "a building management system (BMS) is responsible for the
collection and monitoring of the sensor data, and triggering specific
actions like alarms, when any of the sensor values exceed the normal
threshold range."

The BMS is the *only* source of environmental data for the analysis
layer: it turns the true per-rack conditions of
:class:`~repro.environment.conditions.EnvironmentSeries` into noisy
per-rack-day readings (with occasional dropouts) and raises threshold
alarms.  Analyses therefore work from observed telemetry, like a real
operator, not from simulator ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datacenter.topology import Fleet
from ..errors import ConfigError
from ..rng import RngRegistry
from .conditions import EnvironmentSeries
from .sensors import DEFAULT_NOISE_SD, SensorKind, rack_sensor_pair


@dataclass(frozen=True)
class AlarmThresholds:
    """Normal operating band; readings outside it raise alarms.

    Defaults follow ASHRAE-style allowable envelopes: the paper's DCs
    observe 56-90 °F and 5-87% RH at the racks (Table III), with alarms
    marking the excursions operators would investigate.
    """

    temp_low_f: float = 59.0
    temp_high_f: float = 86.0
    rh_low: float = 10.0
    rh_high: float = 80.0

    def __post_init__(self) -> None:
        if self.temp_low_f >= self.temp_high_f:
            raise ConfigError("temp_low_f must be below temp_high_f")
        if not 0.0 <= self.rh_low < self.rh_high <= 100.0:
            raise ConfigError("RH thresholds must satisfy 0 <= low < high <= 100")


@dataclass(frozen=True)
class Alarm:
    """One threshold-excursion alarm raised by the BMS."""

    day_index: int
    rack_index: int
    kind: SensorKind
    value: float
    threshold: float
    direction: str  # "high" or "low"


class BmsLog:
    """Observed environmental telemetry for a whole run.

    Attributes:
        temp_f: (n_days, n_racks) observed inlet temperature; NaN where
            the reading dropped out.
        rh: (n_days, n_racks) observed relative humidity; NaN likewise.
        alarms: list of :class:`Alarm` in chronological order.
    """

    def __init__(self, temp_f: np.ndarray, rh: np.ndarray, alarms: list[Alarm]):
        if temp_f.shape != rh.shape:
            raise ConfigError(f"shape mismatch: temp {temp_f.shape} vs rh {rh.shape}")
        self.temp_f = temp_f
        self.rh = rh
        self.alarms = alarms

    @property
    def n_days(self) -> int:
        """Number of observed days."""
        return self.temp_f.shape[0]

    @property
    def n_racks(self) -> int:
        """Number of instrumented racks."""
        return self.temp_f.shape[1]

    def dropout_fraction(self) -> float:
        """Fraction of readings lost to sensor dropouts."""
        total = self.temp_f.size + self.rh.size
        missing = int(np.isnan(self.temp_f).sum() + np.isnan(self.rh).sum())
        return missing / total

    def filled_temp_f(self) -> np.ndarray:
        """Temperature with dropouts filled by per-rack interpolation."""
        return _fill_nans_along_days(self.temp_f)

    def filled_rh(self) -> np.ndarray:
        """RH with dropouts filled by per-rack interpolation."""
        return _fill_nans_along_days(self.rh)


def _fill_nans_along_days(values: np.ndarray) -> np.ndarray:
    """Fill NaNs per column via linear interpolation over the day axis."""
    filled = values.copy()
    days = np.arange(values.shape[0])
    for rack in range(values.shape[1]):
        column = filled[:, rack]
        missing = np.isnan(column)
        if not missing.any():
            continue
        if missing.all():
            raise ConfigError(f"rack column {rack} has no valid readings to interpolate")
        column[missing] = np.interp(days[missing], days[~missing], column[~missing])
    return filled


class BuildingManagementSystem:
    """Collects per-rack sensor readings and raises threshold alarms.

    Args:
        fleet: instrumented fleet (one temp + one RH sensor per rack).
        thresholds: alarm band; defaults per :class:`AlarmThresholds`.
    """

    def __init__(self, fleet: Fleet, thresholds: AlarmThresholds | None = None):
        self.fleet = fleet
        self.thresholds = thresholds or AlarmThresholds()
        self.sensors = [rack_sensor_pair(rack.rack_id) for rack in fleet.racks]

    def collect(self, environment: EnvironmentSeries, rngs: RngRegistry) -> BmsLog:
        """Observe the whole run: noisy readings plus alarms.

        Sensor noise and dropouts are applied vectorized for speed but
        with the same per-kind noise magnitudes as the individual
        :class:`~repro.environment.sensors.Sensor` objects.
        """
        rng = rngs.stream("bms")
        n_days, n_racks = environment.temp_f.shape
        if n_racks != len(self.sensors):
            raise ConfigError(
                f"environment covers {n_racks} racks but BMS instruments {len(self.sensors)}"
            )

        temp_noise_sd = DEFAULT_NOISE_SD[SensorKind.INLET_TEMP]
        rh_noise_sd = DEFAULT_NOISE_SD[SensorKind.RELATIVE_HUMIDITY]
        dropout = self.sensors[0][0].dropout_rate

        observed_temp = environment.temp_f + rng.normal(
            0.0, temp_noise_sd, size=(n_days, n_racks)
        )
        observed_rh = np.clip(
            environment.rh + rng.normal(0.0, rh_noise_sd, size=(n_days, n_racks)),
            0.0, 100.0,
        )
        observed_temp[rng.random((n_days, n_racks)) < dropout] = np.nan
        observed_rh[rng.random((n_days, n_racks)) < dropout] = np.nan

        alarms = self._scan_alarms(observed_temp, observed_rh)
        return BmsLog(temp_f=observed_temp, rh=observed_rh, alarms=alarms)

    def rebuild_log(self, temp_f: np.ndarray, rh: np.ndarray) -> BmsLog:
        """Reassemble a :class:`BmsLog` from previously observed readings.

        Used by the pipeline's ``run`` codec: the noisy readings come from
        disk, and the (deterministic) alarm scan is re-run over them,
        giving a log identical to the original :meth:`collect` output.
        """
        return BmsLog(temp_f=temp_f, rh=rh, alarms=self._scan_alarms(temp_f, rh))

    def _scan_alarms(self, temp_f: np.ndarray, rh: np.ndarray) -> list[Alarm]:
        """Threshold scan over all observed readings."""
        thresholds = self.thresholds
        alarms: list[Alarm] = []
        checks = [
            (temp_f, SensorKind.INLET_TEMP, thresholds.temp_high_f, "high"),
            (temp_f, SensorKind.INLET_TEMP, thresholds.temp_low_f, "low"),
            (rh, SensorKind.RELATIVE_HUMIDITY, thresholds.rh_high, "high"),
            (rh, SensorKind.RELATIVE_HUMIDITY, thresholds.rh_low, "low"),
        ]
        for values, kind, threshold, direction in checks:
            if direction == "high":
                days, racks = np.where(values > threshold)
            else:
                days, racks = np.where(values < threshold)
            for day, rack in zip(days.tolist(), racks.tolist()):
                alarms.append(Alarm(
                    day_index=day, rack_index=rack, kind=kind,
                    value=float(values[day, rack]),
                    threshold=threshold, direction=direction,
                ))
        alarms.sort(key=lambda alarm: (alarm.day_index, alarm.rack_index, alarm.kind.value))
        return alarms
