"""Environmental sensors and their placement hierarchy.

Per §IV, "sensors are placed across each DC ... at multiple levels of the
spatial hierarchy (server row, rack, etc.)": temperature and relative
humidity at rack level, pressure at air-handler-unit (AHU) level, with
separate inlet/outlet measurement points.  The analysis layer only ever
sees *sensor readings* — noisy, occasionally-dropped observations of the
true conditions — which is exactly the situation a real operator is in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import ConfigError


class SensorKind(Enum):
    """What a sensor measures."""

    INLET_TEMP = "inlet-temp"
    OUTLET_TEMP = "outlet-temp"
    RELATIVE_HUMIDITY = "relative-humidity"
    PRESSURE = "pressure"
    AIRFLOW = "airflow"


class SensorLevel(Enum):
    """Where in the spatial hierarchy a sensor is mounted."""

    DATACENTER = "datacenter"
    ROW = "row"
    RACK = "rack"
    AHU = "ahu"


# Default measurement noise (standard deviation) per sensor kind, in the
# sensor's native unit (°F, %RH, Pa, CFM).
DEFAULT_NOISE_SD: dict[SensorKind, float] = {
    SensorKind.INLET_TEMP: 0.6,
    SensorKind.OUTLET_TEMP: 1.0,
    SensorKind.RELATIVE_HUMIDITY: 2.0,
    SensorKind.PRESSURE: 1.5,
    SensorKind.AIRFLOW: 25.0,
}


@dataclass(frozen=True)
class Sensor:
    """One physical sensor.

    Attributes:
        sensor_id: unique label, e.g. ``DC1-R017/inlet-temp``.
        kind: measured quantity.
        level: mounting level in the spatial hierarchy.
        location: identifier of the mounted entity (rack id, row, AHU id).
        noise_sd: Gaussian measurement noise standard deviation.
        dropout_rate: probability a reading is missing on a given day
            (dead battery, network blip); the BMS records NaN then.
    """

    sensor_id: str
    kind: SensorKind
    level: SensorLevel
    location: str
    noise_sd: float
    dropout_rate: float = 0.002

    def __post_init__(self) -> None:
        if self.noise_sd < 0:
            raise ConfigError(f"{self.sensor_id}: noise_sd must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"{self.sensor_id}: dropout_rate must be in [0, 1)")

    def read(self, true_value: float, rng: np.random.Generator) -> float:
        """One observation of ``true_value``; NaN when the reading drops."""
        if rng.random() < self.dropout_rate:
            return float("nan")
        return float(true_value + rng.normal(0.0, self.noise_sd))


def rack_sensor_pair(rack_id: str) -> tuple[Sensor, Sensor]:
    """The standard per-rack instrumentation: inlet temp + RH."""
    return (
        Sensor(
            sensor_id=f"{rack_id}/inlet-temp",
            kind=SensorKind.INLET_TEMP,
            level=SensorLevel.RACK,
            location=rack_id,
            noise_sd=DEFAULT_NOISE_SD[SensorKind.INLET_TEMP],
        ),
        Sensor(
            sensor_id=f"{rack_id}/rh",
            kind=SensorKind.RELATIVE_HUMIDITY,
            level=SensorLevel.RACK,
            location=rack_id,
            noise_sd=DEFAULT_NOISE_SD[SensorKind.RELATIVE_HUMIDITY],
        ),
    )
