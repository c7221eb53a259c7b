"""Environmental substrate: site weather, cooling plants, sensors, BMS."""

from .airflow import (
    NOMINAL_AIRFLOW_CFM,
    NOMINAL_PRESSURE_PA,
    AhuSpec,
    AhuSystem,
    attach_ahu_telemetry,
)
from .bms import (
    Alarm,
    AlarmThresholds,
    BmsLog,
    BuildingManagementSystem,
)
from .conditions import EnvironmentSeries
from .cooling import (
    AdiabaticCoolingPlant,
    ChilledWaterPlant,
    CoolingPlant,
    SupplyAir,
    plant_for,
)
from .sensors import (
    DEFAULT_NOISE_SD,
    Sensor,
    SensorKind,
    SensorLevel,
    rack_sensor_pair,
)
from .weather import (
    SiteClimate,
    WeatherDay,
    WeatherSeries,
    dc1_site_climate,
    dc2_site_climate,
    wet_bulb_estimate_f,
)

__all__ = [
    "DEFAULT_NOISE_SD",
    "NOMINAL_AIRFLOW_CFM",
    "NOMINAL_PRESSURE_PA",
    "AdiabaticCoolingPlant",
    "AhuSpec",
    "AhuSystem",
    "Alarm",
    "AlarmThresholds",
    "BmsLog",
    "BuildingManagementSystem",
    "ChilledWaterPlant",
    "CoolingPlant",
    "EnvironmentSeries",
    "Sensor",
    "SensorKind",
    "SensorLevel",
    "SiteClimate",
    "SupplyAir",
    "WeatherDay",
    "WeatherSeries",
    "attach_ahu_telemetry",
    "dc1_site_climate",
    "dc2_site_climate",
    "plant_for",
    "rack_sensor_pair",
    "wet_bulb_estimate_f",
]
