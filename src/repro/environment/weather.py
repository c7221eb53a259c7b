"""Outdoor weather models for the two datacenter sites.

The paper's DCs "differ in their external environment (weather,
altitude)" (§I).  DC1 sits in a warm, dry climate — the regime where
adiabatic cooling "proves effective" (§IV footnote) — while DC2 sits in
a temperate, more humid one.  Weather only matters to the analysis
through the *inlet* conditions the cooling plant produces, but modelling
it explicitly lets the seasonal effect (Fig 4) and the low-humidity
effect (Fig 5) emerge from physics-shaped inputs rather than being
painted directly onto failure rates.

The model is a standard sinusoidal climate: an annual temperature cycle,
a diurnal cycle, auto-correlated day-to-day anomalies (AR(1) weather
fronts), and relative humidity anti-correlated with temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..units import (
    DAYS_PER_YEAR,
    celsius_to_fahrenheit,
    clamp,
    fahrenheit_to_celsius,
)


@dataclass(frozen=True)
class SiteClimate:
    """Parameters of one site's climate.

    Attributes:
        name: site label for diagnostics.
        mean_temp_f: annual mean outdoor temperature (°F).
        seasonal_amplitude_f: half peak-to-trough of the annual cycle.
        diurnal_amplitude_f: half peak-to-trough of the daily cycle.
        peak_day_of_year: day-of-year of the seasonal maximum
            (~213 = early August for northern-hemisphere sites).
        anomaly_sd_f: standard deviation of day-to-day anomalies.
        anomaly_persistence: AR(1) coefficient of the anomaly process.
        mean_rh: annual mean outdoor relative humidity (%).
        rh_temp_slope: RH change per °F of temperature anomaly+season
            (negative: hot days are dry days).
        rh_noise_sd: day-to-day RH noise (%).
    """

    name: str
    mean_temp_f: float
    seasonal_amplitude_f: float
    diurnal_amplitude_f: float
    peak_day_of_year: int
    anomaly_sd_f: float
    anomaly_persistence: float
    mean_rh: float
    rh_temp_slope: float
    rh_noise_sd: float

    def __post_init__(self) -> None:
        if not 0 <= self.peak_day_of_year < DAYS_PER_YEAR:
            raise ConfigError(f"{self.name}: peak_day_of_year out of range")
        if not 0.0 <= self.anomaly_persistence < 1.0:
            raise ConfigError(f"{self.name}: anomaly_persistence must be in [0,1)")
        if not 0.0 < self.mean_rh < 100.0:
            raise ConfigError(f"{self.name}: mean_rh must be a valid RH percentage")


def dc1_site_climate() -> SiteClimate:
    """Warm, dry (semi-arid) site hosting DC1."""
    return SiteClimate(
        name="DC1-site",
        mean_temp_f=68.0,
        seasonal_amplitude_f=21.0,
        diurnal_amplitude_f=9.0,
        peak_day_of_year=213,
        anomaly_sd_f=4.0,
        anomaly_persistence=0.75,
        mean_rh=38.0,
        rh_temp_slope=-0.7,
        rh_noise_sd=10.0,
    )


def dc2_site_climate() -> SiteClimate:
    """Temperate, humid site hosting DC2."""
    return SiteClimate(
        name="DC2-site",
        mean_temp_f=54.0,
        seasonal_amplitude_f=16.0,
        diurnal_amplitude_f=7.0,
        peak_day_of_year=205,
        anomaly_sd_f=5.0,
        anomaly_persistence=0.7,
        mean_rh=62.0,
        rh_temp_slope=-0.6,
        rh_noise_sd=7.0,
    )


@dataclass(frozen=True)
class WeatherDay:
    """Outdoor conditions for one day (daily means)."""

    day_index: int
    temp_f: float
    rh: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rh <= 100.0:
            raise ConfigError(f"day {self.day_index}: RH {self.rh} outside [0, 100]")


class WeatherSeries:
    """Pre-sampled outdoor weather for every day of the observation window.

    The whole series is generated up-front (it is tiny: two floats per
    day) so the failure engine and the BMS see identical weather, and so
    repeated analyses over the same run are consistent.
    """

    def __init__(self, climate: SiteClimate, n_days: int, rng: np.random.Generator,
                 start_day_of_year: int = 0):
        if n_days < 1:
            raise ConfigError(f"n_days must be >= 1, got {n_days}")
        if not 0 <= start_day_of_year < DAYS_PER_YEAR:
            raise ConfigError(f"start_day_of_year out of range: {start_day_of_year}")
        self.climate = climate
        self.n_days = n_days

        days = np.arange(n_days)
        day_of_year = (start_day_of_year + days) % DAYS_PER_YEAR
        phase = 2.0 * np.pi * (day_of_year - climate.peak_day_of_year) / DAYS_PER_YEAR
        seasonal = climate.seasonal_amplitude_f * np.cos(phase)

        anomalies = np.empty(n_days)
        innovation_sd = climate.anomaly_sd_f * np.sqrt(
            1.0 - climate.anomaly_persistence**2
        )
        current = rng.normal(0.0, climate.anomaly_sd_f)
        for day in range(n_days):
            anomalies[day] = current
            current = (climate.anomaly_persistence * current
                       + rng.normal(0.0, innovation_sd))

        self.temp_f = climate.mean_temp_f + seasonal + anomalies
        raw_rh = (climate.mean_rh
                  + climate.rh_temp_slope * (seasonal + anomalies)
                  + rng.normal(0.0, climate.rh_noise_sd, size=n_days))
        self.rh = np.clip(raw_rh, 2.0, 99.0)

    def day(self, day_index: int) -> WeatherDay:
        """Outdoor conditions (daily means) for ``day_index``."""
        if not 0 <= day_index < self.n_days:
            raise ConfigError(f"day_index {day_index} outside [0, {self.n_days})")
        return WeatherDay(
            day_index=day_index,
            temp_f=float(self.temp_f[day_index]),
            rh=float(self.rh[day_index]),
        )

    def hourly_temp_f(self, day_index: int) -> np.ndarray:
        """Hour-of-day temperature profile for ``day_index`` (24 values).

        A cosine diurnal cycle peaking mid-afternoon (15:00) around the
        daily mean; used when the simulation runs at hourly resolution.
        """
        base = self.day(day_index).temp_f
        hours = np.arange(24)
        return base + self.climate.diurnal_amplitude_f * np.cos(
            2.0 * np.pi * (hours - 15) / 24.0
        )


def wet_bulb_estimate_f(temp_f: float, rh: float) -> float:
    """Approximate wet-bulb temperature (°F) from dry-bulb and RH.

    Uses Stull's 2011 empirical fit (valid for 5-99% RH), converted to
    Fahrenheit.  Adiabatic cooling output approaches the wet-bulb
    temperature, so this sets the supply-air floor for DC1's plant.
    """
    if not 0.0 < rh <= 100.0:
        raise ConfigError(f"RH must be in (0, 100], got {rh}")
    temp_c = fahrenheit_to_celsius(temp_f)
    wet_c = (
        temp_c * np.arctan(0.151977 * np.sqrt(rh + 8.313659))
        + np.arctan(temp_c + rh)
        - np.arctan(rh - 1.676331)
        + 0.00391838 * rh**1.5 * np.arctan(0.023101 * rh)
        - 4.686035
    )
    wet_f = celsius_to_fahrenheit(wet_c)
    # A wet bulb can never exceed the dry bulb; guard the fit's edges.
    return float(clamp(wet_f, -40.0, temp_f))
