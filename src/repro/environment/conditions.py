"""Vectorized per-rack environmental conditions over the whole run.

This is the bridge between the weather/cooling substrate and the failure
engine: for every simulated day it produces the *true* inlet temperature
and relative humidity at every rack, as

    rack condition = plant supply air (per DC)
                   + region offset (hot spots, Fig 2's intra-DC spread)
                   + persistent per-rack micro-climate offset
                   + small day-to-day local noise.

Both the failure engine (hazards react to true conditions) and the BMS
(sensors observe true conditions with noise) read from here, so they are
guaranteed to be consistent.
"""

from __future__ import annotations

import numpy as np

from ..datacenter.topology import Fleet
from ..errors import ConfigError
from ..rng import RngRegistry
from .cooling import plant_for
from .weather import SiteClimate, WeatherSeries, dc1_site_climate, dc2_site_climate


class EnvironmentSeries:
    """True daily inlet conditions for every rack.

    Args:
        fleet: the fleet whose racks we condition.
        n_days: observation-window length.
        rngs: RNG registry (uses the ``"weather"`` and ``"microclimate"``
            streams).
        climates: optional per-DC site climates keyed by DC name;
            defaults to the DC1/DC2 site models in catalog order.
        start_day_of_year: calendar alignment of day 0.

    Attributes:
        temp_f: array of shape (n_days, n_racks) — true inlet °F.
        rh: array of shape (n_days, n_racks) — true inlet %RH.
        weather: per-DC outdoor :class:`WeatherSeries`, keyed by DC name.
    """

    def __init__(
        self,
        fleet: Fleet,
        n_days: int,
        rngs: RngRegistry,
        climates: dict[str, SiteClimate] | None = None,
        start_day_of_year: int = 0,
    ):
        if n_days < 1:
            raise ConfigError(f"n_days must be >= 1, got {n_days}")
        arrays = fleet.arrays()
        self.n_days = n_days
        self.n_racks = arrays.n_racks

        if climates is None:
            defaults = [dc1_site_climate(), dc2_site_climate()]
            climates = {}
            for index, dc in enumerate(fleet.datacenters):
                climates[dc.name] = defaults[min(index, len(defaults) - 1)]
        for dc in fleet.datacenters:
            if dc.name not in climates:
                raise ConfigError(f"no site climate supplied for {dc.name}")

        weather_rng = rngs.stream("weather")
        micro_rng = rngs.stream("microclimate")

        excursion_rng = rngs.stream("plant-excursions")
        self.weather: dict[str, WeatherSeries] = {}
        supply_temp = np.empty((n_days, len(fleet.datacenters)))
        supply_rh = np.empty((n_days, len(fleet.datacenters)))
        for dc_index, dc in enumerate(fleet.datacenters):
            series = WeatherSeries(
                climates[dc.name], n_days, weather_rng,
                start_day_of_year=start_day_of_year,
            )
            self.weather[dc.name] = series
            plant = plant_for(dc.spec.cooling)
            for day in range(n_days):
                air = plant.supply_air(series.day(day))
                supply_temp[day, dc_index] = air.temp_f
                supply_rh[day, dc_index] = air.rh
            # Chilled-water plants occasionally run degraded (chiller
            # failover, maintenance on a loop): supply air spikes for a
            # day.  These excursions are what let Fig 18 compare DC2's
            # hot rack-days at all — and find its disks unaffected.
            from ..datacenter.topology import CoolingKind

            if dc.spec.cooling == CoolingKind.CHILLED_WATER:
                excursions = excursion_rng.random(n_days) < 0.03
                spikes = excursion_rng.uniform(8.0, 16.0, size=n_days)
                supply_temp[:, dc_index] += np.where(excursions, spikes, 0.0)

        # Persistent per-rack micro-climate: a rack near a perforated
        # tile differs from one at a row end, day after day.
        rack_temp_offset = micro_rng.normal(0.0, 1.3, size=self.n_racks)
        rack_rh_offset = micro_rng.normal(0.0, 2.2, size=self.n_racks)

        dc_code = arrays.dc_code
        base_temp = supply_temp[:, dc_code]  # (n_days, n_racks)
        base_rh = supply_rh[:, dc_code]
        daily_temp_noise = micro_rng.normal(0.0, 0.6, size=(n_days, self.n_racks))
        daily_rh_noise = micro_rng.normal(0.0, 1.2, size=(n_days, self.n_racks))

        self.temp_f = (
            base_temp
            + arrays.region_thermal_offset[np.newaxis, :]
            + rack_temp_offset[np.newaxis, :]
            + daily_temp_noise
        )
        self.rh = np.clip(
            base_rh
            + arrays.region_humidity_offset[np.newaxis, :]
            + rack_rh_offset[np.newaxis, :]
            + daily_rh_noise,
            2.0, 99.0,
        )

    @classmethod
    def from_arrays(
        cls,
        fleet: Fleet,
        temp_f: np.ndarray,
        rh: np.ndarray,
        weather: "dict[str, WeatherSeries] | None" = None,
    ) -> "EnvironmentSeries":
        """Restore a series from previously computed condition matrices.

        Used by the pipeline's ``run`` codec: conditions are loaded from
        disk instead of re-deriving them from weather/cooling models.  ``weather`` is
        optional — cached bundles do not persist the outdoor series.
        """
        arrays = fleet.arrays()
        temp_f = np.asarray(temp_f, dtype=float)
        rh = np.asarray(rh, dtype=float)
        if temp_f.shape != rh.shape:
            raise ConfigError(f"shape mismatch: temp {temp_f.shape} vs rh {rh.shape}")
        if temp_f.ndim != 2 or temp_f.shape[1] != arrays.n_racks:
            raise ConfigError(
                f"condition matrices must be (n_days, {arrays.n_racks}), "
                f"got {temp_f.shape}"
            )
        series = cls.__new__(cls)
        series.n_days = temp_f.shape[0]
        series.n_racks = arrays.n_racks
        series.weather = weather or {}
        series.temp_f = temp_f
        series.rh = rh
        return series

    def day_conditions(self, day_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(temp_f, rh) arrays over racks for one day."""
        if not 0 <= day_index < self.n_days:
            raise ConfigError(f"day_index {day_index} outside [0, {self.n_days})")
        return self.temp_f[day_index], self.rh[day_index]

    def shift_setpoints(
        self,
        start_day: int,
        temp_delta_f: float = 0.0,
        rh_delta: float = 0.0,
        rack_indices: "np.ndarray | list[int] | None" = None,
    ) -> None:
        """Shift true conditions from ``start_day`` on — the sanctioned
        mutation point for autonomics setpoint moves.

        Models the cooling plant retargeting its supply-air setpoints:
        every affected rack's inlet temperature (and/or humidity) moves
        by the given delta for all days at or after ``start_day``.  RH
        stays clipped to the physical [2, 99] band.  Callers (the
        simulation session) must only shift days whose failure draws
        have not yet been realized.
        """
        if not 0 <= start_day <= self.n_days:
            raise ConfigError(
                f"start_day {start_day} outside [0, {self.n_days}]"
            )
        cols: "np.ndarray | slice"
        if rack_indices is None:
            cols = slice(None)
        else:
            cols = np.asarray(rack_indices, dtype=np.int64)
            if cols.size and (cols.min() < 0 or cols.max() >= self.n_racks):
                raise ConfigError(
                    f"rack_indices outside [0, {self.n_racks})"
                )
        self.temp_f[start_day:, cols] += temp_delta_f
        self.rh[start_day:, cols] = np.clip(
            self.rh[start_day:, cols] + rh_delta, 2.0, 99.0,
        )
