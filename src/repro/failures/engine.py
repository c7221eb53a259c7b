"""The failure engine: turns a configured fleet into 2.5 years of tickets.

Generation is vectorized over day-blocks × racks: the engine

1. evaluates every fault type's expected per-rack-day count matrix
   through the ground-truth hazard composition
   (:class:`~repro.failures.faultmodel.FaultModel`), consuming whole
   :class:`~repro.environment.conditions.EnvironmentSeries` and
   :class:`~repro.units.SimCalendar` columns at once,
2. Poisson-samples the full matrix per fault and materializes tickets
   (detection hour, affected server, resolution time, false-positive
   flag) in a handful of ``np.repeat``/``np.concatenate`` passes,
3. draws *correlated* events — SKU batch failures and rack-scale outages
   — as a sparse post-pass over the rare (day, rack) cells the event
   draw selects; these take several devices down simultaneously and are
   what give the concurrent-failure metric μ its heavy tail (Figs 11-13),
4. records everything in a columnar :class:`~repro.failures.tickets.TicketLog`
   (sorted by day and detection hour) alongside the BMS's observed
   environmental telemetry.

Determinism contract: every stochastic consumer draws from its own named
:class:`~repro.rng.RngRegistry` stream (``failures:<FAULT>`` for the
independent Poisson path, ``failures:batch`` and ``failures:outage`` for
the correlated post-passes), so equal configs give bit-identical ticket
logs and adding a new consumer never perturbs existing streams.  The
day-block chunking (:data:`CHUNK_DAYS`) bounds peak memory at paper
scale; it is a fixed constant, so results never depend on it at runtime.

The result object bundles everything an analysis needs; the analysis
layer must treat it the way the paper treats field data — tickets,
sensor readings and inventory only, never the hazard model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..datacenter.builder import build_fleet
from ..datacenter.topology import Fleet
from ..environment.bms import BmsLog, BuildingManagementSystem
from ..environment.conditions import EnvironmentSeries
from ..errors import SimulationError
from ..rng import RngRegistry
from ..units import SimCalendar
from .diurnal import DiurnalProfiles
from .faultmodel import FaultModel
from .repair import RepairModel
from .tickets import FAULT_CODE, FaultType, TicketLog

if TYPE_CHECKING:  # avoid a circular import: config depends on faultmodel
    from ..config import SimulationConfig

# Day-block size for chunked matrix generation.  A fixed constant (not a
# knob): the per-fault draw sequence depends on where block boundaries
# fall, so changing this value changes the sampled realization — keep it
# stable to keep golden aggregates stable.
CHUNK_DAYS = 365


@dataclass
class SimulationResult:
    """Everything produced by one simulation run.

    Attributes:
        config: the configuration that produced this run.
        fleet: the simulated estate (topology + inventory).
        calendar: day-index → calendar-feature mapping.
        environment: *true* per-rack daily inlet conditions (ground
            truth — analyses should prefer ``bms`` readings).
        bms: observed (noisy) environmental telemetry and alarms.
        tickets: the full RMA ticket log.
    """

    config: "SimulationConfig"
    fleet: Fleet
    calendar: SimCalendar
    environment: EnvironmentSeries
    bms: BmsLog
    tickets: TicketLog

    @property
    def n_days(self) -> int:
        """Observation-window length."""
        return self.config.n_days

    def summary(self) -> str:
        """One-paragraph run description for logs and examples."""
        n_tickets = len(self.tickets)
        n_fp = int(self.tickets.false_positive.sum())
        return (
            f"{self.fleet.n_racks} racks / {self.fleet.n_servers} servers "
            f"simulated for {self.n_days} days: {n_tickets} RMA tickets "
            f"({n_fp} false positives, "
            f"{int(self.tickets.hardware_mask().sum())} hardware)"
        )


class _TicketColumns:
    """Accumulates aligned ticket-column chunks across the whole run."""

    def __init__(self) -> None:
        self.day_index: list[np.ndarray] = []
        self.start_hour: list[np.ndarray] = []
        self.rack_index: list[np.ndarray] = []
        self.server_offset: list[np.ndarray] = []
        self.fault_code: list[np.ndarray] = []
        self.false_positive: list[np.ndarray] = []
        self.repair_hours: list[np.ndarray] = []
        self.batch_id: list[np.ndarray] = []

    def emit(
        self,
        day_index: np.ndarray,
        start_hour: np.ndarray,
        rack_index: np.ndarray,
        server_offset: np.ndarray,
        fault: FaultType,
        false_positive: np.ndarray,
        repair_hours: np.ndarray,
        batch_id: np.ndarray,
    ) -> None:
        count = len(rack_index)
        if count == 0:
            return
        self.day_index.append(np.asarray(day_index, dtype=np.int64))
        self.start_hour.append(np.asarray(start_hour, dtype=float))
        self.rack_index.append(np.asarray(rack_index, dtype=np.int64))
        self.server_offset.append(np.asarray(server_offset, dtype=np.int64))
        self.fault_code.append(np.full(count, FAULT_CODE[fault], dtype=np.int64))
        self.false_positive.append(np.asarray(false_positive, dtype=bool))
        self.repair_hours.append(np.asarray(repair_hours, dtype=float))
        self.batch_id.append(np.asarray(batch_id, dtype=np.int64))

    def into_log(self) -> TicketLog:
        """Concatenate, day/hour-sort, and finalize the columnar log."""
        log = TicketLog()
        if self.rack_index:
            day_index = np.concatenate(self.day_index)
            start_hour = np.concatenate(self.start_hour)
            rack_index = np.concatenate(self.rack_index)
            server_offset = np.concatenate(self.server_offset)
            fault_code = np.concatenate(self.fault_code)
            false_positive = np.concatenate(self.false_positive)
            repair_hours = np.concatenate(self.repair_hours)
            batch_id = np.concatenate(self.batch_id)
            # Chronological log order (the per-fault passes produce
            # fault-major order); ties broken deterministically.
            order = np.lexsort(
                (server_offset, rack_index, fault_code, start_hour, day_index)
            )
            log.append_chunk(
                day_index=day_index[order],
                start_hour_abs=start_hour[order],
                rack_index=rack_index[order],
                server_offset=server_offset[order],
                fault_code=fault_code[order],
                false_positive=false_positive[order],
                repair_hours=repair_hours[order],
                batch_id=batch_id[order],
            )
        log.finalize()
        return log


def _build_substrate(
    config: "SimulationConfig",
) -> tuple[RngRegistry, Fleet, SimCalendar, EnvironmentSeries, BmsLog]:
    """Deterministic pre-ticket substrate: fleet, calendar, environment, BMS.

    Shared by :func:`simulate` and the stepping session.  The pipeline's
    ``run`` codec likewise rebuilds everything cheap from the config and
    only restores the (expensive, stochastic) ticket log from disk.
    """
    rngs = RngRegistry(config.seed)
    fleet = build_fleet(config.fleet, rngs)
    calendar = SimCalendar(
        start_day_of_week=config.start_day_of_week,
        start_day_of_year=config.start_day_of_year,
    )
    environment = EnvironmentSeries(
        fleet, config.n_days, rngs, start_day_of_year=config.start_day_of_year,
    )
    bms = BuildingManagementSystem(fleet).collect(environment, rngs)
    return rngs, fleet, calendar, environment, bms


def simulate(config: "SimulationConfig | None" = None) -> SimulationResult:
    """Run a full simulation and return its result bundle.

    Args:
        config: run configuration; defaults to paper scale with seed 0.

    The run is fully deterministic in ``config`` (including the seed).
    Implemented as a :class:`SimulationSession` stepped to completion
    with no actions applied — the session's no-op path is bit-identical
    to the historical monolithic generator by construction (same chunk
    loop, same draw order, same final sort).
    """
    from ..config import SimulationConfig

    config = config or SimulationConfig.paper_scale()
    session = SimulationSession(config)
    session.step()
    return session.result()


class _TicketGenerator:
    """The per-chunk draw engine shared by batch and stepwise runs.

    Owns the named RNG streams (``failures:<FAULT>``, ``failures:batch``,
    ``failures:outage``) and the running batch-id counter; every call to
    :meth:`generate_chunk` advances them exactly the way the historical
    monolithic loop did, so any sequence of chunk calls covering
    ``[0, n_days)`` in order reproduces the batch realization bit for
    bit.  Substrate views (fleet arrays, fault model, outage severity)
    are derived in :meth:`refresh_substrate` so a session can re-derive
    them after an inventory mutation without touching the RNG streams.
    """

    def __init__(
        self,
        config: "SimulationConfig",
        fleet: Fleet,
        calendar: SimCalendar,
        environment: EnvironmentSeries,
        rngs: RngRegistry,
    ):
        self.config = config
        self.fleet = fleet
        self.calendar = calendar
        self.environment = environment
        self.repair = RepairModel()
        self.diurnal = DiurnalProfiles()
        self.fp_rate = config.rates.false_positive_rate
        self.fault_rngs = {
            fault: rngs.stream(f"failures:{fault.name}") for fault in FaultType
        }
        self.batch_rng = rngs.stream("failures:batch")
        self.outage_rng = rngs.stream("failures:outage")
        self.next_batch_id = 0
        self.refresh_substrate()

    def refresh_substrate(self) -> None:
        """(Re)derive the per-rack views from the current fleet.

        Called once at construction and again by the session after a
        sanctioned inventory mutation (SKU swap at refresh); rebuilding
        the fault model is deterministic and consumes no RNG draws.
        """
        arrays = self.fleet.arrays()
        self.arrays = arrays
        self.model = FaultModel(self.fleet, self.config.rates)
        # Outage severity depends on the power-delivery design (Table
        # I): a 5-nines facility's redundant feeds contain an outage to
        # a smaller slice of the rack than a 3-nines facility's.
        nines_by_dc = {
            dc.name: dc.spec.availability_nines for dc in self.fleet.datacenters
        }
        per_dc_nines = np.array([nines_by_dc[name] for name in arrays.dc_names])
        rack_nines = per_dc_nines[arrays.dc_code]
        self.outage_low = np.where(rack_nines <= 3, 0.15, 0.08)
        self.outage_high = np.where(rack_nines <= 3, 0.40, 0.20)

    def generate_chunk(self, day0: int, block: int, columns: _TicketColumns) -> None:
        """Draw one ``[day0, day0 + block)`` day-block into ``columns``."""
        arrays = self.arrays
        model = self.model
        repair = self.repair
        n_racks = arrays.n_racks
        batch_rng = self.batch_rng
        outage_rng = self.outage_rng

        features = self.calendar.feature_arrays(block, start_day=day0)
        commissioned = (
            arrays.commission_day[np.newaxis, :] <= features.day_index[:, np.newaxis]
        )
        temp_f = self.environment.temp_f[day0:day0 + block]
        rh = self.environment.rh[day0:day0 + block]
        expected = model.expected_counts_matrix(features, temp_f, rh, commissioned)

        # Independent failures: Poisson per (day, rack) cell per fault.
        for fault, mean_counts in expected.items():
            rng = self.fault_rngs[fault]
            counts = rng.poisson(mean_counts).ravel()
            total = int(counts.sum())
            if total == 0:
                continue
            cell = np.repeat(np.arange(counts.size), counts)
            day_index = day0 + cell // n_racks
            rack_index = cell % n_racks
            capacity = arrays.n_servers[rack_index]
            server_offset = (rng.random(total) * capacity).astype(np.int64)
            start_hour = day_index * 24.0 + self.diurnal.sample_hours(fault, total, rng)
            columns.emit(
                day_index=day_index,
                start_hour=start_hour,
                rack_index=rack_index,
                server_offset=server_offset,
                fault=fault,
                false_positive=rng.random(total) < self.fp_rate,
                repair_hours=repair.sample_hours(fault, total, rng),
                batch_id=np.full(total, -1, dtype=np.int64),
            )

        # Correlated batch failures (bad component lots, shared planes):
        # sparse post-pass over the rare cells the event draw selects.
        batch_rate = model.batch_event_rate_matrix(features, commissioned)
        batch_hits = np.argwhere(batch_rng.random(batch_rate.shape) < batch_rate)
        if len(batch_hits):
            hit_racks = batch_hits[:, 1]
            raw_sizes = 1 + batch_rng.geometric(
                1.0 / arrays.batch_mean_size[hit_racks].astype(float)
            )
            sizes = np.minimum(raw_sizes, arrays.n_servers[hit_racks])
            # Storage-heavy SKUs mostly batch-fail disk lots, sometimes
            # a shared backplane (whole servers); dense compute SKUs
            # batch-fail memory lots (bad DIMM batches) with occasional
            # PSU/backplane lots.  The DIMM share is what makes
            # component-level spares attractive for the compute workload
            # in Fig 13; the PSU share keeps SF's per-resource peaks
            # conservative (its component plan is not cheaper).
            route = batch_rng.random(len(batch_hits))
            for i, (day_off, rack) in enumerate(batch_hits.tolist()):
                size = int(sizes[i])
                if arrays.hdds_per_server[rack] >= 8:
                    fault = (FaultType.DISK if route[i] < 0.55
                             else FaultType.SERVER)
                else:
                    fault = (FaultType.MEMORY if route[i] < 0.8
                             else FaultType.SERVER)
                offsets = batch_rng.choice(
                    arrays.n_servers[rack], size=size, replace=False,
                )
                # Batch failures cascade through the day (a bad lot
                # trips device after device), so hourly windows see only
                # part of the batch concurrently — the temporal-
                # multiplexing effect behind the daily-vs-hourly
                # provisioning gap (Fig 10 vs 12).
                start = (day0 + day_off) * 24.0 + batch_rng.random() * 10.0
                columns.emit(
                    day_index=np.full(size, day0 + day_off, dtype=np.int64),
                    start_hour=np.full(size, start) + batch_rng.random(size) * 14.0,
                    rack_index=np.full(size, rack, dtype=np.int64),
                    server_offset=offsets.astype(np.int64),
                    fault=fault,
                    false_positive=np.zeros(size, dtype=bool),
                    repair_hours=repair.sample_hours(fault, size, batch_rng),
                    batch_id=np.full(size, self.next_batch_id, dtype=np.int64),
                )
                self.next_batch_id += 1

        # Rack-scale outages (power strip / ToR failures).
        outage_rate = model.rack_outage_rate_matrix(features, commissioned)
        outage_hits = np.argwhere(outage_rng.random(outage_rate.shape) < outage_rate)
        if len(outage_hits):
            hit_racks = outage_hits[:, 1]
            fractions = outage_rng.uniform(
                self.outage_low[hit_racks], self.outage_high[hit_racks],
            )
            sizes = np.minimum(
                np.maximum(2, np.round(fractions * arrays.n_servers[hit_racks])),
                arrays.n_servers[hit_racks],
            ).astype(np.int64)
            starts = (
                (day0 + outage_hits[:, 0]) * 24.0
                + outage_rng.random(len(outage_hits)) * 24.0
            )
            for i, (day_off, rack) in enumerate(outage_hits.tolist()):
                size = int(sizes[i])
                offsets = outage_rng.choice(
                    arrays.n_servers[rack], size=size, replace=False,
                )
                columns.emit(
                    day_index=np.full(size, day0 + day_off, dtype=np.int64),
                    start_hour=np.full(size, starts[i]),
                    rack_index=np.full(size, rack, dtype=np.int64),
                    server_offset=offsets.astype(np.int64),
                    fault=FaultType.POWER,
                    false_positive=np.zeros(size, dtype=bool),
                    repair_hours=repair.sample_hours(FaultType.POWER, size, outage_rng),
                    batch_id=np.full(size, self.next_batch_id, dtype=np.int64),
                )
                self.next_batch_id += 1


#: Per-chunk sorted column keys, in :meth:`TicketLog.append_chunk`
#: keyword order.
_CHUNK_COLUMNS = (
    "day_index", "start_hour_abs", "rack_index", "server_offset",
    "fault_code", "false_positive", "repair_hours", "batch_id",
)


class SimulationSession:
    """A resumable step/act simulation over one configured fleet.

    The session owns the full substrate — fleet, calendar,
    :class:`~repro.environment.conditions.EnvironmentSeries`, BMS and
    the named RNG streams — and advances in two interleaved motions:

    * :meth:`step` moves the *observation frontier* forward by ``n``
      days and returns the incremental :class:`TicketLog` chunk for
      exactly that window (globally ordered, finalized, possibly
      empty);
    * :meth:`apply` applies controller actions between steps through
      the sanctioned mutation points (:meth:`move_setpoints`,
      :meth:`swap_sku`).

    Determinism contract: generation still happens in whole
    :data:`CHUNK_DAYS` blocks — the session draws a block lazily the
    first time a step enters it, buffers the tickets, and releases
    per-step slices — so a session stepped to completion with no
    actions is **bit-identical** to batch :func:`simulate`.  Substrate
    mutations only ever touch days at or beyond the generation
    frontier (the next not-yet-drawn chunk boundary), which keeps
    already-drawn realizations intact and keeps replays under
    different controllers seed-comparable.
    """

    def __init__(self, config: "SimulationConfig | None" = None):
        from ..config import SimulationConfig

        self.config = config or SimulationConfig.paper_scale()
        (self.rngs, self.fleet, self.calendar,
         self.environment, self.bms) = _build_substrate(self.config)
        self._bms_system = BuildingManagementSystem(self.fleet)
        self._generator = _TicketGenerator(
            self.config, self.fleet, self.calendar, self.environment, self.rngs,
        )
        #: Observation frontier: first day not yet released by a step.
        self.day = 0
        #: Generation frontier: first day not yet drawn (chunk-aligned).
        self._generated_to = 0
        self._all_columns = _TicketColumns()
        self._chunks: list[dict[str, np.ndarray]] = []
        self._pending_mutations: list[tuple] = []
        #: Audit trail of every applied action: ``(frontier day, action)``.
        self.action_log: list[tuple[int, object]] = []
        self._result: SimulationResult | None = None

    @property
    def n_days(self) -> int:
        """Total observation-window length."""
        return self.config.n_days

    @property
    def exhausted(self) -> bool:
        """True once every day has been released by :meth:`step`."""
        return self.day >= self.n_days

    @property
    def generation_frontier(self) -> int:
        """First day whose realization is not yet drawn.

        Substrate mutations queued now take effect at this boundary (or
        the next chunk boundary after it) — never earlier.
        """
        return self._generated_to

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def step(self, n_days: int | None = None) -> TicketLog:
        """Advance the frontier and return the window's ticket chunk.

        Args:
            n_days: days to advance; ``None`` steps to completion.

        Returns a finalized, globally ordered (possibly empty)
        :class:`TicketLog` holding exactly the tickets whose
        ``day_index`` falls in the stepped window.  Concatenating every
        step's chunk reproduces the batch log byte for byte.
        """
        if self.exhausted:
            raise SimulationError(
                "session already stepped to the end of its observation window"
            )
        if n_days is None:
            n_days = self.n_days - self.day
        if n_days < 1:
            raise SimulationError(f"step needs n_days >= 1, got {n_days}")
        end = min(self.day + n_days, self.n_days)
        self._ensure_generated(end)
        chunk = self._window_log(self.day, end)
        self.day = end
        return chunk

    def apply(self, actions) -> None:
        """Apply controller actions at the current frontier.

        Each action must expose ``apply_to(session)`` (the
        :mod:`repro.autonomics` action vocabulary does); substrate
        effects route through the mutation points below and take effect
        at the generation frontier.  Every action is recorded in
        :attr:`action_log`.
        """
        if self.exhausted:
            raise SimulationError("cannot apply actions to an exhausted session")
        for action in actions:
            action.apply_to(self)
            self.action_log.append((self.day, action))

    # ------------------------------------------------------------------
    # sanctioned substrate mutation points
    # ------------------------------------------------------------------

    def move_setpoints(
        self,
        temp_delta_f: float = 0.0,
        rh_delta: float = 0.0,
        rack_indices: np.ndarray | list[int] | None = None,
    ) -> None:
        """Queue a cooling/humidity setpoint move.

        Takes effect at the generation frontier: the true
        :class:`EnvironmentSeries` columns and the BMS's observed
        readings shift together from that day on (sensor noise and
        dropouts were already drawn, so the observed shift is exact and
        consumes no RNG), and BMS alarms are re-scanned
        deterministically.  Already-drawn chunks keep their
        realization.
        """
        self._pending_mutations.append(
            ("setpoints", float(temp_delta_f), float(rh_delta), rack_indices)
        )

    def swap_sku(self, rack_ids, sku_name: str) -> None:
        """Queue a hardware-refresh SKU swap for the named racks.

        Takes effect at the generation frontier (the refresh point):
        the fleet inventory mutation routes through
        :meth:`~repro.datacenter.topology.Fleet.swap_sku` and the fault
        model is re-derived before the next chunk is drawn.
        """
        self._pending_mutations.append(("sku", tuple(rack_ids), str(sku_name)))

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def tickets_so_far(self) -> TicketLog:
        """Every generated ticket up to the generation frontier.

        Globally ordered and finalized; ticket ordinals are stable as
        the session advances (new chunks only ever append), which is
        what lets streaming consumers re-flatten incrementally.
        """
        return self._window_log(0, self._generated_to)

    def result(self) -> SimulationResult:
        """The completed run's result bundle.

        Only available once the session is exhausted; the ticket log is
        assembled through the exact batch code path (global lexsort
        over emission order), so a no-op session's result is
        bit-identical to :func:`simulate`.
        """
        if not self.exhausted:
            raise SimulationError(
                f"session stepped to day {self.day}/{self.n_days}; "
                "step to completion before asking for the result"
            )
        if self._result is None:
            tickets = self._all_columns.into_log()
            if len(tickets) == 0:
                raise SimulationError(
                    "simulation produced zero tickets; check rates and window length"
                )
            self._result = SimulationResult(
                config=self.config, fleet=self.fleet, calendar=self.calendar,
                environment=self.environment, bms=self.bms, tickets=tickets,
            )
        return self._result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _ensure_generated(self, upto: int) -> None:
        """Draw whole chunks until the generation frontier covers ``upto``."""
        while self._generated_to < upto:
            day0 = self._generated_to
            self._apply_pending_mutations(day0)
            block = min(CHUNK_DAYS, self.n_days - day0)
            chunk = _TicketColumns()
            self._generator.generate_chunk(day0, block, chunk)
            self._absorb_chunk(chunk)
            self._generated_to = day0 + block

    def _apply_pending_mutations(self, day0: int) -> None:
        """Fold queued substrate mutations in at a chunk boundary."""
        if not self._pending_mutations:
            return
        fleet_dirty = False
        bms_dirty = False
        for mutation in self._pending_mutations:
            if mutation[0] == "setpoints":
                _, temp_delta, rh_delta, rack_indices = mutation
                cols = (slice(None) if rack_indices is None
                        else np.asarray(rack_indices, dtype=np.int64))
                self.environment.shift_setpoints(
                    day0, temp_delta_f=temp_delta, rh_delta=rh_delta,
                    rack_indices=rack_indices,
                )
                # Observed telemetry follows the plant change; NaN
                # dropouts stay NaN under the shift.
                self.bms.temp_f[day0:, cols] += temp_delta
                self.bms.rh[day0:, cols] = np.clip(
                    self.bms.rh[day0:, cols] + rh_delta, 0.0, 100.0,
                )
                bms_dirty = True
            else:
                _, rack_ids, sku_name = mutation
                self.fleet.swap_sku(rack_ids, sku_name)
                fleet_dirty = True
        self._pending_mutations.clear()
        if bms_dirty:
            self.bms = self._bms_system.rebuild_log(self.bms.temp_f, self.bms.rh)
        if fleet_dirty:
            self._generator.refresh_substrate()

    def _absorb_chunk(self, chunk: _TicketColumns) -> None:
        """Buffer one generated chunk: emission order + sorted slice view."""
        if not chunk.rack_index:
            return
        for name in vars(chunk):
            getattr(self._all_columns, name).extend(getattr(chunk, name))
        day_index = np.concatenate(chunk.day_index)
        start_hour = np.concatenate(chunk.start_hour)
        rack_index = np.concatenate(chunk.rack_index)
        server_offset = np.concatenate(chunk.server_offset)
        fault_code = np.concatenate(chunk.fault_code)
        # Within one chunk this is exactly the global sort restricted
        # to the chunk's rows: day ranges of distinct chunks are
        # disjoint and day_index is the most-significant key.
        order = np.lexsort(
            (server_offset, rack_index, fault_code, start_hour, day_index)
        )
        self._chunks.append({
            "day_index": day_index[order],
            "start_hour_abs": start_hour[order],
            "rack_index": rack_index[order],
            "server_offset": server_offset[order],
            "fault_code": fault_code[order],
            "false_positive": np.concatenate(chunk.false_positive)[order],
            "repair_hours": np.concatenate(chunk.repair_hours)[order],
            "batch_id": np.concatenate(chunk.batch_id)[order],
        })

    def _window_log(self, start: int, end: int) -> TicketLog:
        """Finalized log of every buffered ticket with day in [start, end)."""
        log = TicketLog()
        for chunk in self._chunks:
            days = chunk["day_index"]
            lo = int(np.searchsorted(days, start, side="left"))
            hi = int(np.searchsorted(days, end, side="left"))
            if hi > lo:
                log.append_chunk(**{
                    name: chunk[name][lo:hi] for name in _CHUNK_COLUMNS
                })
        log.finalize()
        return log


def _generate_tickets(
    config: "SimulationConfig",
    fleet: Fleet,
    calendar: SimCalendar,
    environment: EnvironmentSeries,
    rngs: RngRegistry,
) -> TicketLog:
    """Batch generation over a pre-built substrate (see module docstring).

    Kept as the monolithic entry point for callers that already own a
    substrate; :func:`simulate` itself now steps a
    :class:`SimulationSession`, which drives the same
    :class:`_TicketGenerator` chunk loop.
    """
    generator = _TicketGenerator(config, fleet, calendar, environment, rngs)
    columns = _TicketColumns()
    for day0 in range(0, config.n_days, CHUNK_DAYS):
        block = min(CHUNK_DAYS, config.n_days - day0)
        generator.generate_chunk(day0, block, columns)
    log = columns.into_log()
    if len(log) == 0:
        raise SimulationError(
            "simulation produced zero tickets; check rates and window length"
        )
    return log
