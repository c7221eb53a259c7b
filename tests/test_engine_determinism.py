"""Golden-aggregate and determinism pins for the vectorized engine.

Two layers of protection:

* **Exact pins** — the vectorized engine is deterministic per config, so
  total/per-fault ticket counts for two (seed, scale, days) configs are
  pinned exactly.  Any change to the chunked draw order, the named RNG
  streams, or ``CHUNK_DAYS`` shows up here immediately.
* **Distribution pins** — the same aggregates are compared against
  values captured from the pre-vectorization (per-day loop) engine.
  The realizations differ (the draw order changed), but the underlying
  distributions must not: each aggregate must sit within sampling noise
  of the old engine's value.

Plus structural determinism: identical configs give bit-identical
ticket logs, the store's simulate stage round-trips a run exactly, and
the vectorized expected-counts matrix agrees with the per-day path
column by column.
"""

import numpy as np
import pytest

import repro
from repro.failures.tickets import FAULT_TYPES
from repro.telemetry import mu_matrix

# ---------------------------------------------------------------------------
# Golden aggregates.
#
# NEW = the vectorized engine (exact); OLD = captured from the seed
# per-day engine at the commit before vectorization (tolerance-checked).

CONFIGS = {
    "seed101": {"seed": 101, "scale": 0.10, "n_days": 180},
    "seed7": {"seed": 7, "scale": 0.20, "n_days": 365},
}

NEW_GOLDEN = {
    "seed101": {
        "total": 3921,
        "per_fault": {
            "TIMEOUT": 967, "DEPLOYMENT": 469, "CRASH": 92, "PXE_BOOT": 484,
            "REBOOT": 58, "DISK": 831, "MEMORY": 235, "POWER": 73,
            "SERVER": 227, "NETWORK": 107, "OTHER": 378,
        },
        "mu_q": [11.0, 20.0, 27.0],
        "batch_tickets": 341,
    },
    "seed7": {
        "total": 15654,
        "per_fault": {
            "TIMEOUT": 3975, "DEPLOYMENT": 1906, "CRASH": 396, "PXE_BOOT": 1882,
            "REBOOT": 198, "DISK": 3109, "MEMORY": 1254, "POWER": 384,
            "SERVER": 786, "NETWORK": 395, "OTHER": 1369,
        },
        "mu_q": [23.0, 36.6, 49.72],
        "batch_tickets": 1238,
    },
}

OLD_GOLDEN = {
    "seed101": {
        "total": 3962,
        "per_fault": {
            "TIMEOUT": 973, "DEPLOYMENT": 476, "CRASH": 97, "PXE_BOOT": 534,
            "REBOOT": 41, "DISK": 792, "MEMORY": 298, "POWER": 87,
            "SERVER": 208, "NETWORK": 93, "OTHER": 363,
        },
        "mu_q": [11.0, 21.0, 28.21],
        "lam": 0.3550,
        "batch_tickets": 298,
        "fp_share": 0.0626,
    },
    "seed7": {
        "total": 15752,
        "per_fault": {
            "TIMEOUT": 4176, "DEPLOYMENT": 1951, "CRASH": 353, "PXE_BOOT": 1892,
            "REBOOT": 194, "DISK": 3164, "MEMORY": 1160, "POWER": 365,
            "SERVER": 718, "NETWORK": 375, "OTHER": 1404,
        },
        "mu_q": [23.0, 36.0, 46.36],
        "lam": 0.3480,
        "batch_tickets": 1113,
        "fp_share": 0.0677,
    },
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def pinned_run(request):
    params = CONFIGS[request.param]
    config = repro.SimulationConfig.small(**params)
    return request.param, repro.simulate(config)


def _per_fault_counts(log):
    return {
        fault.name: int((log.fault_code == code).sum())
        for code, fault in enumerate(FAULT_TYPES)
    }


def _fleet_mu_quantiles(result):
    fleet_mu = mu_matrix(result, 24.0).sum(axis=0)
    return np.quantile(fleet_mu, [0.5, 0.9, 0.99])


class TestExactGoldenPins:
    """The vectorized engine must reproduce these numbers exactly."""

    def test_total_tickets(self, pinned_run):
        name, run = pinned_run
        assert len(run.tickets) == NEW_GOLDEN[name]["total"]

    def test_per_fault_counts(self, pinned_run):
        name, run = pinned_run
        assert _per_fault_counts(run.tickets) == NEW_GOLDEN[name]["per_fault"]

    def test_batch_ticket_count(self, pinned_run):
        name, run = pinned_run
        assert int((run.tickets.batch_id >= 0).sum()) == NEW_GOLDEN[name]["batch_tickets"]

    def test_mu_quantiles(self, pinned_run):
        name, run = pinned_run
        assert _fleet_mu_quantiles(run) == pytest.approx(
            NEW_GOLDEN[name]["mu_q"], abs=0.01
        )


class TestDistributionMatchesSeedEngine:
    """Aggregates must sit within sampling noise of the per-day engine.

    The vectorized engine draws in a different order, so it produces a
    different realization of the same stochastic process; the tolerances
    below are a few standard deviations of the respective statistic.
    """

    def test_total_within_3_percent(self, pinned_run):
        name, run = pinned_run
        assert len(run.tickets) == pytest.approx(OLD_GOLDEN[name]["total"], rel=0.03)

    def test_per_fault_within_noise(self, pinned_run):
        name, run = pinned_run
        counts = _per_fault_counts(run.tickets)
        for fault, old in OLD_GOLDEN[name]["per_fault"].items():
            # Poisson-ish noise floor: 5 sigma or 15%, whichever is looser.
            tolerance = max(0.15 * old, 5.0 * np.sqrt(old))
            assert abs(counts[fault] - old) <= tolerance, (
                f"{fault}: {counts[fault]} vs seed-engine {old} (±{tolerance:.0f})"
            )

    def test_mu_quantiles_within_15_percent(self, pinned_run):
        name, run = pinned_run
        assert _fleet_mu_quantiles(run) == pytest.approx(
            OLD_GOLDEN[name]["mu_q"], rel=0.15
        )

    def test_lambda_within_3_percent(self, pinned_run):
        name, run = pinned_run
        lam = len(run.tickets) / (run.n_days * run.fleet.arrays().n_racks)
        assert lam == pytest.approx(OLD_GOLDEN[name]["lam"], rel=0.03)

    def test_batch_tickets_within_25_percent(self, pinned_run):
        name, run = pinned_run
        batch = int((run.tickets.batch_id >= 0).sum())
        assert batch == pytest.approx(OLD_GOLDEN[name]["batch_tickets"], rel=0.25)

    def test_false_positive_share_within_15_percent(self, pinned_run):
        name, run = pinned_run
        share = float(run.tickets.false_positive.mean())
        assert share == pytest.approx(OLD_GOLDEN[name]["fp_share"], rel=0.15)


TICKET_COLUMNS = (
    "day_index", "start_hour_abs", "rack_index", "server_offset",
    "fault_code", "false_positive", "repair_hours", "batch_id",
)


class TestBitIdentity:
    def test_same_config_identical_log(self):
        config = repro.SimulationConfig.small(seed=101, scale=0.10, n_days=180)
        a = repro.simulate(config)
        b = repro.simulate(config)
        for column in TICKET_COLUMNS:
            assert np.array_equal(
                getattr(a.tickets, column), getattr(b.tickets, column)
            ), column

    def test_cache_round_trip_identical(self, tmp_path):
        from repro.pipeline import ArtifactStore, Pipeline, simulate_stage

        config = repro.SimulationConfig.small(seed=101, scale=0.10, n_days=180)
        runs, outcomes = [], []
        for _ in range(2):
            pipeline = Pipeline([simulate_stage(config)],
                                store=ArtifactStore(tmp_path / "cache"))
            runs.append(pipeline.get("simulate"))
            outcomes.append(pipeline.executions[0].outcome)
        fresh, cached = runs
        assert outcomes == ["computed", "disk"]
        for column in TICKET_COLUMNS:
            assert np.array_equal(
                getattr(fresh.tickets, column), getattr(cached.tickets, column)
            ), column
        assert np.array_equal(
            fresh.environment.temp_f, cached.environment.temp_f
        )
        assert np.array_equal(
            fresh.bms.temp_f, cached.bms.temp_f, equal_nan=True
        )
        assert len(fresh.bms.alarms) == len(cached.bms.alarms)


class TestMatrixConsistency:
    def test_matrix_matches_per_day_expected_counts(self):
        """expected_counts_matrix row d == per-day expected_counts(day d)."""
        from repro.failures.engine import _build_substrate
        from repro.failures.faultmodel import FaultModel

        config = repro.SimulationConfig.small(seed=33, scale=0.05, n_days=40)
        _, fleet, calendar, environment, _ = _build_substrate(config)
        arrays = fleet.arrays()
        model = FaultModel(fleet, config.rates)
        features = calendar.feature_arrays(config.n_days)
        commissioned = (
            features.day_index[:, None] >= arrays.commission_day[None, :]
        )
        matrix = model.expected_counts_matrix(
            features, environment.temp_f, environment.rh, commissioned
        )
        for day in (0, 13, 39):
            per_day = model.expected_counts(
                calendar.day(day),
                environment.temp_f[day], environment.rh[day],
                commissioned[day],
            )
            for fault, row in per_day.items():
                assert np.allclose(matrix[fault][day], row), (fault, day)
