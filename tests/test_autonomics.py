"""The autonomics layer: actions, ledger, feed, controllers, what-if.

The two headline contracts live here.  First, a null-policy closed-loop
run ticket-matches batch ``simulate()`` — the control loop itself adds
no perturbation.  Second, the ROADMAP's closed-loop claim: on the
default comparison scenario the predictive controller matches or beats
the reactive baseline on SLA attainment at equal-or-lower TCO.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autonomics import (
    BUILTIN_POLICIES,
    Controller,
    MoveSetpoints,
    NullController,
    Observation,
    OrderSpares,
    PredictiveController,
    ReactiveController,
    SessionEventFeed,
    SpareLedger,
    SwapSku,
    ThresholdController,
    compare_policies,
    compute_autonomics_payload,
    make_controller,
    render_autonomics,
    run_policy,
)
from repro.config import SimulationConfig
from repro.errors import ConfigError, DataError
from repro.failures.engine import SimulationSession, simulate
from repro.stream.blocks import (
    EVENT_DTYPE,
    StreamInventory,
    blocks_from_result,
)
from repro.stream.triggers import Alert, AlertKind


class TestActions:
    def test_order_spares_validates(self):
        with pytest.raises(ConfigError):
            OrderSpares(rack_index=0, n_servers=0)
        with pytest.raises(ConfigError):
            OrderSpares(rack_index=0, lead_time_days=-1)

    def test_swap_sku_needs_racks(self):
        with pytest.raises(ConfigError):
            SwapSku(rack_ids=(), sku_name="S1")

    def test_move_setpoints_needs_delta(self):
        with pytest.raises(ConfigError):
            MoveSetpoints()

    def test_order_spares_never_touches_the_session(self):
        # Spares are operational inventory: applying the action must not
        # perturb the physical realization.
        config = SimulationConfig.small(seed=11, scale=0.05, n_days=90)
        baseline = simulate(config)
        session = SimulationSession(config)
        session.step(30)
        session.apply([OrderSpares(rack_index=0, n_servers=4)])
        session.step()
        assert np.array_equal(
            session.result().tickets.start_hour_abs,
            baseline.tickets.start_hour_abs,
        )


class TestSpareLedger:
    def test_initial_fraction_floors(self):
        ledger = SpareLedger(np.array([40, 40]), n_days=10,
                             initial_fraction=0.06)
        # floor(0.06 * 40) = 2 spares per rack.
        assert ledger.spares.tolist() == [2, 2]
        with pytest.raises(ConfigError):
            SpareLedger(np.array([40]), n_days=10, initial_fraction=-0.1)

    def test_lead_time_delivery(self):
        ledger = SpareLedger(np.array([40, 40]), n_days=30)
        ledger.book(order_day=5, rack_index=1, n_servers=2, lead_time_days=3)
        assert ledger.racks_on_order() == {1}
        assert ledger.deliver_until(7) == []
        assert ledger.spares.tolist() == [0, 0]
        delivered = ledger.deliver_until(8)
        assert delivered == [(8, 1, 2)]
        assert ledger.spares.tolist() == [0, 2]
        assert ledger.racks_on_order() == set()
        assert ledger.total_ordered() == 2

    def test_trajectory_steps_at_arrival(self):
        ledger = SpareLedger(np.array([40]), n_days=10)
        ledger.book(order_day=2, rack_index=0, n_servers=3, lead_time_days=4)
        trajectory = ledger.spares_trajectory()
        assert trajectory.shape == (10, 1)
        assert (trajectory[:6, 0] == 0).all()
        assert (trajectory[6:, 0] == 3).all()
        assert ledger.mean_fraction() == pytest.approx(3 * 4 / (10 * 40))

    def test_book_validates_rack(self):
        ledger = SpareLedger(np.array([40]), n_days=10)
        with pytest.raises(ConfigError):
            ledger.book(0, rack_index=5, n_servers=1, lead_time_days=0)


class TestSessionEventFeed:
    def test_incremental_feed_matches_batch_flatten(self):
        config = SimulationConfig.small(seed=11, scale=0.05, n_days=120)
        batch = simulate(config)
        session = SimulationSession(config)
        feed = SessionEventFeed(
            session, StreamInventory.from_fleet(session.fleet, config.n_days),
        )
        streamed = []
        while not session.exhausted:
            session.step(17)
            streamed.extend(feed.blocks_until(session.day))
        streamed.extend(feed.blocks_until(config.n_days))
        stepped = np.concatenate([block.data for block in streamed])
        reference = np.concatenate(
            [block.data for block in blocks_from_result(batch)],
        )
        # The feed's cut is exclusive at the observation horizon, so it
        # never emits the handful of ticket closes whose repair runs
        # past the end of the window; clip the batch stream the same way.
        reference = reference[reference["time_hours"] < config.n_days * 24.0]
        assert stepped.shape == reference.shape
        for name in EVENT_DTYPE.names:
            a, b = stepped[name], reference[name]
            if a.dtype.kind == "f":
                assert np.array_equal(a, b, equal_nan=True), name
            else:
                assert np.array_equal(a, b), name

    def test_feed_frontier_is_monotone(self):
        config = SimulationConfig.small(seed=11, scale=0.05, n_days=90)
        session = SimulationSession(config)
        feed = SessionEventFeed(
            session, StreamInventory.from_fleet(session.fleet, config.n_days),
        )
        session.step(20)
        feed.blocks_until(20)
        with pytest.raises(DataError):
            feed.blocks_until(10)

    def test_feed_refuses_unrealized_days(self):
        config = SimulationConfig.small(seed=11, scale=0.05, n_days=90)
        session = SimulationSession(config)
        feed = SessionEventFeed(
            session, StreamInventory.from_fleet(session.fleet, config.n_days),
        )
        with pytest.raises(DataError):
            feed.blocks_until(1)  # nothing generated yet


def observation(alerts=(), n_racks=4, temp_f=70.0, on_order=()):
    return Observation(
        day=35, window_days=7, alerts=tuple(alerts),
        down=np.zeros(n_racks, dtype=np.int64),
        capacity=np.full(n_racks, 40, dtype=np.int64),
        spares=np.zeros(n_racks, dtype=np.int64),
        racks_on_order=frozenset(on_order),
        observed_temp_f=np.full(n_racks, temp_f),
        observed_rh=np.full(n_racks, 45.0),
    )


def sla_alert(rack):
    return Alert(kind=AlertKind.SLA_RISK, time_hours=840.0,
                 message="breach", rack_index=rack, value=3.0, threshold=1.0)


def predicted_alert(rack, score=0.9):
    return Alert(kind=AlertKind.PREDICTED_FAILURE, time_hours=840.0,
                 message="predicted", rack_index=rack, value=score,
                 threshold=0.6)


class TestControllers:
    def test_registry(self):
        assert BUILTIN_POLICIES == ("null", "reactive", "predictive",
                                    "threshold")
        for policy_id in BUILTIN_POLICIES:
            controller = make_controller(policy_id)
            assert isinstance(controller, Controller)
            assert controller.policy_id == policy_id
        with pytest.raises(ConfigError):
            make_controller("chaos-monkey")

    def test_null_controller_never_acts(self):
        assert NullController().decide(observation([sla_alert(0)])) == []

    def test_reactive_orders_on_breach_once_per_rack(self):
        controller = ReactiveController()
        actions = controller.decide(
            observation([sla_alert(2), sla_alert(2), sla_alert(3)]),
        )
        assert sorted(a.rack_index for a in actions) == [2, 3]
        assert all(isinstance(a, OrderSpares) for a in actions)
        # Racks with an undelivered order are not re-ordered.
        assert controller.decide(
            observation([sla_alert(2)], on_order={2})) == []

    def test_predictive_caps_one_preorder_per_rack(self):
        controller = PredictiveController()
        first = controller.decide(observation([predicted_alert(1)]))
        assert [a.rack_index for a in first] == [1]
        # Re-flagging the same rack later buys nothing new...
        assert controller.decide(observation([predicted_alert(1)])) == []
        # ...but every flag feeds the proactive accounting...
        assert [rack for rack, _, _ in controller.flagged] == [1, 1]
        # ...and a realized breach still gets the reactive escalation.
        breach = controller.decide(observation([sla_alert(1)]))
        assert [a.rack_index for a in breach] == [1]

    def test_threshold_cools_within_budget(self):
        controller = ThresholdController(
            hot_temp_f=80.0, setpoint_step_f=2.0, max_total_shift_f=4.0,
        )
        hot = observation(temp_f=85.0)
        for _ in range(2):
            actions = controller.decide(hot)
            assert [a.temp_delta_f for a in actions
                    if isinstance(a, MoveSetpoints)] == [-2.0]
        # Budget exhausted: no further pulls, however hot it reads.
        assert controller.decide(hot) == []
        # All-NaN windows (every reading dropped) never trigger.
        assert controller.decide(observation(temp_f=np.nan)) == []


class TestRunPolicy:
    def test_null_policy_matches_batch(self):
        # The loop itself — session + feed + analyzer + scoring — must
        # not perturb the realization.
        config = SimulationConfig.small(seed=11, scale=0.05, n_days=120)
        outcome = run_policy(config, NullController())
        batch = simulate(config)
        assert outcome.policy_id == "null"
        assert outcome.n_actions == 0
        assert outcome.spare_servers_ordered == 0
        assert np.array_equal(outcome.result.tickets.start_hour_abs,
                              batch.tickets.start_hour_abs)
        assert 0.0 <= outcome.sla_attainment <= 1.0
        assert outcome.tco_units == pytest.approx(
            outcome.deployment_units + outcome.failure_units)

    def test_decide_every_validated(self):
        config = SimulationConfig.small(seed=11, scale=0.05, n_days=90)
        with pytest.raises(ConfigError):
            run_policy(config, NullController(), decide_every_days=0)


@pytest.fixture(scope="module")
def default_shootout():
    """The default comparison scenario (the acceptance gate's subject)."""
    config = SimulationConfig.small(seed=0, scale=0.2, n_days=270)
    return compare_policies(config, policies=("reactive", "predictive"))


class TestComparePolicies:
    def test_predictive_beats_reactive_on_default_scenario(
        self, default_shootout,
    ):
        # The ROADMAP's closed-loop claim, asserted: acting on
        # predictions meets or beats break/fix on SLA attainment at
        # equal-or-lower TCO on the default scenario.
        verdict = default_shootout["verdict"]
        assert verdict["predictive_beats_reactive_sla"]
        assert verdict["predictive_tco_leq_reactive"]
        assert verdict["sla_attainment_delta"] >= 0.0
        assert verdict["tco_delta_units"] <= 0.0

    def test_payload_shape_and_scenario(self, default_shootout):
        rows = {row["policy"]: row for row in default_shootout["policies"]}
        assert set(rows) == {"reactive", "predictive"}
        assert default_shootout["scenario"]["policies"] == [
            "reactive", "predictive",
        ]
        predictive = rows["predictive"]
        assert predictive["n_interventions"] > 0
        assert predictive["failures_prevented"] > 0.0
        # JSON-safe: round-trips through the stdlib encoder.
        import json

        json.dumps(default_shootout)

    def test_render_mentions_verdict(self, default_shootout):
        text = render_autonomics(default_shootout)
        assert "policy shootout" in text
        assert "verdict: acting on predictions matches or beats" in text
        assert "at equal or lower TCO" in text

    def test_compute_shim_validates(self):
        with pytest.raises(ConfigError):
            compute_autonomics_payload(
                SimulationConfig.small(), policies=(),
            )


class TestGroundTruthBoundary:
    def test_autonomics_is_inside_the_gt_leak_fence(self):
        from repro.staticcheck import lint_source
        from repro.staticcheck.framework import get_rule

        def rules_hit(source, module):
            findings = lint_source(source, module=module,
                                   rules=[get_rule("GT-leak")])
            return [f.rule for f in findings]

        # A controller module importing the hazard model is a
        # ground-truth leak — the fence extends over repro.autonomics.
        assert rules_hit("import repro.failures.hazards\n",
                         module="repro.autonomics.fixture") == ["GT-leak"]
        assert rules_hit("from repro.failures import hazards\n",
                         module="repro.autonomics.controller") == ["GT-leak"]
        # The sanctioned surface stays importable.
        assert rules_hit(
            "from repro.failures.engine import SimulationSession\n",
            module="repro.autonomics.fixture",
        ) == []

    def test_autonomics_package_is_hazard_free(self):
        # Belt and braces next to the lint rule: no module in the
        # package imports the hazard or generation internals.
        import ast
        import pathlib

        import repro.autonomics

        package_dir = pathlib.Path(repro.autonomics.__file__).parent
        for path in package_dir.glob("*.py"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module or ''}.{alias.name}"
                             for alias in node.names]
                else:
                    continue
                for name in names:
                    assert "hazards" not in name, (path, name)


class TestExperimentWiring:
    def test_registered_experiment(self):
        from repro.reporting.experiments import EXPERIMENTS

        experiment = EXPERIMENTS["autonomics"]
        assert experiment.stages == ("autonomics:compare",)
        assert "repro.autonomics.experiment" in experiment.code

    def test_pipeline_carries_the_stage(self):
        from repro.pipeline.stages import analysis_stages

        config = SimulationConfig.small()
        names = [stage.name for stage in analysis_stages(config)]
        assert "autonomics:compare" in names

    def test_serve_query_parses_and_validates(self):
        from repro.serve.queries import parse_query

        params = dict(parse_query("autonomics", {}).params)
        assert params["policies"] == "null,reactive,predictive"
        assert params["sla_level"] == 0.95
        with pytest.raises(DataError):
            parse_query("autonomics", {"sla_level": "1.5"})
        with pytest.raises(DataError):
            parse_query("autonomics", {"decide_every_days": "0"})
        with pytest.raises(DataError):
            parse_query("autonomics", {"policies": ","})
