"""Closed-loop policy runs and the same-seed what-if comparison.

One :func:`run_policy` call drives a full control loop: a
:class:`~repro.failures.engine.SimulationSession` steps through the
observation window while a :class:`~repro.stream.analyzer.StreamAnalyzer`
(SLA gauge + drift detector, optionally a
:class:`~repro.predict.monitor.PredictiveMonitor`) rides the event feed;
at every decision interval the controller observes the window's alerts
and answers with actions, which route through the session's mutation
points (physical) and the :class:`~repro.autonomics.spares.SpareLedger`
(operational).

:func:`compare_policies` replays the *same seed* under k controllers.
Spare-only policies share one physical realization — every scored
delta is the policy's doing — while setpoint/SKU policies diverge only
at the generation frontier, keeping the comparison honest.  Scoring
reuses the paper's decision machinery: SLA attainment from the
streamed μ matrix against the ledger's provisioning trajectory, TCO
from :class:`~repro.decisions.tco.TcoModel` plus
:func:`~repro.decisions.proactive.evaluate_scored` intervention
accounting.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..decisions.availability import AvailabilitySla
from ..decisions.proactive import ProactivePolicy, evaluate_scored
from ..decisions.tco import TcoModel
from ..errors import ConfigError
from ..failures.engine import SimulationResult, SimulationSession
from ..failures.tickets import HARDWARE_FAULTS
from ..stream.analyzer import StreamAnalyzer
from ..stream.blocks import StreamInventory
from ..telemetry.aggregate import lambda_matrix
from .actions import OrderSpares
from .controller import Controller, Observation, PredictiveController, make_controller
from .feed import SessionEventFeed
from .spares import SpareLedger

if TYPE_CHECKING:
    from ..config import SimulationConfig
    from ..predict.model import TwoStagePredictor

#: Default closed-loop scenario knobs (shared by the experiment, the
#: serve query, the CLI and the smoke job).
DEFAULT_SLA_LEVEL = 0.95
DEFAULT_DECIDE_EVERY_DAYS = 7
DEFAULT_INITIAL_SPARE_FRACTION = 0.02
#: Scoring scope starts here: monitors need a feature warmup, and both
#: policies' first orders can only land after a lead time.
DEFAULT_WARMUP_DAYS = 28
#: Cost of one rack-day in SLA breach, in the same units as the
#: failure/intervention costs (ProactivePolicy prices one failure at
#: 8 units; a full day of a rack below its availability target — SLA
#: credits, degraded service — is substantially worse).  This is what
#: makes availability *worth buying*: without it the what-if would
#: always favor the policy that provisions least.
DEFAULT_SLA_PENALTY_UNITS = 150.0


@dataclass
class PolicyRunOutcome:
    """Everything one controlled run produced, scored.

    Attributes:
        policy_id: the controller's identifier.
        result: the (possibly action-perturbed) simulation result.
        sla_attainment: fraction of in-scope rack-days meeting the SLA.
        breach_rack_days: in-scope rack-days in breach.
        tco_units: total cost of ownership in TCO-model units
            (deployment + failure/intervention side).
        deployment_units: capacity + time-averaged spares CapEx side.
        failure_units: failure costs net of prevented, intervention
            costs, and the SLA-breach penalty on breach rack-days.
        failures_in_scope: hardware failures inside the scoring scope.
        failures_prevented: failures averted by proactive interventions.
        n_interventions: proactive interventions priced.
        spare_servers_ordered: total spare servers ordered.
        mean_spare_fraction: fleet-wide time-averaged spare fraction.
        n_alerts: total monitor alerts over the run.
        n_actions: total actions applied.
    """

    policy_id: str
    result: SimulationResult
    sla_attainment: float
    breach_rack_days: int
    tco_units: float
    deployment_units: float
    failure_units: float
    failures_in_scope: float
    failures_prevented: float
    n_interventions: int
    spare_servers_ordered: int
    mean_spare_fraction: float
    n_alerts: int
    n_actions: int

    def score_row(self) -> dict:
        """JSON-safe scoring row (no result bundle)."""
        return {
            "policy": self.policy_id,
            "sla_attainment": self.sla_attainment,
            "breach_rack_days": self.breach_rack_days,
            "tco_units": self.tco_units,
            "deployment_units": self.deployment_units,
            "failure_units": self.failure_units,
            "failures_in_scope": self.failures_in_scope,
            "failures_prevented": self.failures_prevented,
            "n_interventions": self.n_interventions,
            "spare_servers_ordered": self.spare_servers_ordered,
            "mean_spare_fraction": self.mean_spare_fraction,
            "n_alerts": self.n_alerts,
            "n_actions": self.n_actions,
        }


def train_shakedown_predictor(
    config: "SimulationConfig",
    horizon_days: int = 3,
) -> "TwoStagePredictor":
    """Fit the predictive controller's model on a shakedown run.

    The model trains on a *different seed* of the same fleet (a
    commissioning/shakedown period), so the controlled run is entirely
    out-of-sample — no leakage from the stream being controlled.
    """
    from ..predict import build_feature_dataset, train_predictor

    shakedown = dataclasses.replace(config, seed=config.seed + 1)
    dataset = build_feature_dataset(shakedown_result(shakedown), horizon_days=horizon_days)
    model, _, _ = train_predictor(dataset, horizon_days=horizon_days)
    return model


def shakedown_result(config: "SimulationConfig") -> SimulationResult:
    """The shakedown run itself (separate hook for caching/tests)."""
    from ..failures.engine import simulate

    return simulate(config)


def _window_column_means(rows: np.ndarray) -> np.ndarray:
    """Per-column mean ignoring NaN dropouts (NaN when all dropped)."""
    mask = np.isfinite(rows)
    counts = mask.sum(axis=0)
    sums = np.where(mask, rows, 0.0).sum(axis=0)
    out = np.full(rows.shape[1], np.nan)
    seen = counts > 0
    out[seen] = sums[seen] / counts[seen]
    return out


def run_policy(
    config: "SimulationConfig",
    controller: Controller,
    sla_level: float = DEFAULT_SLA_LEVEL,
    initial_spare_fraction: float = DEFAULT_INITIAL_SPARE_FRACTION,
    decide_every_days: int = DEFAULT_DECIDE_EVERY_DAYS,
    warmup_days: int = DEFAULT_WARMUP_DAYS,
    predictor: "TwoStagePredictor | None" = None,
    predict_threshold: float = 0.6,
    proactive_policy: ProactivePolicy | None = None,
    sla_penalty_units: float = DEFAULT_SLA_PENALTY_UNITS,
) -> PolicyRunOutcome:
    """Drive one controller through a full closed-loop run and score it."""
    if decide_every_days < 1:
        raise ConfigError(f"decide_every_days must be >= 1, got {decide_every_days}")
    sla = AvailabilitySla(sla_level)
    session = SimulationSession(config)
    inventory = StreamInventory.from_fleet(session.fleet, config.n_days)
    ledger = SpareLedger(
        inventory.n_servers, config.n_days, initial_spare_fraction,
    )
    analyzer = StreamAnalyzer(
        inventory, sla=sla, spare_fraction=ledger.fraction_now(), drift=True,
    )
    if controller.wants_predictions:
        if predictor is None:
            predictor = train_shakedown_predictor(config)
        from ..predict import PredictiveMonitor

        analyzer.attach_monitor(PredictiveMonitor(
            inventory, predictor, threshold=predict_threshold,
        ))
    feed = SessionEventFeed(session, inventory)
    capacity = inventory.n_servers.astype(np.int64)
    alerts_seen = 0
    n_actions = 0

    while not session.exhausted:
        window_start = session.day
        window = min(decide_every_days, config.n_days - window_start)
        session.step(window)
        # Spares delivered by the window's start were live during it.
        if ledger.deliver_until(window_start) and analyzer.monitor is not None:
            analyzer.monitor.set_spare_fraction(ledger.fraction_now())
        for block in feed.blocks_until(session.day):
            analyzer.process_block(block)
        new_alerts = tuple(analyzer.alerts[alerts_seen:])
        alerts_seen = len(analyzer.alerts)
        observation = Observation(
            day=session.day,
            window_days=window,
            alerts=new_alerts,
            down=(analyzer.monitor.down.copy() if analyzer.monitor is not None
                  else np.zeros(inventory.n_racks, dtype=np.int64)),
            capacity=capacity,
            spares=ledger.spares.copy(),
            racks_on_order=frozenset(ledger.racks_on_order()),
            observed_temp_f=_window_column_means(
                session.bms.temp_f[window_start:session.day]
            ),
            observed_rh=_window_column_means(
                session.bms.rh[window_start:session.day]
            ),
        )
        actions = controller.decide(observation)
        n_actions += len(actions)
        for action in actions:
            if isinstance(action, OrderSpares):
                ledger.book(
                    session.day, action.rack_index,
                    action.n_servers, action.lead_time_days,
                )
        if not session.exhausted:
            session.apply(actions)
    analyzer.finish()
    result = session.result()
    return _score_run(
        result=result,
        controller=controller,
        analyzer=analyzer,
        ledger=ledger,
        sla=sla,
        warmup_days=warmup_days,
        proactive_policy=proactive_policy or ProactivePolicy(),
        n_actions=n_actions,
        sla_penalty_units=sla_penalty_units,
    )


def _score_run(
    result: SimulationResult,
    controller: Controller,
    analyzer: StreamAnalyzer,
    ledger: SpareLedger,
    sla: AvailabilitySla,
    warmup_days: int,
    proactive_policy: ProactivePolicy,
    n_actions: int,
    sla_penalty_units: float,
) -> PolicyRunOutcome:
    """Score one controlled run: SLA attainment + TCO."""
    n_days = result.n_days
    warmup = min(warmup_days, n_days)
    capacity = ledger.capacity.astype(float)

    # SLA attainment: streamed daily μ (peak concurrent down per rack
    # per day) against the ledger's provisioning trajectory, with the
    # monitor's shortfall tolerance and float fuzz.
    mu_daily = analyzer.mu.matrix().T  # (n_windows, n_racks)
    trajectory = ledger.spares_trajectory()[:mu_daily.shape[0]]
    allowed = trajectory + sla.shortfall * capacity[np.newaxis, :]
    breach = mu_daily > allowed + 1e-9 * np.maximum(capacity, 1.0)[np.newaxis, :]
    in_scope = breach[warmup:]
    breach_rack_days = int(in_scope.sum())
    attainment = 1.0 - breach_rack_days / max(in_scope.size, 1)

    # Failure-cost side: hardware failure count over the same scope for
    # every policy; proactive interventions (predictive only) prevent a
    # slice of them and are priced per intervention.
    hardware = lambda_matrix(
        result, list(HARDWARE_FAULTS), dedupe_batches=False,
    ).astype(float)
    failures_in_scope = float(hardware[:, warmup:].sum())
    prevented = 0.0
    interventions = 0
    flagged = getattr(controller, "flagged", None)
    if isinstance(controller, PredictiveController) and flagged:
        racks = np.array([rack for rack, _, _ in flagged], dtype=np.int64)
        days = np.array([day for _, day, _ in flagged], dtype=np.int64)
        scores = np.array([score for _, _, score in flagged], dtype=float)
        outcome = evaluate_scored(result, racks, days, scores, proactive_policy)
        prevented = float(outcome.failures_prevented)
        interventions = int(outcome.n_interventions)
    failure_units = (
        (failures_in_scope - prevented) * proactive_policy.failure_cost
        + interventions * proactive_policy.intervention_cost
        + breach_rack_days * sla_penalty_units
    )

    tco = TcoModel()
    deployment_units = tco.deployment_tco(
        int(capacity.sum()), ledger.mean_fraction(),
    )
    return PolicyRunOutcome(
        policy_id=controller.policy_id,
        result=result,
        sla_attainment=float(attainment),
        breach_rack_days=breach_rack_days,
        tco_units=float(deployment_units + failure_units),
        deployment_units=float(deployment_units),
        failure_units=float(failure_units),
        failures_in_scope=failures_in_scope,
        failures_prevented=prevented,
        n_interventions=interventions,
        spare_servers_ordered=ledger.total_ordered(),
        mean_spare_fraction=ledger.mean_fraction(),
        n_alerts=len(analyzer.alerts),
        n_actions=n_actions,
    )


def compare_policies(
    config: "SimulationConfig",
    policies: tuple[str, ...] = ("reactive", "predictive"),
    sla_level: float = DEFAULT_SLA_LEVEL,
    initial_spare_fraction: float = DEFAULT_INITIAL_SPARE_FRACTION,
    decide_every_days: int = DEFAULT_DECIDE_EVERY_DAYS,
    warmup_days: int = DEFAULT_WARMUP_DAYS,
    sla_penalty_units: float = DEFAULT_SLA_PENALTY_UNITS,
) -> dict:
    """Replay the same seed under each policy and tabulate the scores.

    Returns a JSON-safe payload: one score row per policy plus a
    ``verdict`` block comparing the predictive controller against the
    reactive baseline when both ran (the ROADMAP's closed-loop
    question: does acting on predictions beat break/fix at equal or
    lower cost?).
    """
    if not policies:
        raise ConfigError("need at least one policy to compare")
    controllers = [make_controller(policy_id) for policy_id in policies]
    predictor = None
    if any(controller.wants_predictions for controller in controllers):
        predictor = train_shakedown_predictor(config)
    outcomes: list[PolicyRunOutcome] = []
    for controller in controllers:
        outcomes.append(run_policy(
            config, controller,
            sla_level=sla_level,
            initial_spare_fraction=initial_spare_fraction,
            decide_every_days=decide_every_days,
            warmup_days=warmup_days,
            predictor=predictor,
            sla_penalty_units=sla_penalty_units,
        ))
    rows = [outcome.score_row() for outcome in outcomes]
    by_id = {row["policy"]: row for row in rows}
    payload = {
        "scenario": {
            "seed": config.seed,
            "n_days": config.n_days,
            "sla_level": sla_level,
            "initial_spare_fraction": initial_spare_fraction,
            "decide_every_days": decide_every_days,
            "warmup_days": warmup_days,
            "sla_penalty_units": sla_penalty_units,
            "policies": list(policies),
        },
        "policies": rows,
    }
    if "reactive" in by_id and "predictive" in by_id:
        reactive, predictive = by_id["reactive"], by_id["predictive"]
        payload["verdict"] = {
            "predictive_beats_reactive_sla": bool(
                predictive["sla_attainment"] >= reactive["sla_attainment"]
            ),
            "predictive_tco_leq_reactive": bool(
                predictive["tco_units"] <= reactive["tco_units"]
            ),
            "sla_attainment_delta": (
                predictive["sla_attainment"] - reactive["sla_attainment"]
            ),
            "tco_delta_units": predictive["tco_units"] - reactive["tco_units"],
        }
    return payload
