"""Stage-level invalidation semantics of the report pipeline.

The matrix this file pins down is the tentpole guarantee of the
artifact DAG: touching the *config* re-runs everything, touching one
*analysis module* re-runs exactly the stages downstream of it, and
touching a *render-only parameter* re-runs renders without ever
re-simulating.  Code edits are simulated by monkeypatching
:func:`repro.pipeline.core.source_fingerprint`, and re-execution is
observed through the pipeline's recorded
:class:`~repro.pipeline.core.StageExecution` outcomes — ``computed``
means the stage's ``run`` callable actually ran.
"""

import pytest

import repro
import repro.pipeline.core as pipeline_core
from repro.errors import ReproError
from repro.fielddata.robustness import DEFAULT_SEVERITIES
from repro.pipeline import (
    ArtifactStore,
    analysis_stages,
    build_report_pipeline,
    render_stage_name,
    source_fingerprint,
)
from repro.reporting.context import (
    SIMULATE_STAGE,
    SKU_RANKING_STAGE,
    AnalysisContext,
    component_provisioner_stage,
    fielddata_stage,
    provisioner_stage,
    rack_day_stage,
)
from repro.reporting.experiments import (
    EXPERIMENTS,
    FIELDDATA_SEVERITIES,
    get_experiment,
)

#: table1 renders from code only, fig02 needs ``rack_day:all``, fig10
#: needs ``provisioner:24h`` — three distinct invalidation footprints.
IDS = ("table1", "fig02", "fig10")

#: The renders below the Q2 and Q3 decision modules (fig18 cannot
#: normalize on this small fleet), with table1 as the untouched control.
DECISION_IDS = ("table1", "fig14", "fig15", "fig16", "fig17", "fielddata")

#: Q1-A (fig10, ``provisioner:24h``) and Q1-B (fig13,
#: ``component_provisioner:24h``), which share the spare-sizing kernel,
#: with table1 as the untouched control.
Q1_IDS = ("table1", "fig10", "fig13")


@pytest.fixture(scope="module")
def config():
    return repro.SimulationConfig.small(seed=21, scale=0.05, n_days=60)


@pytest.fixture(scope="module")
def cold_store(config, tmp_path_factory):
    """An artifact store after one cold render of every test experiment."""
    root = tmp_path_factory.mktemp("artifacts")
    resolve(config, root)
    return root


@pytest.fixture(scope="module")
def decisions_store(config, tmp_path_factory):
    """An artifact store after one cold render of DECISION_IDS."""
    root = tmp_path_factory.mktemp("decisions")
    resolve(config, root, ids=DECISION_IDS)
    return root


@pytest.fixture(scope="module")
def q1_store(config, tmp_path_factory):
    """An artifact store after one cold render of Q1_IDS."""
    root = tmp_path_factory.mktemp("q1")
    resolve(config, root, ids=Q1_IDS)
    return root


def resolve(config, root, render_params=None, ids=IDS):
    """Render ``ids`` through a fresh pipeline; return {stage: outcome}."""
    pipeline = build_report_pipeline(
        config, store=ArtifactStore(root),
        experiment_ids=ids, render_params=render_params,
    )
    for experiment_id in ids:
        pipeline.get(render_stage_name(experiment_id))
    return {e.stage: e.outcome for e in pipeline.executions}


def recomputed_renders(outcomes):
    """Experiment ids whose render stage ran."""
    return {stage[len("render:"):] for stage, outcome in outcomes.items()
            if stage.startswith("render:") and outcome == "computed"}


@pytest.fixture()
def touch_modules(monkeypatch, request):
    """Pretend the named modules' source changed (new fingerprints).

    The fake fingerprint is salted with the test's own name so two
    tests touching the same module never warm each other's entries in
    the shared ``cold_store``.
    """
    def _touch(*modules):
        real = pipeline_core.source_fingerprint

        def fake(name):
            if name in modules:
                return f"touched:{request.node.name}:{name}"
            return real(name)

        monkeypatch.setattr(pipeline_core, "source_fingerprint", fake)
    return _touch


@pytest.fixture()
def forbid_simulation(monkeypatch):
    """Any entry into the ticket generator fails the test."""
    import repro.failures.engine as engine

    def explode(*args, **kwargs):
        raise AssertionError("pipeline re-simulated")

    monkeypatch.setattr(engine, "_generate_tickets", explode)


class TestInvalidationMatrix:
    def test_warm_run_touches_only_render_artifacts(
            self, config, cold_store, forbid_simulation):
        """Untouched inputs: every render is a disk hit, nothing else runs."""
        outcomes = resolve(config, cold_store)
        assert outcomes == {
            render_stage_name(eid): "disk" for eid in IDS
        }

    def test_config_touch_recomputes_everything(self, config, cold_store):
        other = repro.SimulationConfig.small(seed=23, scale=0.05, n_days=60)
        outcomes = resolve(other, cold_store)
        assert outcomes[SIMULATE_STAGE] == "computed"
        for eid in IDS:
            assert outcomes[render_stage_name(eid)] == "computed"

    def test_decisions_touch_recomputes_decision_stages_only(
            self, config, cold_store, touch_modules, forbid_simulation):
        touch_modules("repro.decisions.spares")
        outcomes = resolve(config, cold_store)
        # fig10 and its provisioner re-run off the disk-loaded simulation;
        # the other two renders stay warm and the rack-day table never runs.
        assert outcomes[render_stage_name("fig10")] == "computed"
        assert outcomes[provisioner_stage(24.0)] == "computed"
        assert outcomes[SIMULATE_STAGE] == "disk"
        assert outcomes[render_stage_name("table1")] == "disk"
        assert outcomes[render_stage_name("fig02")] == "disk"
        assert rack_day_stage("all") not in outcomes

    def test_aggregate_touch_recomputes_table_consumers_only(
            self, config, cold_store, touch_modules, forbid_simulation):
        touch_modules("repro.telemetry.aggregate")
        outcomes = resolve(config, cold_store)
        assert outcomes[render_stage_name("fig02")] == "computed"
        assert outcomes[rack_day_stage("all")] == "computed"
        assert outcomes[SIMULATE_STAGE] == "disk"
        assert outcomes[render_stage_name("table1")] == "disk"
        assert outcomes[render_stage_name("fig10")] == "disk"
        assert provisioner_stage(24.0) not in outcomes

    def test_engine_touch_invalidates_the_root(
            self, config, cold_store, touch_modules):
        touch_modules("repro.failures.engine")
        outcomes = resolve(config, cold_store)
        assert outcomes[SIMULATE_STAGE] == "computed"
        for eid in IDS:
            assert outcomes[render_stage_name(eid)] == "computed"

    def test_sku_ranking_touch_recomputes_q2_consumers(
            self, config, decisions_store, touch_modules, forbid_simulation):
        touch_modules("repro.decisions.sku_ranking")
        outcomes = resolve(config, decisions_store, ids=DECISION_IDS)
        assert recomputed_renders(outcomes) == {"fig14", "fig15", "fielddata"}
        assert outcomes[SKU_RANKING_STAGE] == "computed"
        for severity in FIELDDATA_SEVERITIES:
            assert outcomes[fielddata_stage(severity)] == "computed"
        assert outcomes[SIMULATE_STAGE] == "disk"

    def test_climate_touch_recomputes_q3_consumers(
            self, config, decisions_store, touch_modules, forbid_simulation):
        touch_modules("repro.decisions.climate")
        outcomes = resolve(config, decisions_store, ids=DECISION_IDS)
        assert recomputed_renders(outcomes) == {"fig16", "fig17", "fielddata"}
        for severity in FIELDDATA_SEVERITIES:
            assert outcomes[fielddata_stage(severity)] == "computed"
        assert outcomes[SIMULATE_STAGE] == "disk"

    def test_kernel_touch_recomputes_both_provisioners(
            self, config, q1_store, touch_modules, forbid_simulation):
        touch_modules("repro.decisions.availability")
        outcomes = resolve(config, q1_store, ids=Q1_IDS)
        assert recomputed_renders(outcomes) == {"fig10", "fig13"}
        assert outcomes[provisioner_stage(24.0)] == "computed"
        assert outcomes[component_provisioner_stage(24.0)] == "computed"
        assert outcomes[SIMULATE_STAGE] == "disk"

    def test_spares_touch_leaves_component_spares_on_disk(
            self, config, q1_store, touch_modules, forbid_simulation):
        touch_modules("repro.decisions.spares")
        outcomes = resolve(config, q1_store, ids=Q1_IDS)
        assert recomputed_renders(outcomes) == {"fig10"}
        assert outcomes[render_stage_name("fig13")] == "disk"
        assert component_provisioner_stage(24.0) not in outcomes

    def test_component_spares_touch_leaves_fig10_on_disk(
            self, config, q1_store, touch_modules, forbid_simulation):
        touch_modules("repro.decisions.component_spares")
        outcomes = resolve(config, q1_store, ids=Q1_IDS)
        assert recomputed_renders(outcomes) == {"fig13"}
        assert outcomes[render_stage_name("fig10")] == "disk"
        assert provisioner_stage(24.0) not in outcomes

    def test_render_param_touch_never_resimulates(
            self, config, cold_store, forbid_simulation):
        outcomes = resolve(config, cold_store,
                           render_params={"revision": 2})
        assert outcomes[SIMULATE_STAGE] == "disk"
        for eid in IDS:
            assert outcomes[render_stage_name(eid)] == "computed"


class TestAcceptance:
    def test_decisions_edit_after_cold_report_skips_ticket_generation(
            self, config, cold_store, touch_modules, forbid_simulation):
        """The PR's acceptance criterion, verbatim.

        After a cold ``repro report``, editing only a
        ``repro.decisions`` parameter and re-running recomputes only
        the decision/render stages — ``_generate_tickets`` must never
        be called (the simulation comes back from the store).
        """
        touch_modules("repro.decisions.spares",
                      "repro.decisions.component_spares")
        pipeline = build_report_pipeline(
            config, store=ArtifactStore(cold_store), experiment_ids=IDS,
        )
        text = pipeline.get(render_stage_name("fig10"))
        assert "spare" in text.lower() or text  # rendered, not raised
        outcomes = {e.stage: e.outcome for e in pipeline.executions}
        assert outcomes == {
            SIMULATE_STAGE: "disk",
            provisioner_stage(24.0): "computed",
            render_stage_name("fig10"): "computed",
        }


class TestGoldenEquivalence:
    def test_pipeline_renders_match_direct_context_renders(self, tiny_run):
        """Every registry experiment renders bit-identically through the
        DAG and through a plain AnalysisContext (pre-refactor path)."""
        config = repro.SimulationConfig.small(seed=11, scale=0.05, n_days=120)
        pipeline = build_report_pipeline(config)
        pipeline.prime(SIMULATE_STAGE, tiny_run)
        for experiment_id in sorted(EXPERIMENTS):
            direct_context = AnalysisContext(tiny_run)
            try:
                direct = get_experiment(experiment_id).render(direct_context)
                direct_error = None
            except ReproError as error:
                direct, direct_error = None, str(error)
            try:
                piped = pipeline.get(render_stage_name(experiment_id))
                piped_error = None
            except ReproError as error:
                piped, piped_error = None, str(error)
            assert piped == direct, experiment_id
            assert piped_error == direct_error, experiment_id


class TestStageDeclarations:
    """The registry's declared deps line up with the real modules."""

    def test_fielddata_severities_cross_check(self):
        # reporting spells the severities literally (it must not import
        # fielddata at module scope); this pins them to the source of truth.
        assert FIELDDATA_SEVERITIES == DEFAULT_SEVERITIES

    def test_streaming_declaration_cross_check(self):
        from repro.stream import experiment as stream_experiment

        streaming = get_experiment("streaming")
        assert streaming.stages == stream_experiment.STAGE_DEPS
        assert streaming.code == stream_experiment.CODE_MODULES

    def test_every_declared_stage_exists_in_catalogue(self, config):
        catalogue = {stage.name for stage in analysis_stages(config)}
        for experiment_id, experiment in EXPERIMENTS.items():
            missing = set(experiment.stages) - catalogue
            assert not missing, (experiment_id, missing)

    def test_climate_figures_declare_climate_code(self):
        for experiment_id in ("fig16", "fig17", "fig18"):
            assert ("repro.decisions.climate"
                    in get_experiment(experiment_id).code), experiment_id

    def test_every_declared_code_module_fingerprints(self):
        for experiment in EXPERIMENTS.values():
            for module in experiment.code:
                assert source_fingerprint(module)

    def test_severity_zero_payload_matches_pristine_analysis(self, tiny_run):
        """The noise sweep's sev-0 point goes through degrade→clean like
        every other severity; the loop must be bit-identical to skipping
        it (the shortcut the sweep used to carry)."""
        from repro.fielddata.robustness import (
            headline_metrics,
            noise_point_payload,
        )

        import math

        payload = noise_point_payload(tiny_run, 0.0)
        pristine = headline_metrics(tiny_run)
        assert set(payload["metrics"]) == set(pristine)
        for name, value in pristine.items():
            observed = payload["metrics"][name]
            if math.isnan(value):
                assert math.isnan(observed), name
            else:
                assert observed == value, name
