"""One report run ranks SKUs once and grows each MF spare tree once.

The paper answers Q2 (Figs 14-15) and Q1 (Figs 1, 10-12, Table IV)
with one analysis per dataset.  These tests count the work one report
does: ``compare_skus`` calls through every module that bound it, and
``RegressionTree.fit`` calls keyed by their inputs.
"""

import hashlib
import sys

import numpy as np
import pytest

import repro
import repro.decisions.sku_ranking as sku_ranking
from repro.analysis.cart.tree import RegressionTree
from repro.pipeline import build_report_pipeline, render_stage_name
from repro.reporting.context import AnalysisContext
from repro.reporting.experiments import get_experiment

#: Small enough to render quickly, large enough for two W6 clusters.
CONFIG = repro.SimulationConfig.small(seed=5, scale=0.08, n_days=200)


@pytest.fixture()
def compare_calls(monkeypatch):
    """Count ``compare_skus`` calls wherever a ``repro`` module bound it."""
    calls = []
    original = sku_ranking.compare_skus

    def counted(*args, **kwargs):
        calls.append(args[0] if args else kwargs["result"])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture()
def fit_digests(monkeypatch):
    """One input digest per ``RegressionTree.fit`` call, in call order."""
    digests = []
    original = RegressionTree.fit

    def recorded(tree, matrix, y, schema, sample_weight=None):
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(matrix, dtype=float).tobytes())
        digest.update(np.ascontiguousarray(y, dtype=float).tobytes())
        digest.update(repr((list(schema), tree.params)).encode())
        digests.append(digest.hexdigest())
        return original(tree, matrix, y, schema, sample_weight)

    monkeypatch.setattr(RegressionTree, "fit", recorded)
    return digests


def test_report_ranks_skus_once_per_run(compare_calls):
    """fig14, fig15 and the three field-data payloads: one ranking of
    the pristine run, one per degraded severity (was 5)."""
    pipeline = build_report_pipeline(
        CONFIG, experiment_ids=("fig14", "fig15", "fielddata"))
    for experiment_id in ("fig14", "fig15", "fielddata"):
        pipeline.get(render_stage_name(experiment_id))
    assert len(compare_calls) == 3


def test_report_grows_each_mf_spare_tree_once(fit_digests):
    """fig01, fig10, fig11, fig12 and table4 share the daily
    provisioner: one tree per (workload, SLA) MF question (was 27)."""
    ids = ("fig01", "fig10", "fig11", "fig12", "table4")
    pipeline = build_report_pipeline(CONFIG, experiment_ids=ids)
    pipeline.get("simulate")
    del fit_digests[:]
    for experiment_id in ids:
        pipeline.get(render_stage_name(experiment_id))
    # W1 and W6 at the paper's three SLAs.
    assert len(fit_digests) == 6
    assert len(set(fit_digests)) == 6


def test_context_without_pipeline_ranks_once(compare_calls):
    run = repro.simulate(CONFIG)
    context = AnalysisContext(run)
    texts = [get_experiment(eid).render(context) for eid in ("fig14", "fig15")]
    assert all(texts)
    assert compare_calls == [run]


def test_mf_plans_share_no_arrays():
    """The kept clustering hands every plan fresh member arrays."""
    from repro.decisions.availability import AvailabilitySla
    from repro.decisions.spares import SpareProvisioner

    provisioner = SpareProvisioner(repro.simulate(CONFIG))
    first = provisioner.multi_factor("W6", AvailabilitySla(1.0))
    expected = [cluster.rack_indices.copy() for cluster in first.clusters]
    for cluster in first.clusters:
        cluster.rack_indices[:] = -1
    second = provisioner.multi_factor("W6", AvailabilitySla(1.0))
    assert [c.description for c in second.clusters] == [
        c.description for c in first.clusters]
    for cluster, members in zip(second.clusters, expected):
        assert np.array_equal(cluster.rack_indices, members)
