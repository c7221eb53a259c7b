"""Targeted tests for paths the main suites exercise only indirectly."""

import numpy as np
import pytest

from repro.analysis.clustering import Cluster, clusters_from_tree
from repro.analysis.cart.tree import RegressionTree, TreeParams
from repro.analysis.multi_factor import MultiFactorModel
from repro.analysis.single_factor import SingleFactorModel
from repro.decisions.tco import TcoModel
from repro.reporting.experiments import run_all
from repro.telemetry.schema import FeatureKind, FeatureSpec, Schema
from repro.telemetry.table import Table


@pytest.fixture(scope="module")
def grid_table() -> Table:
    rng = np.random.default_rng(20)
    n = 2000
    x = rng.uniform(0, 10, n)
    group = rng.integers(0, 2, n).astype(float)
    y = np.where(x <= 5, 0.0, 2.0) + group * 3.0 + rng.normal(0, 0.2, n)
    schema = Schema((FeatureSpec("g", FeatureKind.NOMINAL, ("a", "b")),))
    return Table({"x": x, "g": group, "y": y}, schema=schema)


class TestFacadePd2d:
    def test_normalized_effect_2d_surface(self, grid_table):
        model = MultiFactorModel.from_formula(
            "y ~ x, g", grid_table,
            params=TreeParams(max_depth=4, min_split=50, min_bucket=20,
                              cp=1e-3),
        )
        surface = model.normalized_effect_2d(
            "x", "g", np.array([2.0, 8.0]), np.array([0.0, 1.0]),
        )
        assert surface.shape == (2, 2)
        # Both planted effects appear along their axes.
        assert surface[1, 0] - surface[0, 0] == pytest.approx(2.0, abs=0.3)
        assert surface[0, 1] - surface[0, 0] == pytest.approx(3.0, abs=0.3)


class TestSingleFactorPooled:
    def test_pooled_cdf_covers_all_rows(self, grid_table):
        sf = SingleFactorModel(grid_table, "y")
        cdf = sf.pooled_cdf()
        assert cdf.n == grid_table.n_rows
        assert cdf.evaluate(float(grid_table.column("y").max())) == 1.0


class TestClusterHelpers:
    @pytest.fixture(scope="class")
    def clusters(self, grid_table):
        matrix, schema = grid_table.feature_matrix(["x", "g"])
        tree = RegressionTree(TreeParams(max_depth=3, min_split=50,
                                         min_bucket=20, cp=1e-3)).fit(
            matrix, grid_table.column("y").astype(float), schema,
        )
        return clusters_from_tree(tree, matrix), grid_table.n_rows

    def test_clusters_cover_all_rows(self, clusters):
        found, n_rows = clusters
        assert sum(c.size for c in found) == n_rows

    def test_cluster_size_property(self):
        cluster = Cluster(cluster_id=1, member_rows=np.array([1, 5, 9]),
                          prediction=0.5, description="x <= 3")
        assert cluster.size == 3


class TestRegistryRunAll:
    def test_run_all_renders_every_experiment(self, small_context):
        rendered = run_all(small_context)
        assert len(rendered) == 26
        assert all(isinstance(text, str) and text for text in rendered.values())


class TestTcoProcurement:
    def test_sku_procurement_tco_components(self):
        tco = TcoModel()
        base = tco.sku_procurement_tco(100, 100.0, 0.0, 0.0)
        with_spares = tco.sku_procurement_tco(100, 100.0, 0.2, 0.0)
        with_opex = tco.sku_procurement_tco(100, 100.0, 0.0, 0.01)
        assert with_spares > base
        assert with_opex > base
        # Spare CapEx scales with (price + overhead).
        expected_spare_cost = 0.2 * 100 * (100.0 + tco.params.facility_overhead)
        assert with_spares - base == pytest.approx(expected_spare_cost)


class TestRebuildImportance:
    def test_recomputes_from_structure(self, grid_table):
        matrix, schema = grid_table.feature_matrix(["x", "g"])
        tree = RegressionTree(TreeParams(max_depth=3, min_split=50,
                                         min_bucket=20, cp=1e-3)).fit(
            matrix, grid_table.column("y").astype(float), schema,
        )
        before = tree.importance()
        tree.rebuild_importance()
        after = tree.importance()
        assert set(before) == set(after)
        for name in before:
            assert before[name] == pytest.approx(after[name])
