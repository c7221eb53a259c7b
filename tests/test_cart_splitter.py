"""Best-split search tests."""

import numpy as np
import pytest

from repro.analysis.cart.splitter import Split, best_split_for_feature
from repro.analysis.cart.tree import RegressionTree, TreeParams
from repro.errors import DataError, FitError
from repro.telemetry.schema import FeatureKind, FeatureSpec, Schema


def continuous(name="x"):
    return FeatureSpec(name, FeatureKind.CONTINUOUS)


def nominal(name="c", k=4):
    return FeatureSpec(name, FeatureKind.NOMINAL,
                       tuple(f"cat{i}" for i in range(k)))


class TestThresholdSplits:
    def test_recovers_step_location(self):
        x = np.linspace(0, 10, 200)
        y = np.where(x <= 4.0, 1.0, 5.0)
        split = best_split_for_feature(x, y, np.ones(200), continuous(), 0, 5)
        assert split is not None
        assert split.threshold == pytest.approx(4.0, abs=0.2)
        assert split.gain > 0

    def test_no_split_on_constant_response(self):
        x = np.linspace(0, 1, 50)
        y = np.full(50, 2.0)
        split = best_split_for_feature(x, y, np.ones(50), continuous(), 0, 5)
        assert split is None or split.gain == pytest.approx(0.0, abs=1e-9)

    def test_no_split_on_constant_feature(self):
        x = np.full(50, 1.0)
        y = np.random.default_rng(0).normal(size=50)
        assert best_split_for_feature(x, y, np.ones(50), continuous(), 0, 5) is None

    def test_min_bucket_respected(self):
        x = np.arange(10, dtype=float)
        y = np.where(x <= 0.5, 100.0, 0.0)  # best cut isolates one row
        split = best_split_for_feature(x, y, np.ones(10), continuous(), 0, 3)
        if split is not None:
            assert split.n_left >= 3
            assert split.n_right >= 3

    def test_too_few_rows_returns_none(self):
        x = np.array([1.0, 2.0])
        y = np.array([0.0, 1.0])
        assert best_split_for_feature(x, y, np.ones(2), continuous(), 0, 2) is None


class TestNominalSplits:
    def test_recovers_category_partition(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, 400).astype(float)
        y = np.where(np.isin(codes, [1, 3]), 10.0, 0.0) + rng.normal(0, 0.1, 400)
        split = best_split_for_feature(codes, y, np.ones(400), nominal(), 0, 10)
        assert split is not None
        assert split.left_categories is not None
        left = split.left_categories
        assert left in (frozenset({1, 3}), frozenset({0, 2}))

    def test_single_category_returns_none(self):
        codes = np.zeros(50)
        y = np.random.default_rng(0).normal(size=50)
        assert best_split_for_feature(codes, y, np.ones(50), nominal(), 0, 5) is None

    def test_goes_left_routes_by_membership(self):
        split = Split(
            feature_index=0, feature_name="c", kind=FeatureKind.NOMINAL,
            gain=1.0, n_left=1, n_right=1, left_categories=frozenset({0, 2}),
        )
        routed = split.goes_left(np.array([0.0, 1.0, 2.0, 3.0]))
        assert routed.tolist() == [True, False, True, False]


class TestSplitDataclass:
    def test_nominal_without_categories_rejected(self):
        with pytest.raises(DataError):
            Split(feature_index=0, feature_name="c", kind=FeatureKind.NOMINAL,
                  gain=1.0, n_left=1, n_right=1)

    def test_threshold_split_without_threshold_rejected(self):
        with pytest.raises(DataError):
            Split(feature_index=0, feature_name="x", kind=FeatureKind.CONTINUOUS,
                  gain=1.0, n_left=1, n_right=1)

    def test_describe_continuous(self):
        split = Split(feature_index=0, feature_name="temp_f",
                      kind=FeatureKind.CONTINUOUS, gain=1.0,
                      n_left=1, n_right=1, threshold=78.0)
        assert split.describe() == "temp_f <= 78"

    def test_describe_nominal_with_labels(self):
        spec = nominal()
        split = Split(feature_index=0, feature_name="c", kind=FeatureKind.NOMINAL,
                      gain=1.0, n_left=1, n_right=1,
                      left_categories=frozenset({0, 2}))
        assert split.describe(spec) == "c in {cat0, cat2}"

    def test_describe_ordinal_with_labels(self):
        spec = FeatureSpec("day", FeatureKind.ORDINAL, ("Sun", "Mon", "Tue"))
        split = Split(feature_index=0, feature_name="day", kind=FeatureKind.ORDINAL,
                      gain=1.0, n_left=1, n_right=1, threshold=1.5)
        assert split.describe(spec) == "day <= Mon"


class TestBestSplitAcrossFeatures:
    """The grower's cross-feature step, read off a one-split tree."""

    @staticmethod
    def root_split(matrix, y, specs, min_bucket):
        params = TreeParams(max_depth=1, min_split=2 * min_bucket,
                            min_bucket=min_bucket, cp=0.0)
        return RegressionTree(params).fit(matrix, y, Schema(tuple(specs))).root.split

    def test_picks_most_informative_feature(self):
        rng = np.random.default_rng(1)
        n = 300
        informative = rng.uniform(0, 1, n)
        noise = rng.uniform(0, 1, n)
        y = np.where(informative <= 0.5, 0.0, 4.0) + rng.normal(0, 0.1, n)
        matrix = np.column_stack([noise, informative])
        specs = [continuous("noise"), continuous("signal")]
        split = self.root_split(matrix, y, specs, 10)
        assert split is not None
        assert split.feature_name == "signal"
        assert split.feature_index == 1

    def test_schema_mismatch_rejected(self):
        with pytest.raises(FitError):
            self.root_split(np.zeros((5, 2)), np.zeros(5), [continuous()], 2)

    def test_mixed_types_handled(self):
        rng = np.random.default_rng(2)
        n = 200
        codes = rng.integers(0, 3, n).astype(float)
        x = rng.uniform(size=n)
        y = np.where(codes == 1, 5.0, 0.0)
        matrix = np.column_stack([x, codes])
        specs = [continuous("x"), nominal("c", 3)]
        split = self.root_split(matrix, y, specs, 10)
        assert split is not None
        assert split.feature_name == "c"
