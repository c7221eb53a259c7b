"""CART criterion tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.cart.criteria import (
    gini_impurity,
    node_mean,
    node_sse,
    prefix_sums,
    split_sse,
)
from repro.errors import DataError

samples = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=2, max_size=40,
)


class TestNodeSse:
    def test_constant_node_has_zero_sse(self):
        assert node_sse(np.full(5, 3.0)) == pytest.approx(0.0)

    def test_matches_numpy_variance(self):
        y = np.array([1.0, 2.0, 4.0, 8.0])
        assert node_sse(y) == pytest.approx(np.var(y) * len(y))

    def test_weighted_sse(self):
        y = np.array([0.0, 10.0])
        w = np.array([3.0, 1.0])
        mean = 10.0 / 4.0
        expected = 3 * mean**2 + (10 - mean) ** 2
        assert node_sse(y, w) == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            node_sse(np.array([]))

    def test_zero_weights_rejected(self):
        with pytest.raises(DataError):
            node_sse(np.array([1.0]), np.array([0.0]))


class TestNodeMean:
    def test_weighted_mean(self):
        assert node_mean(np.array([0.0, 10.0]), np.array([1.0, 3.0])) == pytest.approx(7.5)

    def test_unweighted(self):
        assert node_mean(np.array([2.0, 4.0])) == 3.0


class TestGini:
    def test_pure_node_zero(self):
        assert gini_impurity(np.array([1, 1, 1])) == pytest.approx(0.0)

    def test_balanced_binary_half(self):
        assert gini_impurity(np.array([0, 1, 0, 1])) == pytest.approx(0.5)

    def test_three_way_uniform(self):
        assert gini_impurity(np.array([0, 1, 2])) == pytest.approx(2.0 / 3.0)

    def test_weights_shift_impurity(self):
        labels = np.array([0, 1])
        heavy_zero = gini_impurity(labels, np.array([9.0, 1.0]))
        assert heavy_zero < 0.5


def scan(y, w):
    """SSE of (left, right) at every prefix cut, as the grower scores it."""
    return split_sse(prefix_sums(y, w), slice(0, len(y) - 1))


class TestSplitScan:
    @given(samples)
    def test_matches_direct_computation(self, values):
        y = np.array(values)
        w = np.ones(len(y))
        left_sse, right_sse = scan(y, w)
        for i in range(len(y) - 1):
            assert left_sse[i] == pytest.approx(node_sse(y[:i + 1]), abs=1e-6)
            assert right_sse[i] == pytest.approx(node_sse(y[i + 1:]), abs=1e-6)

    @given(samples)
    def test_split_never_increases_total_sse(self, values):
        y = np.array(values)
        w = np.ones(len(y))
        left_sse, right_sse = scan(y, w)
        parent = node_sse(y)
        assert np.all(left_sse + right_sse <= parent + 1e-6)

    def test_weighted_scan(self):
        y = np.array([0.0, 0.0, 10.0, 10.0])
        w = np.array([1.0, 1.0, 2.0, 2.0])
        left_sse, right_sse = scan(y, w)
        # Splitting between the 0s and 10s yields zero SSE on both sides.
        assert left_sse[1] + right_sse[1] == pytest.approx(0.0, abs=1e-9)
