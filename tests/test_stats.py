"""Distribution-utility tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import DataError
from repro.telemetry.stats import (
    BinSpec,
    binned_mean_sd,
    ecdf,
    make_range_bins,
    weighted_mean,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e6, max_value=1e6)


class TestEcdf:
    def test_probabilities_reach_one(self):
        cdf = ecdf(np.array([3.0, 1.0, 2.0]))
        assert cdf.probabilities[-1] == pytest.approx(1.0)

    def test_evaluate(self):
        cdf = ecdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert cdf.evaluate(0.5) == 0.0
        assert cdf.evaluate(2.0) == pytest.approx(0.5)
        assert cdf.evaluate(10.0) == 1.0

    def test_quantile_extremes(self):
        cdf = ecdf(np.array([5.0, 1.0, 3.0]))
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 5.0

    def test_quantile_interior(self):
        cdf = ecdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert cdf.quantile(0.5) == 2.0
        assert cdf.quantile(0.75) == 3.0

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError):
            ecdf(np.array([]))

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            ecdf(np.array([1.0, np.nan]))

    def test_invalid_quantile_level(self):
        cdf = ecdf(np.array([1.0]))
        with pytest.raises(DataError):
            cdf.quantile(1.5)

    @given(st.lists(finite_floats, min_size=1, max_size=50),
           st.floats(min_value=0.01, max_value=1.0))
    def test_quantile_is_a_sample_value_with_enough_mass(self, sample, q):
        cdf = ecdf(np.array(sample))
        value = cdf.quantile(q)
        assert value in cdf.values
        assert cdf.evaluate(value) >= q - 1e-9

    @given(st.lists(finite_floats, min_size=2, max_size=50))
    def test_probabilities_monotone(self, sample):
        cdf = ecdf(np.array(sample))
        assert np.all(np.diff(cdf.probabilities) > 0)


class TestBins:
    def test_make_range_bins_labels(self):
        bins = make_range_bins([20.0, 30.0], unit="%")
        assert bins.labels == ("<20%", "20-30%", ">30%")

    def test_assignment(self):
        bins = make_range_bins([10.0, 20.0])
        assert bins.assign(np.array([5.0, 10.0, 15.0, 25.0])).tolist() == [0, 1, 1, 2]

    def test_unsorted_edges_rejected(self):
        with pytest.raises(DataError):
            BinSpec(edges=(5.0, 3.0), labels=("a", "b", "c"))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            BinSpec(edges=(1.0,), labels=("only",))

    def test_empty_edges_rejected(self):
        with pytest.raises(DataError):
            make_range_bins([])


class TestBinnedMeanSd:
    def test_mean_sd_per_bin(self):
        means, sds, counts = binned_mean_sd(
            np.array([0, 0, 1]), np.array([1.0, 3.0, 10.0]), 3
        )
        assert means[0] == pytest.approx(2.0)
        assert sds[0] == pytest.approx(1.0)
        assert means[1] == 10.0
        assert counts.tolist() == [2, 1, 0]

    def test_empty_bin_is_nan(self):
        means, sds, counts = binned_mean_sd(np.array([0]), np.array([1.0]), 2)
        assert np.isnan(means[1])
        assert counts[1] == 0

    def test_misaligned_rejected(self):
        with pytest.raises(DataError):
            binned_mean_sd(np.array([0, 1]), np.array([1.0]), 2)


class TestWeightedMean:
    def test_basic(self):
        assert weighted_mean(np.array([1.0, 3.0]), np.array([1.0, 3.0])) == pytest.approx(2.5)

    def test_zero_weights_rejected(self):
        with pytest.raises(DataError):
            weighted_mean(np.array([1.0]), np.array([0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            weighted_mean(np.array([1.0, 2.0]), np.array([1.0]))
