"""Q2 (SKU ranking) and Q3 (climate) decision tests."""

import numpy as np
import pytest

from repro.analysis.cart.tree import RegressionTree
from repro.decisions.climate import (
    FIG16_TEMP_BINS,
    climate_group_rates,
    discover_climate_thresholds,
    temperature_binned_rates,
)
from repro.decisions.sku_ranking import (
    compare_skus,
    procurement_scenarios,
)
from repro.decisions.tco import TcoModel, TcoParams
from repro.errors import ConfigError, DataError


@pytest.fixture(scope="module")
def comparison_and_trees(small_context):
    """compare_skus on the small run, with the params of each tree it grew."""
    grown = []
    fit = RegressionTree.fit

    def counting_fit(tree, *args, **kwargs):
        grown.append(tree.params)
        return fit(tree, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RegressionTree, "fit", counting_fit)
        comparison = compare_skus(small_context.result,
                                  table=small_context.hardware_failures)
    return comparison, grown


@pytest.fixture(scope="module")
def comparison(comparison_and_trees):
    return comparison_and_trees[0]


class TestSkuComparisonFits:
    def test_grows_each_stratifier_once_and_nothing_else(
            self, comparison_and_trees):
        # λ and μ-fraction, each stratified once for the per-SKU stats
        # and once (shared by the ratio and the common-support stats)
        # for the S2/S4 pair.
        _, grown = comparison_and_trees
        assert len(grown) == 4


class TestSkuComparisonPins:
    """``compare_skus`` on ``small_context``, recorded before presorted
    CART growth (per-node search); relative, not bitwise, because the
    suite runs on unpinned numpy."""

    def test_s2_s4_ratios(self, comparison):
        assert comparison.mf_ratio("S2", "S4") == pytest.approx(
            float.fromhex("0x1.5e7911b0655bfp+1"), rel=1e-9)
        assert comparison.sf_ratio("S2", "S4") == pytest.approx(
            float.fromhex("0x1.1ffccd985da65p+3"), rel=1e-9)

    def test_mf_mean_per_sku(self, comparison):
        expected = {
            "S1": 0.06367080586001092, "S2": 0.21593740468839154,
            "S3": 0.07393332245594023, "S4": 0.05428800486445224,
            "S5": 0.08453423539116565, "S6": 0.07193847073703152,
            "S7": 0.02251201098146877,
        }
        means = {sku: stats.mean for sku, stats in comparison.mf_mean.items()}
        assert means == pytest.approx(expected, rel=1e-9)


class TestSkuComparison:
    def test_all_skus_covered_by_sf(self, comparison):
        assert set(comparison.sf_mean) == {f"S{i}" for i in range(1, 8)}

    def test_sf_s2_worst_average(self, comparison):
        means = {label: stats.mean for label, stats in comparison.sf_mean.items()}
        assert means["S2"] == max(means.values())

    def test_sf_s4_best_compute_sku(self, comparison):
        assert comparison.sf_ratio("S2", "S4", "mean") > 5.0

    def test_sf_s3_highest_peak(self, comparison):
        peaks = {label: comparison.sf_peak[label].peak
                 for label in ("S1", "S2", "S3", "S4")}
        assert peaks["S3"] == max(peaks.values())

    def test_mf_collapses_the_ratio(self, comparison):
        sf_ratio = comparison.sf_ratio("S2", "S4", "mean")
        mf_ratio = comparison.mf_ratio("S2", "S4", "mean")
        assert mf_ratio < 0.85 * sf_ratio
        assert 2.5 < mf_ratio < 8.0  # intrinsic is ~4.2X

    def test_relative_order_preserved(self, comparison):
        """§VI-Q2: 'the relative ordering between the two compute SKUs
        are the same in both approaches'."""
        assert comparison.mf_ratio("S2", "S4", "mean") > 1.0

    def test_normalized_sf_peaks_at_one(self, comparison):
        bars = comparison.normalized_sf(statistic="mean")
        assert max(bars.values()) == pytest.approx(1.0)
        assert bars["S2"] == pytest.approx(1.0)

    def test_unknown_sku_rejected(self, comparison):
        with pytest.raises(DataError):
            comparison.sf_ratio("S9", "S4")


class TestProcurementScenarios:
    def test_equal_price_both_favour_s4(self, comparison):
        scenario = procurement_scenarios(comparison, price_ratios=(1.0,))[0]
        assert scenario.sf_savings > 0.05
        assert scenario.mf_savings > 0.0

    def test_sf_always_looks_better_for_s4(self, comparison):
        for scenario in procurement_scenarios(comparison, price_ratios=(1.0, 1.25, 1.5)):
            assert scenario.sf_savings > scenario.mf_savings

    def test_premium_erodes_savings(self, comparison):
        cheap, expensive = procurement_scenarios(comparison, price_ratios=(1.0, 1.5))
        assert expensive.sf_savings < cheap.sf_savings
        assert expensive.mf_savings < cheap.mf_savings

    def test_invalid_price_ratio_rejected(self, comparison):
        with pytest.raises(DataError):
            procurement_scenarios(comparison, price_ratios=(0.0,))


class TestTcoModel:
    def test_deployment_tco_scales_with_spares(self):
        tco = TcoModel()
        assert tco.deployment_tco(100, 0.2) > tco.deployment_tco(100, 0.1)

    def test_relative_savings_sign(self):
        tco = TcoModel()
        assert tco.relative_savings(100, 0.4, 0.2) > 0
        assert tco.relative_savings(100, 0.2, 0.4) < 0

    def test_component_cost_uses_paper_ratio(self):
        tco = TcoModel()
        disk_only = tco.component_spare_cost(10, 100, 0, 0.5, 0.0, 0.0)
        dimm_only = tco.component_spare_cost(10, 0, 100, 0.0, 0.5, 0.0)
        assert dimm_only / disk_only == pytest.approx(10.0 / 2.0)

    def test_server_spare_cost(self):
        assert TcoModel().server_spare_cost(10, 0.1) == pytest.approx(100.0)

    def test_sku_choice_antisymmetry_direction(self):
        tco = TcoModel()
        a_over_b = tco.sku_choice_savings(100, 100, 0.1, 0.001, 100, 0.3, 0.01)
        b_over_a = tco.sku_choice_savings(100, 100, 0.3, 0.01, 100, 0.1, 0.001)
        assert a_over_b > 0 > b_over_a

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            TcoParams(server_cost=0.0)
        with pytest.raises(ConfigError):
            TcoParams(horizon_days=0.0)
        with pytest.raises(ConfigError):
            TcoModel().deployment_tco(0, 0.1)


class TestClimateBins:
    def test_fig17_trend(self, small_context):
        binned = temperature_binned_rates(
            small_context.result, table=small_context.disk_failures,
        )
        rows = binned.as_rows()
        hottest = rows[-1][1]
        coolest = rows[0][1]
        assert hottest > 1.5 * coolest

    def test_fig16_flat_means_high_sd(self, small_context):
        binned = temperature_binned_rates(
            small_context.result, table=small_context.all_failures,
        )
        means = binned.means[np.isfinite(binned.means)]
        sds = binned.sds[np.isfinite(binned.sds)]
        # Within-bin spread dwarfs the between-bin spread (Fig 16's point).
        assert sds.mean() > 2 * (means.max() - means.min())

    def test_bin_labels(self):
        assert FIG16_TEMP_BINS.labels == ("<60", "60-65", "65-70", "70-75", ">75")


class TestClimateGroups:
    def test_dc1_hot_worse_than_cool(self, small_context):
        group = climate_group_rates(
            small_context.result, "DC1", table=small_context.disk_failures,
        )
        assert group.hot > 1.3 * group.cool
        assert group.hot_dry > group.hot

    def test_dc2_flatter_than_dc1(self, small_context):
        """DC2's thermal response is suppressed relative to DC1's.

        At this scale DC2's hot group holds only a few hundred rack-days
        (tens of disk events), so the ratio itself is noisy; the robust
        statement is the *contrast* with DC1 plus a loose ceiling.
        """
        dc1 = climate_group_rates(
            small_context.result, "DC1", table=small_context.disk_failures,
        )
        dc2 = climate_group_rates(
            small_context.result, "DC2", table=small_context.disk_failures,
        )
        if np.isfinite(dc2.hot):
            assert dc2.hot / dc2.cool < 1.75
            assert dc2.hot / dc2.cool < dc1.hot / dc1.cool + 0.25

    def test_normalization(self, small_context):
        group = climate_group_rates(
            small_context.result, "DC1", table=small_context.disk_failures,
        )
        cool, hot, hot_dry, overall = group.normalized_to(group.hot_dry)
        assert hot_dry == pytest.approx(1.0)
        assert cool < hot < hot_dry

    def test_unknown_dc_rejected(self, small_context):
        with pytest.raises(DataError):
            climate_group_rates(small_context.result, "DC9",
                                table=small_context.disk_failures)


class TestThresholdDiscovery:
    def test_dc1_threshold_near_78(self, small_context):
        found = discover_climate_thresholds(
            small_context.result, "DC1", table=small_context.disk_failures,
        )
        assert found.temp_threshold_f is not None
        assert 72.0 <= found.temp_threshold_f <= 82.0
        assert found.temp_gain_share > 0.002

    def test_dc1_rh_subsplit_near_25(self, small_context):
        found = discover_climate_thresholds(
            small_context.result, "DC1", table=small_context.disk_failures,
        )
        if found.rh_threshold is not None:
            # The sub-split identifies the *low*-RH side; its exact
            # location wanders with the seed (the paper found 25.5).
            assert 4.0 <= found.rh_threshold <= 33.0

    def test_dc2_no_significant_threshold(self, small_context):
        found = discover_climate_thresholds(
            small_context.result, "DC2", table=small_context.disk_failures,
        )
        assert found.temp_threshold_f is None
