"""Q2: are some SKUs (vendors) more reliable than others?

§VI-Q2 ranks rack SKUs by two metrics — the peak failure rate μmax
(drives spare CapEx) and the average failure rate λ (drives maintenance
OpEx) — first with the single-factor histogram approach (Fig 14), then
with the multi-factor normalization (Fig 15), and finally runs the
numbers through TCO procurement scenarios.

Both metrics are computed "for spatial granularity of a rack and
temporal granularity of a day": λ is the filed-RMA count per rack-day;
the peak is a high quantile of the per-rack-day concurrent-
unavailability fraction μ/capacity (spare capacity is sized per rack,
so fractions are the comparable unit across SKUs of different density).

Reproduction targets:

* SF: S2's average rate ≈ 10X S4's (ours lands ≈8-9X via the planted
  workload/placement/age confounds); S3 the highest peak; S4 best on
  both metrics.
* MF: the S2/S4 average-rate ratio collapses toward the intrinsic ≈4X,
  with visibly reduced between-rack variance.
* TCO: at equal prices both approaches favour S4 and agree within a few
  points; at a 1.5X price premium SF still (wrongly) shows savings
  while MF shows a loss.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from ..analysis.formula import parse_formula
from ..analysis.multi_factor import AdjustedLevelStats, MultiFactorModel
from ..analysis.single_factor import FactorLevelStats, SingleFactorModel
from ..errors import DataError
from ..failures.engine import SimulationResult
from ..failures.tickets import HARDWARE_FAULTS
from ..telemetry.aggregate import build_rack_day_table
from ..telemetry.stats import weighted_mean
from ..telemetry.table import Table
from .tco import TcoModel

# The four representative SKUs Fig 14 plots: storage S1/S3, compute S2/S4.
FIG14_SKUS = ("S1", "S3", "S2", "S4")

_NORMALIZED_TERMS = (
    "N(dc), N(workload), N(age_months), N(rated_power_kw), "
    "N(region), N(temp_f), N(rh)"
)
MF_FORMULA = f"failures ~ sku, {_NORMALIZED_TERMS}"
MF_PEAK_FORMULA = f"mu_fraction ~ sku, {_NORMALIZED_TERMS}"


@dataclass(frozen=True)
class SkuComparison:
    """SF and MF views of SKU reliability.

    Attributes:
        sf_mean: per-SKU aggregate λ stats (mean = average failure rate,
            sd = Fig 14's error bars).
        sf_peak: per-SKU aggregate μ-fraction stats (peak = μmax proxy).
        mf_mean: per-SKU stratum-standardized λ stats (Fig 15).
        mf_peak: per-SKU stratum-standardized μ-fraction stats.
    """

    sf_mean: dict[str, FactorLevelStats]
    sf_peak: dict[str, FactorLevelStats]
    mf_mean: dict[str, AdjustedLevelStats]
    mf_peak: dict[str, AdjustedLevelStats]
    mf_common_support_ratios: dict[tuple[str, str], float] | None = None
    mf_pair: dict[str, AdjustedLevelStats] | None = None
    mf_pair_peak: dict[str, AdjustedLevelStats] | None = None

    def _lookup(self, stats: dict, label: str):
        if label not in stats:
            raise DataError(f"SKU {label!r} missing from comparison")
        return stats[label]

    def sf_ratio(self, a: str, b: str, statistic: str = "mean") -> float:
        """SF-estimated ratio between two SKUs (``mean`` or ``peak``)."""
        stats = self.sf_mean if statistic == "mean" else self.sf_peak
        denominator = getattr(self._lookup(stats, b), statistic)
        if denominator == 0:
            raise DataError(f"SF {statistic} of {b!r} is zero")
        return getattr(self._lookup(stats, a), statistic) / denominator

    def mf_ratio(self, a: str, b: str, statistic: str = "mean") -> float:
        """MF-adjusted ratio between two SKUs (``mean`` or ``peak``).

        When common-support statistics exist for the pair (``mf_pair``,
        computed over the strata both SKUs share) they are used — the
        per-level ``stratified_effect`` stats standardize each level
        over different stratum sets, so confounds do not cancel in their
        ratios when the levels live in disjoint regimes (S2 young/hot vs
        S4 old/cool).
        """
        pair = self.mf_pair if statistic == "mean" else self.mf_pair_peak
        if pair is not None and a in pair and b in pair:
            denominator = getattr(pair[b], statistic)
            if denominator == 0:
                raise DataError(f"MF {statistic} of {b!r} is zero")
            return getattr(pair[a], statistic) / denominator
        stats = self.mf_mean if statistic == "mean" else self.mf_peak
        denominator = getattr(self._lookup(stats, b), statistic)
        if denominator == 0:
            raise DataError(f"MF {statistic} of {b!r} is zero")
        return getattr(self._lookup(stats, a), statistic) / denominator

    def normalized_sf(self, skus: tuple[str, ...] = FIG14_SKUS,
                      statistic: str = "mean") -> dict[str, float]:
        """Fig 14 bars: SF statistic normalized to its max over ``skus``."""
        stats = self.sf_mean if statistic == "mean" else self.sf_peak
        values = {label: getattr(self._lookup(stats, label), statistic)
                  for label in skus}
        top = max(values.values())
        if top <= 0:
            raise DataError("all SF statistics are zero")
        return {label: value / top for label, value in values.items()}


def compare_skus(
    result: SimulationResult,
    table: Table | None = None,
    peak_quantile: float = 0.999,
) -> SkuComparison:
    """Run both Q2 analyses on a simulation's hardware failures.

    The MF statistics are stratum-standardized (see
    :meth:`MultiFactorModel.stratified_effect`), so only the models'
    stratifier trees are grown, each once.

    Args:
        result: simulation run.
        table: pre-built hardware rack-day table with μ columns
            (built if omitted).
        peak_quantile: quantile used as the peak failure rate.
    """
    if table is None:
        table = build_rack_day_table(
            result, faults=list(HARDWARE_FAULTS), include_mu=True,
        )
    for required in ("failures", "mu_fraction"):
        if required not in table:
            raise DataError(f"table lacks the {required!r} column")

    sf_mean = SingleFactorModel(table, "failures",
                                peak_quantile=peak_quantile).by_factor("sku")
    sf_peak = SingleFactorModel(table, "mu_fraction",
                                peak_quantile=peak_quantile).by_factor("sku")

    mf_mean_model = MultiFactorModel(parse_formula(MF_FORMULA), table)
    mf_peak_model = MultiFactorModel(parse_formula(MF_PEAK_FORMULA), table)
    common_support = {}
    mf_pair = None
    mf_pair_peak = None
    # Miniature fleets may lack overlapping strata; leave the defaults.
    with contextlib.suppress(DataError):
        common_support[("S2", "S4")] = mf_mean_model.stratified_ratio(
            "sku", "S2", "S4",
        )
        mf_pair = mf_mean_model.common_support_effect(
            "sku", ("S2", "S4"), peak_quantile=peak_quantile,
        )
        mf_pair_peak = mf_peak_model.common_support_effect(
            "sku", ("S2", "S4"), peak_quantile=peak_quantile,
        )
    return SkuComparison(
        sf_mean=sf_mean,
        sf_peak=sf_peak,
        mf_mean=mf_mean_model.stratified_effect("sku", peak_quantile=peak_quantile),
        mf_peak=mf_peak_model.stratified_effect("sku", peak_quantile=peak_quantile),
        mf_common_support_ratios=common_support or None,
        mf_pair=mf_pair,
        mf_pair_peak=mf_pair_peak,
    )


@dataclass(frozen=True)
class VendorStats:
    """Vendor-level reliability rollup (a vendor may ship several SKUs).

    Attributes:
        vendor: vendor label.
        skus: the vendor's SKUs present in the comparison.
        sf_mean: exposure-weighted SF average failure rate.
        mf_mean: exposure-weighted MF-adjusted average failure rate.
        exposure: rack-days across the vendor's SKUs.
    """

    vendor: str
    skus: tuple[str, ...]
    sf_mean: float
    mf_mean: float
    exposure: int


def compare_vendors(
    result: SimulationResult,
    comparison: SkuComparison | None = None,
) -> dict[str, VendorStats]:
    """Roll the Q2 SKU comparison up to vendors.

    §II's procurement question is phrased per *vendor*; since "rack SKU
    [is] a proxy for a specific combination of server models and
    vendors", the vendor view weights each of a vendor's SKUs by its
    observed exposure (rack-days).
    """
    comparison = comparison or compare_skus(result)
    catalog = result.fleet.skus
    by_vendor: dict[str, list[str]] = {}
    for sku in catalog:
        by_vendor.setdefault(sku.vendor, []).append(sku.name)

    rollup: dict[str, VendorStats] = {}
    for vendor, skus in sorted(by_vendor.items()):
        present = [name for name in skus
                   if name in comparison.sf_mean and name in comparison.mf_mean]
        if not present:
            continue
        exposures = np.array([comparison.sf_mean[name].count for name in present],
                             dtype=float)
        sf_values = np.array([comparison.sf_mean[name].mean for name in present])
        mf_values = np.array([comparison.mf_mean[name].mean for name in present])
        total = exposures.sum()
        rollup[vendor] = VendorStats(
            vendor=vendor,
            skus=tuple(present),
            sf_mean=weighted_mean(sf_values, exposures),
            mf_mean=weighted_mean(mf_values, exposures),
            exposure=int(total),
        )
    if not rollup:
        raise DataError("no vendor had SKUs present in the comparison")
    return rollup


def rank_vendors(
    rollup: dict[str, VendorStats],
    by: str = "mf_mean",
) -> list[VendorStats]:
    """Vendors sorted most-reliable first by the chosen statistic."""
    if by not in ("sf_mean", "mf_mean"):
        raise DataError(f"unknown vendor ranking statistic {by!r}")
    return sorted(rollup.values(), key=lambda stats: getattr(stats, by))


@dataclass(frozen=True)
class ProcurementScenario:
    """One §VI-Q2 TCO scenario.

    Attributes:
        price_ratio: price of S4 relative to S2.
        sf_savings: relative TCO savings of choosing S4, per SF rates.
        mf_savings: the same, per MF-adjusted rates.
    """

    price_ratio: float
    sf_savings: float
    mf_savings: float


def procurement_scenarios(
    comparison: SkuComparison,
    price_ratios: tuple[float, ...] = (1.0, 1.5),
    n_servers: int = 10_000,
    base_price: float = 100.0,
    tco: TcoModel | None = None,
    sku_a: str = "S4",
    sku_b: str = "S2",
    servers_per_rack: float = 46.0,
) -> list[ProcurementScenario]:
    """TCO savings of procuring ``sku_a`` instead of ``sku_b``.

    Peak μ fractions size the spare pool (CapEx); average λ converted to
    per-server rates drives maintenance (OpEx).  SF uses the raw per-SKU
    stats, MF the adjusted ones — reproducing the paper's "paying a
    higher premium for S4 is not cost effective" reversal at 1.5X.
    """
    tco = tco or TcoModel()
    scenarios = []
    for ratio in price_ratios:
        if ratio <= 0:
            raise DataError(f"price ratio must be positive, got {ratio}")
        price_a = base_price * ratio
        price_b = base_price

        def savings(mean_a, peak_a, mean_b, peak_b) -> float:
            return tco.sku_choice_savings(
                n_servers=n_servers,
                price_a=price_a,
                peak_a=peak_a.peak,
                avg_a=mean_a.mean / servers_per_rack,
                price_b=price_b,
                peak_b=peak_b.peak,
                avg_b=mean_b.mean / servers_per_rack,
            )

        scenarios.append(ProcurementScenario(
            price_ratio=ratio,
            sf_savings=savings(
                comparison.sf_mean[sku_a], comparison.sf_peak[sku_a],
                comparison.sf_mean[sku_b], comparison.sf_peak[sku_b],
            ),
            mf_savings=savings(
                comparison.mf_mean[sku_a], comparison.mf_peak[sku_a],
                comparison.mf_mean[sku_b], comparison.mf_peak[sku_b],
            ),
        ))
    return scenarios
