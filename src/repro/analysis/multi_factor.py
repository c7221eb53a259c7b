"""The multi-factor (MF) analysis facade.

Ties the pieces together the way §V-C describes:

* **Cat. 1** (grouping / aggregate behaviour): fit a CART on all listed
  factors, read rack clusters off the leaves and factor rankings off the
  variable importances.
* **Cat. 2** (influence of a decision variable): fit a CART on the
  decision variable *plus* the ``N(·)`` factors, then compute the
  partial dependence of the metric on the decision variable — the other
  factors' influence is integrated out over their joint distribution.

Usage::

    model = MultiFactorModel.from_formula(
        "failures ~ sku, N(dc), N(workload), N(age_months)",
        table,
    )
    pd = model.normalized_effect("sku")     # Fig 15's bars
    clusters = model.clusters()             # Fig 11's groups
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, FitError
from ..telemetry.schema import Schema
from ..telemetry.table import Table
from .cart.export import render_tree
from .cart.prune import cross_validated_alpha, prune
from .cart.tree import RegressionTree, TreeParams
from .clustering import Cluster, clusters_from_tree
from .formula import Formula, parse_formula
from .partial_dependence import PartialDependence, partial_dependence, partial_dependence_2d


@dataclass(frozen=True)
class AdjustedLevelStats:
    """Stratum-standardized statistics for one level of the studied factor.

    Attributes:
        label: factor level (e.g. ``"S2"``).
        mean: directly standardized mean rate — the level's rate in each
            stratum, averaged with common stratum weights.
        sd: standardized within-stratum standard deviation (the reduced
            error bars of Fig 15).
        peak: standardized high-quantile rate (μmax analogue).
        n: observations of this level across contributing strata.
        n_strata: strata in which the level had enough support.
    """

    label: str
    mean: float
    sd: float
    peak: float
    n: int
    n_strata: int


@dataclass(frozen=True)
class _Strata:
    """A stratifier's rows, sorted stably by (stratum, level code).

    Every stratum and every (stratum, level) cell is one contiguous
    slice holding the rows a boolean mask would select, in the same
    order, so each mean, std and quantile over a slice is the same
    float computation as over the masked rows.

    Attributes:
        bounds: stratum ``i`` (in ascending leaf id) holds sorted rows
            ``[bounds[i], bounds[i + 1])``.
        codes: the studied factor's code per sorted row.
        y: the metric per sorted row.
    """

    bounds: np.ndarray
    codes: np.ndarray
    y: np.ndarray

    @staticmethod
    def sort(strata: np.ndarray, codes: np.ndarray, y: np.ndarray) -> "_Strata":
        order = np.lexsort((codes, strata))
        sorted_strata = strata[order]
        starts = np.flatnonzero(np.r_[True, sorted_strata[1:] != sorted_strata[:-1]])
        return _Strata(np.append(starts, len(order)), codes[order], y[order])

    def slices(self) -> list[tuple[int, int]]:
        """``(start, end)`` of each stratum, in ascending leaf id."""
        bounds = self.bounds.tolist()
        return list(zip(bounds[:-1], bounds[1:]))

    def cell(self, start: int, end: int, code: int) -> np.ndarray:
        """The metric over one stratum's rows at one level code."""
        codes = self.codes[start:end]
        return self.y[start + int(np.searchsorted(codes, code, "left")):
                      start + int(np.searchsorted(codes, code, "right"))]


class MultiFactorModel:
    """An MF model: CART over a formula's features.

    Build via :meth:`from_formula` (preferred), which also grows the
    tree.  A model constructed directly grows :attr:`tree` on first use:
    the stratified estimators (:meth:`stratified_effect`,
    :meth:`stratified_ratio`, :meth:`common_support_effect`) fit only
    their own stratifier trees and never read it.
    """

    def __init__(
        self,
        formula: Formula,
        table: Table,
        params: TreeParams | None = None,
        sample_weight: np.ndarray | None = None,
        prune_by_cv: bool = False,
        cv_folds: int = 5,
    ):
        if formula.metric not in table:
            raise DataError(f"metric {formula.metric!r} missing from table")
        for name in formula.feature_names:
            if name not in table:
                raise DataError(f"feature {name!r} missing from table")
        self.formula = formula
        self.table = table
        self.params = params or TreeParams()
        self.sample_weight = sample_weight
        self.prune_by_cv = prune_by_cv
        self.cv_folds = cv_folds
        self._strata: dict[tuple[str, TreeParams], _Strata] = {}

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_formula(
        formula: str | Formula,
        table: Table,
        params: TreeParams | None = None,
        sample_weight: np.ndarray | None = None,
        prune_by_cv: bool = False,
        cv_folds: int = 5,
    ) -> "MultiFactorModel":
        """Fit an MF model from a formula string and a table.

        Args:
            formula: ``"metric ~ x1, N(x2), ..."`` or a parsed Formula.
            table: observations; must contain the metric and features.
            params: tree growth parameters.
            sample_weight: optional per-row weights (e.g. rack capacity).
            prune_by_cv: run k-fold cost-complexity pruning after growth.
            cv_folds: folds for ``prune_by_cv``.
        """
        if isinstance(formula, str):
            formula = parse_formula(formula)
        model = MultiFactorModel(
            formula, table, params=params, sample_weight=sample_weight,
            prune_by_cv=prune_by_cv, cv_folds=cv_folds,
        )
        _ = model.tree  # grown now, so a fit error surfaces here
        return model

    @functools.cached_property
    def _features(self) -> tuple[np.ndarray, Schema]:
        return self.table.feature_matrix(self.formula.feature_names)

    @property
    def matrix(self) -> np.ndarray:
        """The formula's feature matrix (the tree's training rows)."""
        return self._features[0]

    @functools.cached_property
    def tree(self) -> RegressionTree:
        """The CART over all the formula's features (grown on first use)."""
        matrix, schema = self._features
        y = self.table.column(self.formula.metric).astype(float)
        tree = RegressionTree(self.params).fit(matrix, y, schema, self.sample_weight)
        if self.prune_by_cv and tree.n_leaves > 1:
            alpha = cross_validated_alpha(
                matrix, y, schema, self.params, n_folds=self.cv_folds,
                sample_weight=self.sample_weight,
            )
            tree = prune(tree, alpha)
        return tree

    # -- Cat. 2: normalized influence --------------------------------------

    def normalized_effect(
        self,
        feature: str | None = None,
        grid: np.ndarray | None = None,
    ) -> PartialDependence:
        """Partial dependence of the metric on the studied feature.

        With a Cat. 2 formula the feature defaults to the (single)
        un-normalized term.
        """
        if feature is None:
            studied = self.formula.studied
            if len(studied) != 1:
                raise FitError(
                    f"formula {self.formula} studies {len(studied)} features; "
                    "name one explicitly"
                )
            feature = studied[0]
        return partial_dependence(
            self.tree, feature, grid=grid, training_matrix=self.matrix
        )

    def normalized_effect_2d(
        self,
        feature_x: str,
        feature_y: str,
        grid_x: np.ndarray,
        grid_y: np.ndarray,
    ) -> np.ndarray:
        """Joint partial dependence on two features (T × RH surfaces)."""
        return partial_dependence_2d(self.tree, feature_x, feature_y, grid_x, grid_y)

    def effect_ratio(self, feature: str, label_a: str, label_b: str) -> float:
        """PD(label_a) / PD(label_b) — e.g. the MF S2/S4 ratio of Fig 15."""
        pd = self.normalized_effect(feature)
        values = pd.as_dict()
        for label in (label_a, label_b):
            if label not in values:
                raise DataError(f"{label!r} not a level of {feature!r}")
        denominator = values[label_b]
        if denominator == 0:
            raise DataError(f"PD of {label_b!r} is zero; ratio undefined")
        return values[label_a] / denominator

    def stratified_effect(
        self,
        feature: str | None = None,
        peak_quantile: float = 0.999,
        stratifier_params: TreeParams | None = None,
        min_cell: int = 15,
    ) -> dict[str, AdjustedLevelStats]:
        """Stratum-standardized influence of the studied factor.

        This is the paper's literal reading of ``Metric ~ X1, N(X2..Xn)``:
        "a path from the root to a leaf in the tree where X1 is the leaf
        node and N(X2), ..., N(Xn) represents the fixed values of other
        factors observed at this node" (§V-C).  Concretely:

        1. fit a *stratifier* tree on the ``N(·)`` features only — each
           leaf is a stratum holding the other factors (approximately)
           fixed;
        2. within each stratum, compute the metric's mean/sd/peak per
           level of X1;
        3. directly standardize: average each level's per-stratum rates
           with common weights (the stratum sizes), so every level is
           evaluated against the *same* background mix.

        Compared to pure partial dependence (:meth:`normalized_effect`),
        this estimator is markedly more robust when X1 is strongly
        confounded with the normalized factors — the situation the Q2
        study plants (S2 racks are young, hot-placed, and W2-loaded).

        Args:
            feature: studied factor; defaults to the formula's single
                un-normalized term.  Must be categorical.
            peak_quantile: quantile reported as the peak rate.
            stratifier_params: growth parameters for the stratifier tree
                (default: a deliberately coarse tree, preserving overlap
                between X1 levels inside strata).
            min_cell: minimum rows a level needs inside a stratum for
                that stratum to contribute to the level's estimate.
        """
        if feature is None:
            studied = self.formula.studied
            if len(studied) != 1:
                raise FitError(
                    f"formula {self.formula} studies {len(studied)} features; "
                    "name one explicitly"
                )
            feature = studied[0]
        if min_cell < 1:
            raise DataError(f"min_cell must be >= 1, got {min_cell}")

        stratifier_params = stratifier_params or TreeParams(
            max_depth=8, min_split=max(4 * min_cell, 40),
            min_bucket=max(2 * min_cell, 20), cp=1e-4,
        )
        strata = self._stratify(feature, stratifier_params)
        spec = self.table.spec(feature)
        assert spec.categories is not None
        levels = range(len(spec.categories))
        accumulators = {
            level: {"w": 0.0, "mean": 0.0, "sd": 0.0, "peak": 0.0,
                    "n": 0, "strata": 0}
            for level in levels
        }
        for start, end in strata.slices():
            weight = float(end - start)
            for level in levels:
                cell_y = strata.cell(start, end, level)
                count = len(cell_y)
                if count < min_cell:
                    continue
                acc = accumulators[level]
                acc["w"] += weight
                acc["mean"] += weight * float(cell_y.mean())
                acc["sd"] += weight * float(cell_y.std())
                acc["peak"] += weight * float(np.quantile(cell_y, peak_quantile))
                acc["n"] += count
                acc["strata"] += 1

        result: dict[str, AdjustedLevelStats] = {}
        for level in levels:
            acc = accumulators[level]
            if acc["w"] <= 0:
                continue
            result[spec.decode(level)] = AdjustedLevelStats(
                label=spec.decode(level),
                mean=acc["mean"] / acc["w"],
                sd=acc["sd"] / acc["w"],
                peak=acc["peak"] / acc["w"],
                n=acc["n"],
                n_strata=acc["strata"],
            )
        if not result:
            raise DataError(
                f"no level of {feature!r} had {min_cell}+ rows in any stratum"
            )
        return result

    def _stratify(
        self,
        feature: str,
        stratifier_params: TreeParams,
    ) -> _Strata:
        """The N(·)-feature stratifier's leaf per row, with the studied
        factor's codes and the metric, sorted into cells (:class:`_Strata`).

        Fitted once per (feature, params) and kept, so estimators sharing
        a stratifier share its fit.
        """
        key = (feature, stratifier_params)
        if key in self._strata:
            return self._strata[key]
        spec = self.table.spec(feature)
        if not spec.is_categorical:
            raise DataError(
                f"stratified estimation needs a categorical factor, "
                f"{feature!r} is not"
            )
        normalized = self.formula.normalized
        if not normalized:
            raise FitError(f"formula {self.formula} has no N(...) terms")
        matrix_n, schema_n = self.table.feature_matrix(normalized)
        y = self.table.column(self.formula.metric).astype(float)
        stratifier = RegressionTree(stratifier_params).fit(matrix_n, y, schema_n)
        strata = stratifier.apply(matrix_n)
        codes = self.table.column(feature).astype(np.int64)
        self._strata[key] = _Strata.sort(strata, codes, y)
        return self._strata[key]

    @staticmethod
    def default_pairwise_stratifier() -> TreeParams:
        """Coarse stratifier for common-support estimation.

        Deliberately shallow: coarse strata preserve overlap between
        confounded levels, which matters more than within-stratum
        residual variation for the ratio estimators (measured across
        seeds in the Q2 calibration; see docs/calibration.md).
        """
        return TreeParams(max_depth=4, min_split=120, min_bucket=60, cp=2e-3)

    def stratified_ratio(
        self,
        feature: str,
        label_a: str,
        label_b: str,
        stratifier_params: TreeParams | None = None,
        min_cell: int = 30,
    ) -> float:
        """Common-support ratio of the metric between two factor levels.

        Unlike :meth:`stratified_effect`, which standardizes each level
        over whatever strata support it (so two levels living in
        disjoint regimes never have their confounds cancelled), this
        estimator uses only strata where *both* levels have at least
        ``min_cell`` observations and combines the per-stratum rate
        ratios as a weighted geometric mean.  For strongly confounded
        comparisons (the Q2 S2-vs-S4 question) this is the
        lowest-variance of the Cat. 2 estimators.
        """
        spec = self.table.spec(feature)
        stratifier_params = stratifier_params or self.default_pairwise_stratifier()
        strata = self._stratify(feature, stratifier_params)
        assert spec.categories is not None
        code_a, code_b = spec.encode(label_a), spec.encode(label_b)

        log_ratio_sum = 0.0
        weight_sum = 0.0
        for start, end in strata.slices():
            y_a = strata.cell(start, end, code_a)
            y_b = strata.cell(start, end, code_b)
            if len(y_a) < min_cell or len(y_b) < min_cell:
                continue
            rate_a = float(y_a.mean())
            rate_b = float(y_b.mean())
            if rate_a <= 0 or rate_b <= 0:
                continue
            weight = float(min(len(y_a), len(y_b)))
            log_ratio_sum += weight * np.log(rate_a / rate_b)
            weight_sum += weight
        if weight_sum <= 0:
            raise DataError(
                f"no stratum supports both {label_a!r} and {label_b!r} "
                f"with {min_cell}+ rows each"
            )
        return float(np.exp(log_ratio_sum / weight_sum))

    def common_support_effect(
        self,
        feature: str,
        labels: tuple[str, ...],
        peak_quantile: float = 0.999,
        stratifier_params: TreeParams | None = None,
        min_cell: int = 30,
    ) -> dict[str, AdjustedLevelStats]:
        """Level statistics standardized over the levels' shared strata.

        The comparison-grade companion to :meth:`stratified_effect`:
        every requested level is evaluated against the *same* stratum
        set (those where all levels have ≥ ``min_cell`` rows) with the
        same weights, so their confounds cancel in ratios.  Used for
        Fig 15's S2-vs-S4 bars.
        """
        if len(labels) < 2:
            raise DataError("common support needs at least two levels")
        spec = self.table.spec(feature)
        stratifier_params = stratifier_params or self.default_pairwise_stratifier()
        strata = self._stratify(feature, stratifier_params)
        assert spec.categories is not None
        level_codes = {label: spec.encode(label) for label in labels}

        shared = [
            (start, end) for start, end in strata.slices()
            if all(len(strata.cell(start, end, code)) >= min_cell
                   for code in level_codes.values())
        ]
        if not shared:
            raise DataError(
                f"no stratum supports all of {labels} with {min_cell}+ rows"
            )

        output: dict[str, AdjustedLevelStats] = {}
        for label, code in level_codes.items():
            weight_sum = 0.0
            mean_sum = sd_sum = peak_sum = 0.0
            n_total = 0
            for start, end in shared:
                weight = float(end - start)
                cell_y = strata.cell(start, end, code)
                weight_sum += weight
                mean_sum += weight * float(cell_y.mean())
                sd_sum += weight * float(cell_y.std())
                peak_sum += weight * float(np.quantile(cell_y, peak_quantile))
                n_total += len(cell_y)
            output[label] = AdjustedLevelStats(
                label=label,
                mean=mean_sum / weight_sum,
                sd=sd_sum / weight_sum,
                peak=peak_sum / weight_sum,
                n=n_total,
                n_strata=len(shared),
            )
        return output

    # -- Cat. 1: grouping and insight ---------------------------------------

    def clusters(self) -> list[Cluster]:
        """Rack/observation clusters: one per populated tree leaf."""
        return clusters_from_tree(self.tree, self.matrix)

    def importance(self) -> dict[str, float]:
        """Relative factor importance (share of total split gain)."""
        return self.tree.importance()

    def residual_variance(self) -> float:
        """Within-leaf variance of the metric (noise left unexplained).

        §VI-Q2 reports that MF's per-SKU rates show "a significant drop
        in variation (up to 50%) compared to the SF approach"; this is
        the quantity that drops.
        """
        y = self.table.column(self.formula.metric).astype(float)
        residuals = y - self.tree.predict(self.matrix)
        return float(np.var(residuals))

    def render(self, max_depth: int | None = None) -> str:
        """Text rendering of the underlying tree."""
        return render_tree(self.tree, max_depth=max_depth)
