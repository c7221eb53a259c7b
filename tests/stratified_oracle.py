"""Test-only reference stratified estimators: one boolean mask per cell.

:class:`~repro.analysis.multi_factor.MultiFactorModel` sorts a
stratifier's rows once by (stratum, level code) and reads every stratum
and every (stratum, level) cell as a contiguous slice.  This module
keeps the definitions it is checked against: for every stratum and
level, full-length masks ``strata == stratum`` and ``codes == level``
select the cell's rows in training order.

The contract is bit-identity: each estimator here and its
``MultiFactorModel`` counterpart return the same statistics down to
the last bit (compared as ``float.hex``), or raise the same error.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cart.tree import RegressionTree
from repro.analysis.multi_factor import AdjustedLevelStats
from repro.errors import DataError, FitError


def reference_strata(model, feature, params):
    """``(strata, codes, y)``: the N(·) stratifier's leaf per row, the
    studied factor's codes and the metric, all in training order."""
    spec = model.table.spec(feature)
    if not spec.is_categorical:
        raise DataError(
            f"stratified estimation needs a categorical factor, "
            f"{feature!r} is not"
        )
    normalized = model.formula.normalized
    if not normalized:
        raise FitError(f"formula {model.formula} has no N(...) terms")
    matrix_n, schema_n = model.table.feature_matrix(normalized)
    y = model.table.column(model.formula.metric).astype(float)
    strata = RegressionTree(params).fit(matrix_n, y, schema_n).apply(matrix_n)
    codes = model.table.column(feature).astype(np.int64)
    return strata, codes, y


def reference_stratified_effect(model, feature, peak_quantile, params,
                                min_cell):
    """``MultiFactorModel.stratified_effect`` with per-cell masks."""
    strata, codes, y = reference_strata(model, feature, params)
    spec = model.table.spec(feature)
    levels = range(len(spec.categories))
    accumulators = {
        level: {"w": 0.0, "mean": 0.0, "sd": 0.0, "peak": 0.0,
                "n": 0, "strata": 0}
        for level in levels
    }
    for stratum in np.unique(strata):
        in_stratum = strata == stratum
        weight = float(in_stratum.sum())
        for level in levels:
            cell = in_stratum & (codes == level)
            count = int(cell.sum())
            if count < min_cell:
                continue
            cell_y = y[cell]
            acc = accumulators[level]
            acc["w"] += weight
            acc["mean"] += weight * float(cell_y.mean())
            acc["sd"] += weight * float(cell_y.std())
            acc["peak"] += weight * float(np.quantile(cell_y, peak_quantile))
            acc["n"] += count
            acc["strata"] += 1

    result = {}
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


def reference_stratified_ratio(model, feature, label_a, label_b, params,
                               min_cell):
    """``MultiFactorModel.stratified_ratio`` with per-cell masks."""
    spec = model.table.spec(feature)
    strata, codes, y = reference_strata(model, feature, params)
    code_a, code_b = spec.encode(label_a), spec.encode(label_b)

    log_ratio_sum = 0.0
    weight_sum = 0.0
    for stratum in np.unique(strata):
        in_stratum = strata == stratum
        cell_a = in_stratum & (codes == code_a)
        cell_b = in_stratum & (codes == code_b)
        if cell_a.sum() < min_cell or cell_b.sum() < min_cell:
            continue
        rate_a = float(y[cell_a].mean())
        rate_b = float(y[cell_b].mean())
        if rate_a <= 0 or rate_b <= 0:
            continue
        weight = float(min(cell_a.sum(), cell_b.sum()))
        log_ratio_sum += weight * np.log(rate_a / rate_b)
        weight_sum += weight
    if weight_sum <= 0:
        raise DataError(
            f"no stratum supports both {label_a!r} and {label_b!r} "
            f"with {min_cell}+ rows each"
        )
    return float(np.exp(log_ratio_sum / weight_sum))


def reference_common_support_effect(model, feature, labels, peak_quantile,
                                    params, min_cell):
    """``MultiFactorModel.common_support_effect`` with per-cell masks."""
    if len(labels) < 2:
        raise DataError("common support needs at least two levels")
    spec = model.table.spec(feature)
    strata, codes, y = reference_strata(model, feature, params)
    level_codes = {label: spec.encode(label) for label in labels}

    shared = []
    for stratum in np.unique(strata):
        in_stratum = strata == stratum
        if all((in_stratum & (codes == code)).sum() >= min_cell
               for code in level_codes.values()):
            shared.append(stratum)
    if not shared:
        raise DataError(
            f"no stratum supports all of {labels} with {min_cell}+ rows"
        )

    output = {}
    for label, code in level_codes.items():
        weight_sum = 0.0
        mean_sum = sd_sum = peak_sum = 0.0
        n_total = 0
        for stratum in shared:
            in_stratum = strata == stratum
            cell = in_stratum & (codes == code)
            weight = float(in_stratum.sum())
            cell_y = y[cell]
            weight_sum += weight
            mean_sum += weight * float(cell_y.mean())
            sd_sum += weight * float(cell_y.std())
            peak_sum += weight * float(np.quantile(cell_y, peak_quantile))
            n_total += int(cell.sum())
        output[label] = AdjustedLevelStats(
            label=label,
            mean=mean_sum / weight_sum,
            sd=sd_sum / weight_sum,
            peak=peak_sum / weight_sum,
            n=n_total,
            n_strata=len(shared),
        )
    return output


def stats_fields(stats):
    """Every field of a level-stats mapping, floats as ``float.hex``."""
    return {
        label: (entry.label, entry.mean.hex(), entry.sd.hex(),
                entry.peak.hex(), entry.n, entry.n_strata)
        for label, entry in stats.items()
    }
