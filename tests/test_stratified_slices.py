"""Stratum cells read as slices equal the per-cell masks, bit for bit.

``MultiFactorModel`` sorts a stratifier's rows once by (stratum, level
code) and reads each cell as a contiguous slice; ``stratified_oracle``
builds a full-length mask per (stratum, level).  Every statistic the
three stratified estimators return must agree as ``float.hex`` (or both
sides raise the same error), including on tied and near-tied metrics,
levels absent from the table or from a stratum, single-stratum trees
and ``min_cell`` at its edges.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from stratified_oracle import (
    reference_common_support_effect,
    reference_stratified_effect,
    reference_stratified_ratio,
    stats_fields,
)
from repro.analysis.cart.tree import TreeParams
from repro.analysis.formula import parse_formula
from repro.analysis.multi_factor import MultiFactorModel
from repro.errors import ReproError
from repro.telemetry.schema import FeatureKind, FeatureSpec, Schema
from repro.telemetry.table import Table


def _metric(style: str, n: int, rng) -> np.ndarray:
    if style == "counts":
        return rng.poisson(rng.uniform(0.05, 3.0), n).astype(float)
    if style == "smooth":
        return rng.lognormal(size=n)
    if style == "near_ties":  # values a hair apart
        return 1.0 + rng.integers(0, 3, n) * 2.0**-45
    return np.zeros(n)


@st.composite
def models(draw):
    if draw(st.sampled_from(("large", "large", "small"))) == "large":
        n = draw(st.integers(60, 300))
    else:
        n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 8))
    labels = tuple(f"s{i}" for i in range(k))
    # Only some declared levels occur at all; strata drop more.
    present = rng.choice(k, size=draw(st.integers(1, k)), replace=False)
    columns = {"sku": rng.choice(present, n).astype(float)}
    specs = [FeatureSpec("sku", FeatureKind.NOMINAL, labels)]
    normalized = []
    for i in range(draw(st.integers(1, 3))):
        name = f"x{i}"
        normalized.append(f"N({name})")
        if draw(st.booleans()):
            levels = draw(st.integers(2, 5))
            columns[name] = rng.integers(0, levels, n).astype(float)
            specs.append(FeatureSpec(
                name, FeatureKind.NOMINAL,
                tuple(f"{name}_{j}" for j in range(levels))))
        else:
            columns[name] = np.round(rng.normal(size=n), draw(st.integers(0, 3)))
    # The metric leans on the first N(·) feature, so stratifiers split.
    lean = 1.0 + (columns["x0"] > np.median(columns["x0"]))
    columns["y"] = lean * _metric(
        draw(st.sampled_from(("counts", "smooth", "smooth", "near_ties",
                              "zeros"))),
        n, rng)
    table = Table(columns, schema=Schema(tuple(specs)))
    formula = parse_formula(f"y ~ sku, {', '.join(normalized)}")
    min_bucket = draw(st.integers(1, 20))
    params = TreeParams(
        max_depth=draw(st.sampled_from((4, 2, 6, 0))),
        min_split=max(2, 2 * min_bucket),
        min_bucket=min_bucket,
        cp=draw(st.sampled_from((1e-4, 0.0, 2e-3, 0.05))),
    )
    return MultiFactorModel(formula, table), labels, params


def _outcome(call):
    """A result, or the error it raised (type and message)."""
    try:
        return call()
    except ReproError as error:
        return (type(error).__name__, str(error))


SETTINGS = settings(max_examples=150, deadline=None)


@SETTINGS
@given(case=models(), min_cell=st.integers(1, 30),
       quantile=st.sampled_from((0.5, 0.9, 0.999, 1.0)))
def test_stratified_effect_matches_masks(case, min_cell, quantile):
    model, _, params = case
    sliced = _outcome(lambda: stats_fields(model.stratified_effect(
        "sku", peak_quantile=quantile, stratifier_params=params,
        min_cell=min_cell)))
    masked = _outcome(lambda: stats_fields(reference_stratified_effect(
        model, "sku", quantile, params, min_cell)))
    assert sliced == masked


@SETTINGS
@given(case=models(), min_cell=st.integers(1, 30), data=st.data())
def test_stratified_ratio_matches_masks(case, min_cell, data):
    model, labels, params = case
    label_a, label_b = data.draw(
        st.lists(st.sampled_from(labels), min_size=2, max_size=2,
                 unique=True))
    sliced = _outcome(lambda: model.stratified_ratio(
        "sku", label_a, label_b, stratifier_params=params,
        min_cell=min_cell).hex())
    masked = _outcome(lambda: reference_stratified_ratio(
        model, "sku", label_a, label_b, params, min_cell).hex())
    assert sliced == masked


@SETTINGS
@given(case=models(), min_cell=st.integers(1, 30),
       quantile=st.sampled_from((0.5, 0.999, 1.0)), data=st.data())
def test_common_support_effect_matches_masks(case, min_cell, quantile, data):
    model, labels, params = case
    chosen = tuple(data.draw(
        st.lists(st.sampled_from(labels), min_size=2, max_size=4,
                 unique=True)))
    sliced = _outcome(lambda: stats_fields(model.common_support_effect(
        "sku", chosen, peak_quantile=quantile, stratifier_params=params,
        min_cell=min_cell)))
    masked = _outcome(lambda: stats_fields(reference_common_support_effect(
        model, "sku", chosen, quantile, params, min_cell)))
    assert sliced == masked


def test_shared_stratifier_cells_match_masks(small_context):
    """The Q2 table itself: all three estimators on one fitted stratifier."""
    model = MultiFactorModel(
        parse_formula("failures ~ sku, N(dc), N(workload), N(age_months), "
                      "N(rated_power_kw), N(region), N(temp_f), N(rh)"),
        small_context.hardware_failures,
    )
    params = MultiFactorModel.default_pairwise_stratifier()
    assert (stats_fields(model.common_support_effect(
                "sku", ("S2", "S4"), stratifier_params=params))
            == stats_fields(reference_common_support_effect(
                model, "sku", ("S2", "S4"), 0.999, params, 30)))
    assert (model.stratified_ratio("sku", "S2", "S4",
                                   stratifier_params=params).hex()
            == reference_stratified_ratio(
                model, "sku", "S2", "S4", params, 30).hex())
    fine = TreeParams(max_depth=8, min_split=40, min_bucket=30, cp=1e-4)
    assert (stats_fields(model.stratified_effect(
                "sku", stratifier_params=fine, min_cell=15))
            == stats_fields(reference_stratified_effect(
                model, "sku", 0.999, fine, 15)))
