"""Presorted growth equals the per-node reference search, bit for bit.

``RegressionTree.fit`` sorts each feature once and partitions the sorted
rows down the tree; ``cart_oracle.reference_fit`` re-sorts every feature
at every node.  Every node, split, gain and importance must agree as
``float.hex`` — including on heavy ties, constant and NaN-laced columns,
nominal levels missing from a node, zero weights and edge parameters.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cart_oracle import reference_fit, tree_fields
from repro.analysis.cart.tree import RegressionTree, TreeParams
from repro.errors import DataError
from repro.telemetry.schema import FeatureKind, FeatureSpec, Schema

COLUMN_STYLES = ("ties", "constant", "nan", "smooth", "nominal", "ordinal")


def _column(style: str, name: str, n: int, rng, draw) -> tuple[np.ndarray, FeatureSpec]:
    if style in ("nominal", "ordinal"):
        k = draw(st.integers(2, 6))
        labels = tuple(f"c{i}" for i in range(k))
        if style == "ordinal":
            return (rng.integers(0, k, n).astype(float),
                    FeatureSpec(name, FeatureKind.ORDINAL, labels))
        # Only some declared levels occur at all; splits drop more.
        present = rng.choice(k, size=draw(st.integers(1, k)), replace=False)
        return (rng.choice(present, n).astype(float),
                FeatureSpec(name, FeatureKind.NOMINAL, labels))
    if style == "ties":
        values = rng.integers(0, 3, n).astype(float)
    elif style == "constant":
        values = np.full(n, 2.5)
    elif style == "smooth":
        values = rng.normal(size=n)
    else:
        values = rng.integers(0, 5, n).astype(float)
        values[rng.random(n) < draw(st.floats(0.05, 1.0))] = np.nan
    return values, FeatureSpec(name, FeatureKind.CONTINUOUS)


@st.composite
def fit_inputs(draw):
    n = draw(st.integers(1, 80))
    styles = draw(st.lists(st.sampled_from(COLUMN_STYLES), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, specs = zip(*(_column(style, f"f{i}", n, rng, draw)
                           for i, style in enumerate(styles)))
    y_style = draw(st.sampled_from(("ties", "smooth", "near_ties")))
    if y_style == "ties":
        y = rng.integers(0, 3, n).astype(float)
    elif y_style == "smooth":
        y = rng.normal(size=n) * 10.0
    else:  # responses a hair apart
        y = 1.0 + rng.integers(0, 2, n) * 2.0**-45
    weight_style = draw(st.sampled_from(("none", "zeros", "varied")))
    weights = None
    if weight_style == "zeros":
        weights = np.where(rng.random(n) < 0.3, 0.0, 1.0)
    elif weight_style == "varied":
        weights = rng.exponential(size=n) * (rng.random(n) > 0.2)
    if weights is not None:
        weights[0] = 1.0  # a positive total
    params = TreeParams(
        max_depth=draw(st.integers(0, 6)),
        min_split=draw(st.integers(2, max(2, n + 2))),
        min_bucket=draw(st.integers(1, max(1, n // 2 + 1))),
        cp=draw(st.sampled_from((0.0, 1e-12, 0.01, 0.2))),
        max_leaves=draw(st.one_of(st.none(), st.integers(1, 8))),
    )
    return np.column_stack(columns), y, Schema(tuple(specs)), params, weights


def _outcome(fit):
    """The fitted tree's fields, or the error a degenerate child raised
    (a child whose rows all weigh zero has no mean)."""
    try:
        with np.errstate(all="ignore"):
            return tree_fields(fit())
    except DataError as error:
        return ("DataError", str(error))


class TestPresortedEqualsReference:
    @settings(max_examples=250, deadline=None)
    @given(fit_inputs())
    def test_bit_identical_trees(self, inputs):
        matrix, y, schema, params, weights = inputs
        presorted = _outcome(lambda: RegressionTree(params).fit(matrix, y, schema, weights))
        reference = _outcome(lambda: reference_fit(matrix, y, schema, params, weights))
        assert presorted == reference

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 40), st.booleans())
    def test_bit_identical_with_exactly_tied_category_means(self, seed, m, weighted):
        """Categories 0 and 1 hold one multiset of (y, w) pairs in different
        row orders, so their means tie exactly and only the summation
        order ranks them; category 2 sits apart.  The rank order sets
        the scan order, and so the bits of every SSE and gain."""
        rng = np.random.default_rng(seed)
        pool_y = rng.normal(size=m) * 0.1
        pool_w = rng.uniform(0.5, 2.0, m) if weighted else np.ones(m)
        codes = np.repeat([0.0, 1.0, 2.0], m)
        y = np.concatenate([pool_y, pool_y, pool_y + 5.0])
        w = np.concatenate([pool_w, pool_w, pool_w])
        index = np.concatenate([rng.permutation(m) + block * m for block in range(3)])
        shuffle = rng.permutation(3 * m)
        matrix = codes[index][shuffle, None]
        y, w = y[index][shuffle], w[index][shuffle]
        schema = Schema((FeatureSpec("c", FeatureKind.NOMINAL, ("a", "b", "c")),))
        params = TreeParams(max_depth=2, min_split=2, min_bucket=1, cp=0.0)
        presorted = _outcome(lambda: RegressionTree(params).fit(matrix, y, schema, w))
        reference = _outcome(lambda: reference_fit(matrix, y, schema, params, w))
        assert presorted == reference

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_on_a_mixed_table(self, weighted):
        rng = np.random.default_rng(7)
        n = 4000
        temp = rng.normal(70, 8, n).round(1)
        temp[rng.random(n) < 0.05] = np.nan
        age = rng.integers(0, 48, n).astype(float)
        sku = rng.integers(0, 7, n).astype(float)
        dc = rng.integers(0, 4, n).astype(float)
        y = rng.poisson(0.2 + 0.1 * (sku == 2) + 0.01 * np.nan_to_num(temp - 70)
                        .clip(0)).astype(float)
        matrix = np.column_stack([temp, age, sku, dc])
        schema = Schema((
            FeatureSpec("temp_f", FeatureKind.CONTINUOUS),
            FeatureSpec("age_months", FeatureKind.CONTINUOUS),
            FeatureSpec("sku", FeatureKind.NOMINAL, tuple(f"S{i}" for i in range(7))),
            FeatureSpec("dc", FeatureKind.NOMINAL, tuple(f"DC{i}" for i in range(4))),
        ))
        weights = rng.uniform(0.5, 2.0, n) if weighted else None
        params = TreeParams(max_depth=6, min_split=40, min_bucket=15, cp=1e-4)
        tree = RegressionTree(params).fit(matrix, y, schema, weights)
        assert tree.n_leaves > 8
        assert tree_fields(tree) == tree_fields(
            reference_fit(matrix, y, schema, params, weights))
