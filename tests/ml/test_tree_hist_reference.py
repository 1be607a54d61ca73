"""The level-wise hist builder against its frozen per-node reference.

:class:`repro.ml.tree._HistTreeBuilder` handles each tree level with array
operations; ``hist_reference.ReferenceHistTreeBuilder`` is the per-node
builder it replaced.  Every fitted array — and the training predictions
captured during the build — must match the reference bit for bit, including
where hist and exact differ (continuous features, coarse bins) and where
the rng draws per level-order node (``max_features``).
"""

import numpy as np
import pytest
from hist_reference import ReferenceHistTreeBuilder

import repro.ml.tree as tree_module
from repro.ml.gradient_boosting import GradientBoostingRegressor
from repro.ml.tree import DecisionTreeRegressor

FITTED = (
    "feature_",
    "threshold_",
    "children_left_",
    "children_right_",
    "value_",
    "n_node_samples_",
)


def assert_same_bytes(new, ref, names):
    for name in names:
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def fit_both(monkeypatch, fit):
    """``fit()`` with the level-wise builder, then with the reference."""
    new = fit()
    with monkeypatch.context() as patch:
        patch.setattr(tree_module, "_HistTreeBuilder", ReferenceHistTreeBuilder)
        ref = fit()
    return new, ref


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 5))
    X[:, 3] = np.round(X[:, 3], 1)  # a coarse feature next to continuous ones
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=300)
    return X, y


def weights(kind, n):
    if kind == "unit":
        return None
    w = np.random.default_rng(3).uniform(0.5, 2.0, size=n)
    w[40:70] = 0.0  # a zero-weight run
    w[::17] = 0.0
    return w


CASES = {
    "bins255": dict(max_depth=6),
    "bins16": dict(max_depth=6, max_bins=16),
    "bins3": dict(max_depth=6, max_bins=3),
    "max_features_sqrt": dict(max_depth=6, max_features="sqrt", random_state=5),
    "max_features_half": dict(max_depth=6, max_features=0.5, random_state=6),
    # Nodes of 5-9 rows are scanned but too small to split: they draw nothing.
    "max_features_leaf5": dict(
        max_depth=8, max_features="sqrt", min_samples_leaf=5, random_state=8
    ),
    "min_samples_leaf5": dict(max_depth=8, min_samples_leaf=5, min_samples_split=12),
    "min_impurity_decrease": dict(max_depth=8, min_impurity_decrease=0.01),
    "max_depth1": dict(max_depth=1),
    "max_depth_none": dict(max_depth=None),
}


@pytest.mark.parametrize("weighting", ["unit", "zero_runs"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_tree_matches_reference(monkeypatch, data, case, weighting):
    X, y = data
    w = weights(weighting, len(y))

    def fit():
        tree = DecisionTreeRegressor(tree_method="hist", **CASES[case])
        return tree.fit(X, y, sample_weight=w, capture_train_prediction=True)

    with np.errstate(invalid="ignore"):  # zero-weight children have NaN values
        new, ref = fit_both(monkeypatch, fit)
    assert_same_bytes(new, ref, FITTED + ("train_prediction_",))


def test_pure_nodes_match_reference(monkeypatch, data):
    """Rounded targets leave many children pure: they stop growing."""
    X, y = data
    y = np.round(y)

    def fit():
        tree = DecisionTreeRegressor(tree_method="hist", max_depth=None)
        return tree.fit(X, y, capture_train_prediction=True)

    new, ref = fit_both(monkeypatch, fit)
    assert_same_bytes(new, ref, FITTED + ("train_prediction_",))


def test_degenerate_thresholds_match_reference(monkeypatch, data):
    """A feature of adjacent floats makes risky candidates that need a recount."""
    X, y = data
    below_one = np.nextafter(1.0, 0.0)
    X = np.column_stack([np.where(y > 0.0, 1.0, below_one), X[:, :2]])

    def fit():
        tree = DecisionTreeRegressor(tree_method="hist", max_depth=None)
        return tree.fit(X, y, capture_train_prediction=True)

    new, ref = fit_both(monkeypatch, fit)
    assert_same_bytes(new, ref, FITTED + ("train_prediction_",))


@pytest.mark.parametrize(
    "params",
    [dict(subsample=0.7, loss="absolute_error"), dict(subsample=1.0, loss="squared_error")],
    ids=["subsample_absolute_error", "full_squared_error"],
)
def test_gradient_boosting_matches_reference(monkeypatch, data, params):
    X, y = data

    def fit():
        gb = GradientBoostingRegressor(
            n_estimators=15, max_depth=4, tree_method="hist", random_state=0, **params
        )
        return gb.fit(X, y)

    new, ref = fit_both(monkeypatch, fit)
    assert len(new.estimators_) == len(ref.estimators_)
    for a, b in zip(new.estimators_, ref.estimators_):
        assert_same_bytes(a, b, FITTED)
    assert new.predict(X).tobytes() == ref.predict(X).tobytes()
