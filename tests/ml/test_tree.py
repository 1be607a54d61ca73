"""Tests for the CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor


class TestBasicFitting:
    def test_fits_piecewise_constant_exactly(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.where(X.ravel() < 10, 1.0, 5.0)
        tree = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(tree.predict(X), y)
        assert tree.get_n_leaves() == 2

    def test_single_split_threshold_location(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        internal = tree.feature_ != -2
        assert internal.sum() == 1
        threshold = tree.threshold_[internal][0]
        assert 1.0 < threshold < 2.0

    def test_constant_target_gives_single_leaf(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        tree = DecisionTreeRegressor().fit(X, np.full(10, 3.0))
        assert tree.n_nodes_ == 1
        np.testing.assert_allclose(tree.predict(X), 3.0)

    def test_deep_tree_overfits_training_data(self, nonlinear_data):
        X, y = nonlinear_data
        tree = DecisionTreeRegressor(max_depth=None).fit(X, y)
        assert r2_score(y, tree.predict(X)) > 0.99


class TestHyperparameters:
    def test_max_depth_respected(self, nonlinear_data):
        X, y = nonlinear_data
        for depth in (1, 2, 4):
            tree = DecisionTreeRegressor(max_depth=depth).fit(X, y)
            assert tree.get_depth() <= depth

    def test_min_samples_leaf_respected(self, nonlinear_data):
        X, y = nonlinear_data
        tree = DecisionTreeRegressor(min_samples_leaf=20).fit(X, y)
        leaves = tree.apply(X)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 20

    def test_min_samples_split_limits_growth(self, nonlinear_data):
        X, y = nonlinear_data
        small = DecisionTreeRegressor(min_samples_split=2).fit(X, y)
        large = DecisionTreeRegressor(min_samples_split=100).fit(X, y)
        assert large.get_n_leaves() < small.get_n_leaves()

    def test_deeper_tree_fits_no_worse(self, nonlinear_data):
        X, y = nonlinear_data
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=8).fit(X, y)
        assert deep.score(X, y) >= shallow.score(X, y) - 1e-12

    def test_invalid_params(self):
        X, y = np.ones((4, 1)), np.ones(4)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0).fit(X, y)

    def test_max_features_string_options(self, nonlinear_data):
        X, y = nonlinear_data
        for mf in ("sqrt", "log2", 0.5, 2):
            tree = DecisionTreeRegressor(max_features=mf, random_state=0).fit(X, y)
            assert tree.score(X, y) > 0.3


class TestSampleWeights:
    def test_weights_shift_leaf_values(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 10.0, 0.0, 10.0])
        w = np.array([1.0, 9.0, 9.0, 1.0])
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y, sample_weight=w)
        preds = tree.predict(np.array([[0.0], [1.0]]))
        assert preds[0] == pytest.approx(9.0)
        assert preds[1] == pytest.approx(1.0)

    def test_zero_weight_samples_ignored_in_values(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, 5.0, 100.0])
        w = np.array([1.0, 1.0, 1.0, 0.0])
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y, sample_weight=w)
        assert tree.predict(np.array([[3.0]]))[0] <= 5.0 + 1e-9

    def test_invalid_weights(self):
        X, y = np.ones((3, 1)), np.ones(3)
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(X, y, sample_weight=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(X, y, sample_weight=np.ones(2))

    @pytest.mark.parametrize("method", ["exact", "hist"])
    def test_zero_weight_run_does_not_mask_real_split(self, method):
        """Regression: a leading zero-weight run made the left partition's
        weight zero, the gain NaN, and NaN won ``argmax`` — silently
        discarding the feature's real best split and leaving the node a leaf.
        """
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        w = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        tree = DecisionTreeRegressor(max_depth=1, tree_method=method).fit(
            X, y, sample_weight=w
        )
        assert tree.n_nodes_ == 3
        assert tree.threshold_[0] == 2.5
        np.testing.assert_allclose(tree.predict(X), np.where(X.ravel() <= 2.5, 0.0, 10.0))

    @pytest.mark.parametrize("method", ["exact", "hist"])
    def test_interior_zero_weight_runs_still_split(self, method):
        """Zero-weight runs in the middle of a feature's sort order must not
        block splitting either side of them."""
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.array([0.0, 0.0, 3.0, 7.0, 0.0, 10.0, 10.0, 10.0])
        w = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        tree = DecisionTreeRegressor(max_depth=1, tree_method=method).fit(
            X, y, sample_weight=w
        )
        assert tree.n_nodes_ == 3
        assert tree.predict(np.array([[0.0]]))[0] == pytest.approx(0.0)
        assert tree.predict(np.array([[7.0]]))[0] == pytest.approx(10.0)


class TestMinImpurityDecrease:
    @pytest.mark.parametrize("method", ["exact", "hist"])
    def test_threshold_gates_every_split(self, method):
        """``min_impurity_decrease`` is consulted on every accepted split —
        the historical ``node_sse <= 0`` escape hatch accepted positive-gain
        splits without checking it."""
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        # Weighted SSE gain of the perfect split is 100 on these targets.
        splits = DecisionTreeRegressor(
            max_depth=1, min_impurity_decrease=99.0, tree_method=method
        ).fit(X, y)
        blocked = DecisionTreeRegressor(
            max_depth=1, min_impurity_decrease=101.0, tree_method=method
        ).fit(X, y)
        assert splits.n_nodes_ == 3
        assert blocked.n_nodes_ == 1

    @pytest.mark.parametrize("method", ["exact", "hist"])
    def test_zero_gain_split_rejected_even_without_threshold(self, method):
        """A split must strictly reduce the SSE regardless of the setting."""
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.full(4, 2.0)
        y[0] = 2.0  # constant target: every candidate split has zero gain
        tree = DecisionTreeRegressor(max_depth=3, tree_method=method).fit(X, y)
        assert tree.n_nodes_ == 1


class TestDegenerateThresholdGuard:
    """Two adjacent floats whose midpoint rounds onto the upper one give a
    threshold that sends every sample left; the split must be skipped."""

    @staticmethod
    def data():
        below_one = np.nextafter(1.0, 0.0)
        assert 0.5 * (below_one + 1.0) == 1.0  # the midpoint rounds onto 1.0
        y = np.repeat([0.0, 1.0], 10)
        # Feature 0 separates y perfectly, but only through the degenerate
        # threshold; feature 1 separates it with one sample on each side
        # misplaced.
        f0 = np.where(y == 0.0, below_one, 1.0)
        f1 = np.r_[0:9, 10, 9, 11:20].astype(float)
        return np.column_stack([f0, f1]), y

    @pytest.mark.parametrize("method", ["exact", "hist"])
    def test_degenerate_feature_is_skipped_for_the_next_best(self, method):
        X, y = self.data()
        tree = DecisionTreeRegressor(max_depth=1, tree_method=method).fit(X, y)
        assert tree.n_nodes_ == 3
        assert tree.feature_[0] == 1
        assert tree.n_node_samples_[1] > 0 and tree.n_node_samples_[2] > 0

    @pytest.mark.parametrize("method", ["exact", "hist"])
    def test_degenerate_feature_alone_leaves_the_root_a_leaf(self, method):
        X, y = self.data()
        tree = DecisionTreeRegressor(tree_method=method).fit(X[:, :1], y)
        assert tree.n_nodes_ == 1
        assert tree.value_[0] == 0.5


class TestIntrospection:
    def test_apply_returns_leaves(self, nonlinear_data):
        X, y = nonlinear_data
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        leaves = tree.apply(X)
        assert np.all(tree.feature_[leaves] == -2)

    def test_feature_importances_sum_to_one(self, nonlinear_data):
        X, y = nonlinear_data
        tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_important_feature_detected(self, rng):
        X = rng.normal(size=(300, 3))
        y = 10.0 * X[:, 1] + 0.01 * rng.normal(size=300)
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        assert np.argmax(tree.feature_importances_) == 1

    def test_feature_count_mismatch_on_predict(self, nonlinear_data):
        X, y = nonlinear_data
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(X[:, :2])


class TestProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(5, 40), st.integers(1, 3)),
            elements=st.floats(-50, 50, allow_nan=False),
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_predictions_within_target_range(self, X, depth):
        rng = np.random.default_rng(0)
        y = rng.uniform(-10.0, 10.0, size=X.shape[0])
        tree = DecisionTreeRegressor(max_depth=depth).fit(X, y)
        preds = tree.predict(X)
        assert preds.min() >= y.min() - 1e-9
        assert preds.max() <= y.max() + 1e-9

    @given(st.integers(2, 30))
    @settings(max_examples=20, deadline=None)
    def test_training_mse_no_worse_than_constant_model(self, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        mse_tree = np.mean((y - tree.predict(X)) ** 2)
        mse_const = np.mean((y - y.mean()) ** 2)
        assert mse_tree <= mse_const + 1e-9
