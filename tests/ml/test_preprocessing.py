"""Tests for scalers and polynomial features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.preprocessing import MinMaxScaler, PolynomialFeatures, StandardScaler

matrix_strategy = st.tuples(
    st.integers(min_value=3, max_value=30), st.integers(min_value=1, max_value=5)
).flatmap(
    lambda shape: arrays(
        np.float64,
        shape,
        elements=st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    )
)


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        X = rng.normal(5.0, 3.0, size=(100, 4))
        Xt = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Xt.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Xt.std(axis=0), 1.0, atol=1e-10)

    def test_inverse_transform_roundtrip(self, rng):
        X = rng.uniform(-10, 10, size=(50, 3))
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(X)), X, atol=1e-10)

    def test_moments_match_numpy_bit_for_bit(self, rng):
        X = rng.uniform(0.0, 10.0, size=(60, 4))
        scaler = StandardScaler().fit(X)
        np.testing.assert_array_equal(scaler.mean_, X.mean(axis=0))
        np.testing.assert_array_equal(scaler.scale_, X.std(axis=0))

    def test_constant_column_scale_is_one(self):
        scaler = StandardScaler().fit(np.column_stack([np.ones(10), np.arange(10.0)]))
        assert scaler.scale_[0] == 1.0

    def test_constant_column_does_not_nan(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Xt = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Xt))
        np.testing.assert_allclose(Xt[:, 0], 0.0)

    def test_feature_count_mismatch(self, rng):
        scaler = StandardScaler().fit(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError, match="features"):
            scaler.transform(rng.normal(size=(10, 2)))

    @given(matrix_strategy)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, X):
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(X)), X, atol=1e-6)


class TestMinMaxScaler:
    def test_output_in_range(self, rng):
        X = rng.uniform(-5, 17, size=(60, 3))
        Xt = MinMaxScaler().fit_transform(X)
        assert Xt.min() >= -1e-12 and Xt.max() <= 1.0 + 1e-12

    def test_custom_range(self, rng):
        X = rng.uniform(0, 1, size=(40, 2))
        Xt = MinMaxScaler(feature_range=(-1.0, 1.0)).fit_transform(X)
        assert Xt.min() >= -1.0 - 1e-12 and Xt.max() <= 1.0 + 1e-12

    def test_invalid_range_raises(self):
        with pytest.raises(ValueError):
            MinMaxScaler(feature_range=(1.0, 0.0)).fit(np.ones((3, 1)))

    def test_inverse_roundtrip(self, rng):
        X = rng.normal(size=(30, 4))
        scaler = MinMaxScaler().fit(X)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(X)), X, atol=1e-10)


class TestPolynomialFeatures:
    def test_degree_two_columns(self):
        X = np.array([[2.0, 3.0]])
        poly = PolynomialFeatures(degree=2, include_bias=True)
        Xt = poly.fit_transform(X)
        # 1, x0, x1, x0^2, x0*x1, x1^2
        np.testing.assert_allclose(Xt, [[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]])

    def test_no_bias(self):
        Xt = PolynomialFeatures(degree=1, include_bias=False).fit_transform(np.array([[5.0]]))
        np.testing.assert_allclose(Xt, [[5.0]])

    def test_interaction_only_excludes_powers(self):
        X = np.array([[2.0, 3.0]])
        poly = PolynomialFeatures(degree=2, include_bias=False, interaction_only=True)
        Xt = poly.fit_transform(X)
        np.testing.assert_allclose(Xt, [[2.0, 3.0, 6.0]])

    def test_output_feature_count_formula(self):
        from math import comb

        n_features, degree = 4, 3
        poly = PolynomialFeatures(degree=degree, include_bias=True).fit(np.ones((2, n_features)))
        expected = sum(comb(n_features + d - 1, d) for d in range(degree + 1))
        assert poly.n_output_features_ == expected

    def test_feature_names(self):
        poly = PolynomialFeatures(degree=2).fit(np.ones((2, 2)))
        names = poly.get_feature_names_out(["a", "b"])
        assert names == ["1", "a", "b", "a^2", "a b", "b^2"]

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError):
            PolynomialFeatures(degree=-1).fit(np.ones((2, 2)))

    def test_feature_count_mismatch_on_transform(self):
        poly = PolynomialFeatures(degree=2).fit(np.ones((2, 3)))
        with pytest.raises(ValueError):
            poly.transform(np.ones((2, 2)))
