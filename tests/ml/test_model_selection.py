"""Tests for train/test splitting and cross validation."""

import numpy as np
import pytest

from repro.ml.linear import LinearRegression, Ridge
from repro.ml.model_selection import (
    KFold,
    cross_val_predict,
    cross_val_score,
    cross_validate,
    get_scorer,
    train_test_split,
)


class TestTrainTestSplit:
    def test_sizes_with_fraction(self):
        X = np.arange(100).reshape(-1, 1)
        y = np.arange(100)
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, test_size=0.25, random_state=0)
        assert len(X_te) == 25 and len(X_tr) == 75
        assert len(y_te) == 25 and len(y_tr) == 75

    def test_sizes_with_int(self):
        X = np.arange(10).reshape(-1, 1)
        X_tr, X_te = train_test_split(X, test_size=3, random_state=0)
        assert len(X_te) == 3 and len(X_tr) == 7

    def test_partition_is_disjoint_and_complete(self):
        X = np.arange(50).reshape(-1, 1)
        X_tr, X_te = train_test_split(X, test_size=0.3, random_state=1)
        combined = np.sort(np.concatenate([X_tr, X_te]).ravel())
        np.testing.assert_array_equal(combined, np.arange(50))

    def test_reproducible_with_seed(self):
        X = np.arange(30).reshape(-1, 1)
        a = train_test_split(X, test_size=0.5, random_state=42)
        b = train_test_split(X, test_size=0.5, random_state=42)
        np.testing.assert_array_equal(a[0], b[0])

    def test_rows_stay_aligned_across_arrays(self):
        X = np.arange(20).reshape(-1, 1)
        y = np.arange(20) * 10
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, test_size=0.25, random_state=3)
        np.testing.assert_array_equal(X_tr.ravel() * 10, y_tr)

    def test_invalid_test_size(self):
        with pytest.raises(ValueError):
            train_test_split(np.arange(10).reshape(-1, 1), test_size=1.5)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            train_test_split(np.ones((5, 1)), np.ones(4))


class TestKFold:
    def test_every_sample_tested_exactly_once(self):
        kf = KFold(n_splits=4)
        X = np.arange(22)
        seen = np.concatenate([test for _, test in kf.split(X)])
        np.testing.assert_array_equal(np.sort(seen), np.arange(22))

    def test_train_test_disjoint(self):
        for train, test in KFold(n_splits=3).split(np.arange(10)):
            assert len(np.intersect1d(train, test)) == 0

    def test_shuffle_changes_order_but_not_coverage(self):
        kf = KFold(n_splits=5, shuffle=True, random_state=0)
        seen = np.concatenate([test for _, test in kf.split(np.arange(23))])
        np.testing.assert_array_equal(np.sort(seen), np.arange(23))

    def test_seeded_shuffle_is_reproduced(self):
        X = np.arange(60)
        a = list(KFold(n_splits=4, shuffle=True, random_state=42).split(X))
        b = list(KFold(n_splits=4, shuffle=True, random_state=42).split(X))
        assert len(a) == len(b) == 4
        for (tr1, te1), (tr2, te2) in zip(a, b):
            np.testing.assert_array_equal(tr1, tr2)
            np.testing.assert_array_equal(te1, te2)

    def test_too_many_splits_raises(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(np.arange(3)))

    def test_min_splits(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)


class TestCrossValidation:
    def test_cross_val_score_high_for_linear_model(self, linear_data):
        X, y, _ = linear_data
        scores = cross_val_score(LinearRegression(), X, y, cv=4)
        assert scores.shape == (4,)
        assert np.all(scores > 0.95)

    def test_cross_validate_returns_times(self, linear_data):
        X, y, _ = linear_data
        out = cross_validate(Ridge(0.1), X, y, cv=3, return_train_score=True)
        assert set(out) == {"test_score", "fit_time", "score_time", "train_score"}
        assert np.all(out["fit_time"] >= 0)

    def test_cross_val_predict_covers_all_samples(self, linear_data):
        X, y, _ = linear_data
        preds = cross_val_predict(LinearRegression(), X, y, cv=5)
        assert preds.shape == y.shape
        assert np.corrcoef(preds, y)[0, 1] > 0.95

    def test_error_scorer_is_negated(self, linear_data):
        X, y, _ = linear_data
        scores = cross_val_score(LinearRegression(), X, y, cv=3, scoring="neg_mean_absolute_error")
        assert np.all(scores <= 0)

    def test_get_scorer_unknown_name(self):
        with pytest.raises(ValueError):
            get_scorer("not-a-metric")

    def test_get_scorer_accepts_callable(self):
        f = lambda yt, yp: 1.0
        assert get_scorer(f) is f
