"""Gradient boosted regression trees (the paper's "GB" model).

The paper finds GB the best overall model on both Aurora and Frontier and
deploys it with 750 estimators and max depth 10.  This implementation is
least-squares gradient boosting with shrinkage, optional stochastic
subsampling and optional early stopping on a validation fraction.

When ``subsample == 1.0`` every stage fits on the training matrix itself,
so the sorted-feature-index cache (:func:`repro.parallel.cache.feature_presort`)
is hit once per stage and the per-stage column sorts disappear; stages are
sequential by construction, so boosting itself takes no ``n_jobs``.

Prediction runs on the packed flat-array engine (:mod:`repro.ml.packed`):
one batched traversal gathers the per-stage leaf values, and one
``np.add.accumulate`` (:func:`repro.ml.packed.running_sums`) sums them in
stage order with the historical ``init + lr * stage_0 + lr * stage_1 + ...``
float-op sequence, so packed predictions — and every ``staged_predict``
stage — are byte-identical to the per-tree object path.  The arena is also
the pickle form of a fitted model (see ``__getstate__``).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    RegressorMixin,
    check_array,
    check_random_state,
    check_X_y,
)
from repro.ml.packed import PackedTreesMixin, running_sums
from repro.ml.tree import DecisionTreeRegressor
from repro.parallel.cache import FeatureBins, feature_bins

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor(PackedTreesMixin, BaseEstimator, RegressorMixin):
    """Sequential ensemble where each tree fits the residuals of the current model.

    Parameters
    ----------
    loss:
        ``"squared_error"`` (negative gradient = residual) or ``"absolute_error"``
        (negative gradient = sign of residual, leaves re-valued with the median).
    n_estimators, learning_rate, max_depth, min_samples_split, min_samples_leaf,
    max_features, subsample:
        Standard boosting controls.
    n_iter_no_change, validation_fraction, tol:
        When ``n_iter_no_change`` is set, a validation split is carved out and
        boosting stops once the validation loss has not improved by ``tol``
        for that many consecutive iterations.
    tree_method, max_bins:
        Split-search engine for the stage trees — ``"exact"`` (default) or
        ``"hist"`` (see :mod:`repro.ml.tree`).  With ``"hist"`` the training
        matrix is quantised once per fit and every boosting stage reuses the
        same binning (subsampled stages take the row subset of the codes).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Any = None,
        subsample: float = 1.0,
        loss: str = "squared_error",
        n_iter_no_change: Optional[int] = None,
        validation_fraction: float = 0.1,
        tol: float = 1e-4,
        random_state: Any = None,
        tree_method: str = "exact",
        max_bins: int = 255,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.subsample = subsample
        self.loss = loss
        self.n_iter_no_change = n_iter_no_change
        self.validation_fraction = validation_fraction
        self.tol = tol
        self.random_state = random_state
        self.tree_method = tree_method
        self.max_bins = max_bins

    def _negative_gradient(self, y: np.ndarray, pred: np.ndarray) -> np.ndarray:
        if self.loss == "squared_error":
            return y - pred
        if self.loss == "absolute_error":
            return np.sign(y - pred)
        raise ValueError(f"Unknown loss {self.loss!r}.")

    def _loss_value(self, y: np.ndarray, pred: np.ndarray) -> float:
        if self.loss == "squared_error":
            return float(np.mean((y - pred) ** 2))
        return float(np.mean(np.abs(y - pred)))

    def _update_leaves_absolute(self, tree: DecisionTreeRegressor, X: np.ndarray,
                                residual: np.ndarray) -> None:
        """For absolute-error loss, re-value each leaf with the median residual.

        One argsort-and-segment pass: residuals are lexsorted within leaf
        groups, so each leaf's median is its middle order statistic (or the
        mean of the two middle ones — the exact ``np.median`` computation, so
        re-valued leaves are bit-identical to the per-leaf masked loop).
        """
        leaves = tree.apply(X)
        order = np.lexsort((residual, leaves))
        sorted_leaves = leaves[order]
        sorted_residual = residual[order]
        starts = np.flatnonzero(np.r_[True, sorted_leaves[1:] != sorted_leaves[:-1]])
        counts = np.diff(np.r_[starts, sorted_leaves.size])
        mid = starts + counts // 2
        upper = sorted_residual[mid]
        lower = sorted_residual[mid - 1]
        medians = np.where(counts % 2 == 1, upper, (lower + upper) / 2.0)
        tree.value_[sorted_leaves[starts]] = medians

    def fit(self, X: Any, y: Any) -> "GradientBoostingRegressor":
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1.")
        if not 0.0 < self.learning_rate:
            raise ValueError("learning_rate must be positive.")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1].")
        if self.tree_method not in ("exact", "hist"):
            raise ValueError(
                f"Unknown tree_method {self.tree_method!r}; expected 'exact' or 'hist'."
            )
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)

        X_val: Optional[np.ndarray] = None
        y_val: Optional[np.ndarray] = None
        if self.n_iter_no_change is not None:
            n_val = max(1, int(round(self.validation_fraction * len(y))))
            if n_val >= len(y):
                raise ValueError("validation_fraction leaves no training data.")
            perm = rng.permutation(len(y))
            val_idx, train_idx = perm[:n_val], perm[n_val:]
            X_val, y_val = X[val_idx], y[val_idx]
            X, y = X[train_idx], y[train_idx]

        n_samples = X.shape[0]
        # With the hist method the (post-carve) training matrix is quantised
        # exactly once; every stage — and, via the content-addressed cache,
        # every repeated fit on the same matrix — reuses the binning.
        bins: Optional[FeatureBins] = (
            feature_bins(X, self.max_bins) if self.tree_method == "hist" else None
        )
        self.init_ = float(np.mean(y)) if self.loss == "squared_error" else float(np.median(y))
        pred = np.full(n_samples, self.init_)
        val_pred = np.full(len(y_val), self.init_) if y_val is not None else None

        self.estimators_: list[DecisionTreeRegressor] = []
        self._packed = None  # drop any arena from a previous fit
        self.train_score_: list[float] = []
        self.validation_score_: list[float] = []
        best_val = np.inf
        stall = 0

        for _ in range(self.n_estimators):
            residual = self._negative_gradient(y, pred)
            if self.subsample < 1.0:
                n_draw = max(2, int(round(self.subsample * n_samples)))
                idx = rng.choice(n_samples, size=n_draw, replace=False)
                X_stage, residual_stage = X[idx], residual[idx]
            else:
                # Reuse the training matrix itself: every stage then hits the
                # same sorted-feature-index cache entry (see repro.parallel).
                idx = None
                X_stage, residual_stage = X, residual
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
                tree_method=self.tree_method,
                max_bins=self.max_bins,
            )
            # Subsampled stages fit a fresh one-use matrix: bypass the presort
            # cache (no possible hit) so it keeps the reusable full matrices.
            # The hist binning survives subsampling — stages hand the tree the
            # row subset of the once-computed codes instead of re-binning.
            # Full-sample squared-error hist stages also capture the tree's
            # training predictions during the build (bit-identical to
            # ``tree.predict(X)``) so the stage update needs no traversal;
            # absolute-error leaves are re-valued after the fit, so the
            # captured values would be stale there.
            capture = (
                idx is None
                and self.tree_method == "hist"
                and self.loss == "squared_error"
            )
            tree.fit(
                X_stage,
                residual_stage,
                use_presort_cache=idx is None,
                bins=bins if idx is None else (None if bins is None else bins.take(idx)),
                capture_train_prediction=capture,
            )
            if self.loss == "absolute_error":
                residual_abs = (y - pred) if idx is None else (y - pred)[idx]
                self._update_leaves_absolute(tree, X_stage, residual_abs)
            if capture:
                pred += self.learning_rate * tree.train_prediction_
                del tree.train_prediction_  # keep the pickled tree lean
            else:
                pred += self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)
            self.train_score_.append(self._loss_value(y, pred))

            if y_val is not None:
                val_pred += self.learning_rate * tree.predict(X_val)
                val_loss = self._loss_value(y_val, val_pred)
                self.validation_score_.append(val_loss)
                if val_loss < best_val - self.tol:
                    best_val = val_loss
                    stall = 0
                else:
                    stall += 1
                    if stall >= self.n_iter_no_change:
                        break

        self.n_estimators_ = len(self.estimators_)
        self.n_features_in_ = X.shape[1]
        return self

    def _raw_predict(self, X: np.ndarray, n_estimators: Optional[int] = None) -> np.ndarray:
        n_stages = len(self.estimators_) if n_estimators is None else min(
            int(n_estimators), len(self.estimators_)
        )
        if n_stages < 1:
            return np.full(X.shape[0], self.init_)
        # One batched traversal for every stage; leaf values accumulate in
        # stage order, reproducing the sequential shrinkage float-op sequence
        # of the per-tree loop bit for bit.
        return self._packed_ensemble().accumulate(
            X, init=self.init_, scale=self.learning_rate, n_trees=n_stages
        )

    def predict(self, X: Any) -> np.ndarray:
        self._check_is_fitted()
        X = check_array(X)
        return self._raw_predict(X)

    def staged_predict(self, X: Any):
        """Yield predictions after each boosting stage (for learning curves)."""
        self._check_is_fitted()
        X = check_array(X)
        leaves = self._packed_ensemble().leaf_values(X, tree_major=True)
        yield from running_sums(leaves, self.init_, self.learning_rate)

    @property
    def feature_importances_(self) -> np.ndarray:
        self._check_is_fitted()
        importances = np.mean([t.feature_importances_ for t in self.estimators_], axis=0)
        total = importances.sum()
        return importances / total if total > 0 else importances
