"""Feature preprocessing: scalers and polynomial feature expansion.

Polynomial feature expansion is the basis of the paper's "Polynomial
Regression" model; the scalers are used by kernel methods (KR, GP, SVR) whose
hyper-parameters are scale sensitive.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Any, Optional, Sequence

import numpy as np

from repro.ml.base import BaseEstimator, check_array

__all__ = ["StandardScaler", "MinMaxScaler", "PolynomialFeatures"]


class StandardScaler(BaseEstimator):
    """Standardise features to zero mean and unit variance.

    Features with zero variance are left at their centred value (the scale is
    clamped to 1) so constant columns never produce NaNs.
    """

    def __init__(self, with_mean: bool = True, with_std: bool = True) -> None:
        self.with_mean = with_mean
        self.with_std = with_std

    def fit(self, X: Any, y: Any = None) -> "StandardScaler":
        # check_array returns C-contiguous data; keep that layout, since an
        # F-ordered axis-0 mean sums in another order and differs in the
        # last bits.
        X = check_array(X)
        self.n_features_in_ = X.shape[1]
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            scale = X.std(axis=0)
            scale[scale == 0.0] = 1.0
            self.scale_ = scale
        else:
            self.scale_ = np.ones(X.shape[1])
        return self

    def transform(self, X: Any) -> np.ndarray:
        self._check_is_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, but StandardScaler was fitted with "
                f"{self.n_features_in_}."
            )
        return (X - self.mean_) / self.scale_

    def inverse_transform(self, X: Any) -> np.ndarray:
        self._check_is_fitted()
        X = check_array(X)
        return X * self.scale_ + self.mean_

    def fit_transform(self, X: Any, y: Any = None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class MinMaxScaler(BaseEstimator):
    """Scale each feature to a given range (default ``[0, 1]``)."""

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0)) -> None:
        self.feature_range = feature_range

    def fit(self, X: Any, y: Any = None) -> "MinMaxScaler":
        lo, hi = self.feature_range
        if lo >= hi:
            raise ValueError(f"Invalid feature_range {self.feature_range}: min must be < max.")
        X = check_array(X)
        self.n_features_in_ = X.shape[1]
        self.data_min_ = X.min(axis=0)
        self.data_max_ = X.max(axis=0)
        data_range = self.data_max_ - self.data_min_
        data_range[data_range == 0.0] = 1.0
        self.data_range_ = data_range
        self.scale_ = (hi - lo) / data_range
        self.min_ = lo - self.data_min_ * self.scale_
        return self

    def transform(self, X: Any) -> np.ndarray:
        self._check_is_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, but MinMaxScaler was fitted with "
                f"{self.n_features_in_}."
            )
        return X * self.scale_ + self.min_

    def inverse_transform(self, X: Any) -> np.ndarray:
        self._check_is_fitted()
        X = check_array(X)
        return (X - self.min_) / self.scale_

    def fit_transform(self, X: Any, y: Any = None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class PolynomialFeatures(BaseEstimator):
    """Generate polynomial and interaction features up to ``degree``.

    The output column order is: bias (optional), degree-1 terms, degree-2
    terms, ... with each degree block ordered by
    :func:`itertools.combinations_with_replacement` over feature indices.
    """

    def __init__(
        self,
        degree: int = 2,
        include_bias: bool = True,
        interaction_only: bool = False,
    ) -> None:
        self.degree = degree
        self.include_bias = include_bias
        self.interaction_only = interaction_only

    def _combinations(self, n_features: int) -> list[tuple[int, ...]]:
        combos: list[tuple[int, ...]] = []
        if self.include_bias:
            combos.append(())
        for deg in range(1, self.degree + 1):
            if self.interaction_only:
                from itertools import combinations

                combos.extend(combinations(range(n_features), deg))
            else:
                combos.extend(combinations_with_replacement(range(n_features), deg))
        return combos

    def fit(self, X: Any, y: Any = None) -> "PolynomialFeatures":
        if self.degree < 0:
            raise ValueError("degree must be non-negative.")
        X = check_array(X)
        self.n_features_in_ = X.shape[1]
        self.combinations_ = self._combinations(X.shape[1])
        self.n_output_features_ = len(self.combinations_)
        return self

    def transform(self, X: Any) -> np.ndarray:
        self._check_is_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, but PolynomialFeatures was fitted with "
                f"{self.n_features_in_}."
            )
        n_samples = X.shape[0]
        out = np.empty((n_samples, self.n_output_features_), dtype=np.float64)
        for j, combo in enumerate(self.combinations_):
            if len(combo) == 0:
                out[:, j] = 1.0
            else:
                out[:, j] = np.prod(X[:, combo], axis=1)
        return out

    def fit_transform(self, X: Any, y: Any = None) -> np.ndarray:
        return self.fit(X, y).transform(X)

    def get_feature_names_out(self, input_features: Optional[Sequence[str]] = None) -> list[str]:
        """Human-readable names, e.g. ``["1", "x0", "x0 x1", "x1^2"]``."""
        self._check_is_fitted()
        if input_features is None:
            input_features = [f"x{i}" for i in range(self.n_features_in_)]
        names = []
        for combo in self.combinations_:
            if len(combo) == 0:
                names.append("1")
                continue
            parts = []
            for idx in sorted(set(combo)):
                power = combo.count(idx)
                parts.append(input_features[idx] if power == 1 else f"{input_features[idx]}^{power}")
            names.append(" ".join(parts))
        return names
