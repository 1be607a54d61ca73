"""Data splitting and cross-validation utilities.

The paper trains with a fixed train/test split (Table 1) and uses K-fold
cross validation inside the hyper-parameter searches of Figures 1 and 2.

``cross_validate``, ``cross_val_score`` and ``cross_val_predict`` accept
``n_jobs`` and fan the independent fold fits out over
:func:`repro.parallel.parallel_map`; folds are enumerated and seeded before
the fan-out, so serial and parallel runs return identical scores.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from repro.ml.base import check_random_state, clone
from repro.ml import metrics as _metrics

__all__ = [
    "train_test_split",
    "KFold",
    "cross_val_score",
    "cross_validate",
    "cross_val_predict",
    "get_scorer",
]

_SCORERS: dict[str, Callable[[Any, Any], float]] = {
    "r2": _metrics.r2_score,
    "neg_mean_absolute_error": lambda yt, yp: -_metrics.mean_absolute_error(yt, yp),
    "neg_mean_absolute_percentage_error": lambda yt, yp: -_metrics.mean_absolute_percentage_error(yt, yp),
    "neg_mean_squared_error": lambda yt, yp: -_metrics.mean_squared_error(yt, yp),
    "neg_root_mean_squared_error": lambda yt, yp: -_metrics.root_mean_squared_error(yt, yp),
    "mae": _metrics.mean_absolute_error,
    "mape": _metrics.mean_absolute_percentage_error,
}


def get_scorer(scoring: Any) -> Callable[[Any, Any], float]:
    """Resolve a scoring spec into a ``score(y_true, y_pred)`` callable.

    Named scorers follow the scikit-learn convention that *greater is better*
    (error metrics are negated).
    """
    if callable(scoring):
        return scoring
    if scoring in _SCORERS:
        return _SCORERS[scoring]
    raise ValueError(f"Unknown scoring {scoring!r}. Available: {sorted(_SCORERS)}")


def train_test_split(
    *arrays: Any,
    test_size: float | int = 0.25,
    random_state: Any = None,
    shuffle: bool = True,
) -> list[np.ndarray]:
    """Split arrays into random train and test subsets.

    Returns ``[a_train, a_test, b_train, b_test, ...]`` for each input array.
    """
    if not arrays:
        raise ValueError("At least one array is required.")
    n_samples = len(np.asarray(arrays[0]))
    for arr in arrays[1:]:
        if len(np.asarray(arr)) != n_samples:
            raise ValueError("All input arrays must have the same number of samples.")

    if isinstance(test_size, float):
        if not 0.0 < test_size < 1.0:
            raise ValueError("test_size as a float must be in (0, 1).")
        n_test = int(np.ceil(n_samples * test_size))
    else:
        n_test = int(test_size)
    if not 0 < n_test < n_samples:
        raise ValueError(f"test_size={test_size} leaves an empty train or test set.")

    indices = np.arange(n_samples)
    if shuffle:
        rng = check_random_state(random_state)
        rng.shuffle(indices)
    test_idx = indices[:n_test]
    train_idx = indices[n_test:]

    out: list[np.ndarray] = []
    for arr in arrays:
        arr = np.asarray(arr)
        out.append(arr[train_idx])
        out.append(arr[test_idx])
    return out


class KFold:
    """K-fold cross-validation iterator."""

    def __init__(self, n_splits: int = 5, shuffle: bool = False, random_state: Any = None) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2.")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X: Any, y: Any = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, test_indices)`` for each fold."""
        n_samples = len(np.asarray(X))
        if self.n_splits > n_samples:
            raise ValueError(
                f"Cannot have n_splits={self.n_splits} greater than n_samples={n_samples}."
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = check_random_state(self.random_state)
            rng.shuffle(indices)
        fold_sizes = np.full(self.n_splits, n_samples // self.n_splits, dtype=int)
        fold_sizes[: n_samples % self.n_splits] += 1
        current = 0
        for fold_size in fold_sizes:
            test_idx = indices[current : current + fold_size]
            train_idx = np.concatenate([indices[:current], indices[current + fold_size :]])
            yield train_idx, test_idx
            current += fold_size

    def get_n_splits(self, X: Any = None, y: Any = None) -> int:
        return self.n_splits


def _resolve_cv(cv: Any) -> KFold:
    if isinstance(cv, KFold):
        return cv
    if cv is None:
        return KFold(n_splits=5)
    if isinstance(cv, int):
        return KFold(n_splits=cv)
    raise ValueError(f"Unsupported cv specification: {cv!r}")


def _cross_validate_fold(task: tuple) -> tuple[float, float, float, Optional[float]]:
    """Fit/score a single fold: ``(test_score, fit_time, score_time, train_score)``."""
    from repro.parallel.store import record_fit

    estimator, X, y, train_idx, test_idx, scoring, return_train_score = task
    scorer = get_scorer(scoring)
    model = clone(estimator)
    t0 = time.perf_counter()
    record_fit()
    model.fit(X[train_idx], y[train_idx])
    fit_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    test_score = scorer(y[test_idx], model.predict(X[test_idx]))
    score_time = time.perf_counter() - t0
    train_score = (
        scorer(y[train_idx], model.predict(X[train_idx])) if return_train_score else None
    )
    return test_score, fit_time, score_time, train_score


def cross_validate(
    estimator: Any,
    X: Any,
    y: Any,
    *,
    cv: Any = 5,
    scoring: Any = "r2",
    return_train_score: bool = False,
    n_jobs: Optional[int] = 1,
) -> dict[str, np.ndarray]:
    """Fit/score an estimator over CV folds, returning per-fold diagnostics.

    ``n_jobs`` distributes the fold fits over worker processes; fold order
    and scores are identical to the serial run.
    """
    from repro.parallel.backend import parallel_map

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    get_scorer(scoring)  # fail fast on unknown scoring specs
    tasks = [
        (estimator, X, y, train_idx, test_idx, scoring, return_train_score)
        for train_idx, test_idx in _resolve_cv(cv).split(X, y)
    ]
    folds = parallel_map(_cross_validate_fold, tasks, n_jobs=n_jobs)

    out = {
        "test_score": np.asarray([f[0] for f in folds]),
        "fit_time": np.asarray([f[1] for f in folds]),
        "score_time": np.asarray([f[2] for f in folds]),
    }
    if return_train_score:
        out["train_score"] = np.asarray([f[3] for f in folds])
    return out


def cross_val_score(
    estimator: Any,
    X: Any,
    y: Any,
    *,
    cv: Any = 5,
    scoring: Any = "r2",
    n_jobs: Optional[int] = 1,
) -> np.ndarray:
    """Per-fold test scores of ``estimator`` under K-fold cross validation."""
    return cross_validate(estimator, X, y, cv=cv, scoring=scoring, n_jobs=n_jobs)["test_score"]


def _cross_val_predict_fold(task: tuple) -> np.ndarray:
    from repro.parallel.store import record_fit

    estimator, X, y, train_idx, test_idx = task
    model = clone(estimator)
    record_fit()
    model.fit(X[train_idx], y[train_idx])
    return model.predict(X[test_idx])


def cross_val_predict(
    estimator: Any,
    X: Any,
    y: Any,
    *,
    cv: Any = 5,
    n_jobs: Optional[int] = 1,
) -> np.ndarray:
    """Out-of-fold predictions for every sample."""
    from repro.parallel.backend import parallel_map

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    splits = list(_resolve_cv(cv).split(X, y))
    tasks = [(estimator, X, y, train_idx, test_idx) for train_idx, test_idx in splits]
    fold_preds = parallel_map(_cross_val_predict_fold, tasks, n_jobs=n_jobs)
    preds = np.empty_like(y)
    for (train_idx, test_idx), fold_pred in zip(splits, fold_preds):
        preds[test_idx] = fold_pred
    return preds
