"""Hyper-parameter search: parameter grids, grid search and randomized search.

Figures 1 and 2 of the paper compare every model under three search
strategies: ``GridSearchCV``, ``RandomizedSearchCV`` and ``BayesSearchCV``
(the latter lives in :mod:`repro.ml.bayes_search`).  All searches share the
same cross-validated scoring loop implemented here.

``n_jobs`` contract: every search accepts ``n_jobs`` and fans candidate
evaluations out over :func:`repro.parallel.parallel_map` (folds, for the
sequential Bayesian search).  Candidate order, CV splits and every seed are
fixed *before* the fan-out, so ``best_params_``, ``best_score_`` and
``cv_results_`` scores are bit-identical for serial and parallel runs.
Candidate evaluations are memoised via :mod:`repro.parallel.cache`, so
strategies that revisit the same candidate on the same data reuse the score;
when a cross-process memo store is active (``--memo-dir`` /
``REPRO_MEMO_DIR``, see :mod:`repro.parallel.store`) the memo extends across
worker processes and across runs with byte-identical scores.
"""

from __future__ import annotations

import time
from itertools import product
from typing import Any, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.ml.base import BaseEstimator, _as_param_mapping, check_random_state, clone
from repro.ml.model_selection import _resolve_cv, get_scorer
from repro.parallel.backend import parallel_map
from repro.parallel.cache import (
    array_token,
    candidate_eval_get,
    candidate_eval_put,
    estimator_token,
    splits_token,
)
from repro.parallel.store import record_fit

__all__ = ["ParameterGrid", "ParameterSampler", "GridSearchCV", "RandomizedSearchCV", "BaseSearchCV"]


def _candidate_cache_key(
    estimator: Any, params: Mapping[str, Any], data_token: Optional[tuple], scoring: Any
) -> Optional[tuple]:
    """Memoisation key for one candidate evaluation, or ``None`` if uncacheable."""
    if data_token is None or not isinstance(scoring, str):
        return None
    est_token = estimator_token(estimator, params)
    if est_token is None:
        return None
    return est_token + (data_token, scoring)


def _fit_score_fold(task: tuple) -> float:
    """Fit one CV fold of one candidate and return its test score."""
    estimator, params, X, y, train_idx, test_idx, scoring = task
    scorer = get_scorer(scoring)
    model = clone(estimator).set_params(**params)
    record_fit()
    model.fit(X[train_idx], y[train_idx])
    return float(scorer(y[test_idx], model.predict(X[test_idx])))


def _evaluate_one(task: tuple) -> tuple[float, float, float]:
    """Evaluate one candidate over all folds: ``(mean, std, eval_time)``.

    Module-level (picklable) so candidate evaluations can run in worker
    processes; consults the cross-strategy memo cache first.
    """
    estimator, params, X, y, splits, scoring, data_token, fold_jobs = task
    t0 = time.perf_counter()
    key = _candidate_cache_key(estimator, params, data_token, scoring)
    if key is not None:
        cached = candidate_eval_get(key)
        if cached is not None:
            # eval_time always reports time spent *this* run: for a memo hit
            # that is the lookup cost, not the original evaluation's cost.
            mean, std = cached
            return (mean, std, time.perf_counter() - t0)
    fold_tasks = [
        (estimator, params, X, y, train_idx, test_idx, scoring)
        for train_idx, test_idx in splits
    ]
    scores = parallel_map(_fit_score_fold, fold_tasks, n_jobs=fold_jobs)
    elapsed = time.perf_counter() - t0
    mean, std = float(np.mean(scores)), float(np.std(scores))
    if key is not None:
        candidate_eval_put(key, (mean, std))
    return (mean, std, elapsed)


class ParameterGrid:
    """Exhaustive Cartesian product over a parameter grid (or list of grids)."""

    def __init__(self, param_grid: Mapping[str, Sequence] | Sequence[Mapping[str, Sequence]]) -> None:
        if isinstance(param_grid, Mapping):
            param_grid = [param_grid]
        self.param_grid = [_as_param_mapping(grid) for grid in param_grid]

    def __iter__(self) -> Iterator[dict[str, Any]]:
        for grid in self.param_grid:
            keys = sorted(grid)
            if not keys:
                yield {}
                continue
            for values in product(*(grid[k] for k in keys)):
                yield dict(zip(keys, values))

    def __len__(self) -> int:
        total = 0
        for grid in self.param_grid:
            n = 1
            for values in grid.values():
                n *= len(values)
            total += n
        return total


class ParameterSampler:
    """Random samples from a parameter grid or from distributions.

    Values may be lists (sampled uniformly) or objects exposing an
    ``rvs(random_state=...)`` method (e.g. ``scipy.stats`` distributions).
    """

    def __init__(
        self,
        param_distributions: Mapping[str, Any],
        n_iter: int,
        random_state: Any = None,
    ) -> None:
        self.param_distributions = dict(param_distributions)
        self.n_iter = n_iter
        self.random_state = random_state

    def __iter__(self) -> Iterator[dict[str, Any]]:
        rng = check_random_state(self.random_state)
        keys = sorted(self.param_distributions)
        all_lists = all(
            not hasattr(self.param_distributions[k], "rvs") for k in keys
        )
        if all_lists:
            grid = ParameterGrid({k: self.param_distributions[k] for k in keys})
            candidates = list(grid)
            n = min(self.n_iter, len(candidates))
            idx = rng.choice(len(candidates), size=n, replace=False)
            for i in idx:
                yield candidates[int(i)]
            return
        for _ in range(self.n_iter):
            params = {}
            for k in keys:
                dist = self.param_distributions[k]
                if hasattr(dist, "rvs"):
                    params[k] = dist.rvs(random_state=int(rng.integers(0, 2**31 - 1)))
                else:
                    values = list(dist)
                    params[k] = values[int(rng.integers(0, len(values)))]
            yield params

    def __len__(self) -> int:
        return self.n_iter


class BaseSearchCV(BaseEstimator):
    """Shared machinery: evaluate candidates with K-fold CV and refit the best.

    ``n_jobs`` fans the independent candidate evaluations out over a process
    pool (serial when 1, all CPUs when -1); results are identical to the
    serial path for a fixed seed.
    """

    def __init__(
        self,
        estimator: Any,
        *,
        scoring: Any = "r2",
        cv: Any = 3,
        refit: bool = True,
        n_jobs: Optional[int] = 1,
    ) -> None:
        self.estimator = estimator
        self.scoring = scoring
        self.cv = cv
        self.refit = refit
        self.n_jobs = n_jobs

    def _candidates(self) -> list[dict[str, Any]]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _data_token(
        self, X: np.ndarray, y: np.ndarray, splits: list[tuple[np.ndarray, np.ndarray]]
    ) -> tuple:
        """Content token identifying ``(X, y, splits)`` for the memo cache."""
        return (array_token(X), array_token(y), splits_token(splits))

    def _evaluate_candidate(
        self,
        params: dict[str, Any],
        X: np.ndarray,
        y: np.ndarray,
        splits: list[tuple[np.ndarray, np.ndarray]],
        *,
        data_token: Optional[tuple] = None,
        fold_jobs: Optional[int] = 1,
    ) -> tuple[float, float, float]:
        return _evaluate_one(
            (self.estimator, params, X, y, splits, self.scoring, data_token, fold_jobs)
        )

    def fit(self, X: Any, y: Any) -> "BaseSearchCV":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        get_scorer(self.scoring)  # fail fast on unknown scoring specs
        splits = list(_resolve_cv(self.cv).split(X, y))

        candidates = self._candidates()
        if not candidates:
            raise ValueError("No hyper-parameter candidates to evaluate.")

        data_token = self._data_token(X, y, splits)
        # With a single candidate the fan-out happens across folds instead.
        candidate_jobs = self.n_jobs if len(candidates) > 1 else 1
        fold_jobs = self.n_jobs if len(candidates) == 1 else 1
        tasks = [
            (self.estimator, params, X, y, splits, self.scoring, data_token, fold_jobs)
            for params in candidates
        ]
        t_start = time.perf_counter()
        evaluated = parallel_map(_evaluate_one, tasks, n_jobs=candidate_jobs)
        self.search_time_ = time.perf_counter() - t_start

        self.cv_results_ = {
            "params": candidates,
            "mean_test_score": np.asarray([mean for mean, _, _ in evaluated]),
            "std_test_score": np.asarray([std for _, std, _ in evaluated]),
            "eval_time": np.asarray([elapsed for _, _, elapsed in evaluated]),
        }
        best_idx = int(np.argmax(self.cv_results_["mean_test_score"]))
        self.best_index_ = best_idx
        self.best_params_ = self.cv_results_["params"][best_idx]
        self.best_score_ = float(self.cv_results_["mean_test_score"][best_idx])

        if self.refit:
            self.best_estimator_ = clone(self.estimator).set_params(**self.best_params_)
            record_fit()
            self.best_estimator_.fit(X, y)
        return self

    def predict(self, X: Any) -> np.ndarray:
        self._check_is_fitted()
        if not self.refit:
            raise RuntimeError("predict is only available when refit=True.")
        return self.best_estimator_.predict(X)

    def score(self, X: Any, y: Any) -> float:
        scorer = get_scorer(self.scoring)
        return float(scorer(np.asarray(y, dtype=float).ravel(), self.predict(X)))


class GridSearchCV(BaseSearchCV):
    """Exhaustive cross-validated search over a parameter grid."""

    def __init__(
        self,
        estimator: Any,
        param_grid: Mapping[str, Sequence] | Sequence[Mapping[str, Sequence]],
        *,
        scoring: Any = "r2",
        cv: Any = 3,
        refit: bool = True,
        n_jobs: Optional[int] = 1,
    ) -> None:
        super().__init__(estimator, scoring=scoring, cv=cv, refit=refit, n_jobs=n_jobs)
        self.param_grid = param_grid

    def _candidates(self) -> list[dict[str, Any]]:
        return list(ParameterGrid(self.param_grid))


class RandomizedSearchCV(BaseSearchCV):
    """Cross-validated search over randomly sampled parameter settings."""

    def __init__(
        self,
        estimator: Any,
        param_distributions: Mapping[str, Any],
        *,
        n_iter: int = 10,
        scoring: Any = "r2",
        cv: Any = 3,
        refit: bool = True,
        random_state: Any = None,
        n_jobs: Optional[int] = 1,
    ) -> None:
        super().__init__(estimator, scoring=scoring, cv=cv, refit=refit, n_jobs=n_jobs)
        self.param_distributions = param_distributions
        self.n_iter = n_iter
        self.random_state = random_state

    def _candidates(self) -> list[dict[str, Any]]:
        sampler = ParameterSampler(
            self.param_distributions, n_iter=self.n_iter, random_state=self.random_state
        )
        return list(sampler)
