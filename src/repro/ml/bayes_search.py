"""Bayesian hyper-parameter optimisation (stand-in for scikit-optimize's
``BayesSearchCV``, which the paper uses as its third search strategy).

A Gaussian-process surrogate is fitted to (encoded hyper-parameters → CV
score) observations; the next candidate is chosen by maximising expected
improvement over a random candidate pool drawn from the search space.
Categorical values are one-hot encoded, numeric values are min-max scaled
(log-scaled when spanning several orders of magnitude).
"""

from __future__ import annotations

import math
import time
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.ml.base import check_random_state, clone
from repro.ml.gaussian_process import GaussianProcessRegressor
from repro.ml.kernels import RBF, ConstantKernel, WhiteKernel
from repro.ml.search import BaseSearchCV, ParameterGrid

__all__ = ["BayesSearchCV"]


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


class _SpaceEncoder:
    """Encode hyper-parameter dicts as numeric vectors for the GP surrogate."""

    def __init__(self, param_grid: Mapping[str, Sequence]) -> None:
        self.keys = sorted(param_grid)
        self.spec: dict[str, dict[str, Any]] = {}
        for key in self.keys:
            values = list(param_grid[key])
            numeric = all(isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool) for v in values)
            if numeric and len(set(values)) > 1:
                lo, hi = float(min(values)), float(max(values))
                log = lo > 0 and hi / max(lo, 1e-300) >= 100.0
                self.spec[key] = {"kind": "numeric", "lo": lo, "hi": hi, "log": log}
            else:
                self.spec[key] = {"kind": "categorical", "values": values}

    def encode(self, params_list: list[dict[str, Any]]) -> np.ndarray:
        rows = []
        for params in params_list:
            row: list[float] = []
            for key in self.keys:
                spec = self.spec[key]
                value = params[key]
                if spec["kind"] == "numeric":
                    lo, hi = spec["lo"], spec["hi"]
                    if spec["log"]:
                        lo_, hi_, v_ = math.log(lo), math.log(hi), math.log(max(float(value), 1e-300))
                    else:
                        lo_, hi_, v_ = lo, hi, float(value)
                    row.append((v_ - lo_) / (hi_ - lo_) if hi_ > lo_ else 0.0)
                else:
                    for candidate in spec["values"]:
                        row.append(1.0 if candidate == value else 0.0)
            rows.append(row)
        return np.asarray(rows, dtype=float)


class BayesSearchCV(BaseSearchCV):
    """Sequential model-based hyper-parameter optimisation with a GP surrogate.

    Parameters
    ----------
    estimator, search_spaces, scoring, cv, refit:
        As in :class:`~repro.ml.search.GridSearchCV`; ``search_spaces`` maps
        parameter names to lists of candidate values.
    n_iter:
        Total number of hyper-parameter evaluations (including the random
        initial design).
    n_initial_points:
        Number of randomly chosen configurations evaluated before the GP
        surrogate starts steering the search.
    """

    def __init__(
        self,
        estimator: Any,
        search_spaces: Mapping[str, Sequence],
        *,
        n_iter: int = 20,
        n_initial_points: int = 5,
        scoring: Any = "r2",
        cv: Any = 3,
        refit: bool = True,
        random_state: Any = None,
        n_jobs: Optional[int] = 1,
    ) -> None:
        super().__init__(estimator, scoring=scoring, cv=cv, refit=refit, n_jobs=n_jobs)
        self.search_spaces = search_spaces
        self.n_iter = n_iter
        self.n_initial_points = n_initial_points
        self.random_state = random_state

    # The sequential nature of Bayesian optimisation means we override fit
    # rather than just listing candidates up front; ``n_jobs`` therefore
    # parallelises the CV folds *within* each candidate evaluation.
    def fit(self, X: Any, y: Any) -> "BayesSearchCV":
        from repro.ml.model_selection import _resolve_cv, get_scorer

        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        rng = check_random_state(self.random_state)
        get_scorer(self.scoring)  # fail fast on unknown scoring specs
        splits = list(_resolve_cv(self.cv).split(X, y))
        data_token = self._data_token(X, y, splits)

        pool = list(ParameterGrid(self.search_spaces))
        if not pool:
            raise ValueError("Empty search space.")
        encoder = _SpaceEncoder({k: list(v) for k, v in self.search_spaces.items()})
        pool_encoded = encoder.encode(pool)

        n_total = min(self.n_iter, len(pool))
        n_init = min(self.n_initial_points, n_total)

        evaluated_idx: list[int] = []
        scores: list[float] = []
        stds: list[float] = []
        times: list[float] = []
        t_start = time.perf_counter()

        def evaluate(pool_index: int) -> None:
            params = pool[pool_index]
            mean, std, elapsed = self._evaluate_candidate(
                params, X, y, splits, data_token=data_token, fold_jobs=self.n_jobs
            )
            evaluated_idx.append(pool_index)
            scores.append(mean)
            stds.append(std)
            times.append(elapsed)

        # Random initial design without replacement.
        init_indices = rng.choice(len(pool), size=n_init, replace=False)
        for idx in init_indices:
            evaluate(int(idx))

        while len(evaluated_idx) < n_total:
            remaining = np.setdiff1d(np.arange(len(pool)), np.asarray(evaluated_idx))
            if remaining.size == 0:
                break
            X_obs = pool_encoded[evaluated_idx]
            y_obs = np.asarray(scores)
            try:
                gp = GaussianProcessRegressor(
                    kernel=ConstantKernel(1.0) * RBF(np.ones(X_obs.shape[1])) + WhiteKernel(1e-3),
                    alpha=1e-8,
                    n_restarts_optimizer=1,
                    random_state=int(rng.integers(0, 2**31 - 1)),
                )
                gp.fit(X_obs, y_obs)
                mu, sigma = gp.predict(pool_encoded[remaining], return_std=True)
                best = float(np.max(y_obs))
                sigma = np.maximum(sigma, 1e-9)
                z = (mu - best) / sigma
                ei = (mu - best) * _norm_cdf(z) + sigma * _norm_pdf(z)
                next_idx = int(remaining[int(np.argmax(ei))])
            except Exception:
                # Surrogate failures (degenerate kernels, singular systems)
                # fall back to random exploration rather than aborting.
                next_idx = int(rng.choice(remaining))
            evaluate(next_idx)

        self.search_time_ = time.perf_counter() - t_start
        self.cv_results_ = {
            "params": [pool[i] for i in evaluated_idx],
            "mean_test_score": np.asarray(scores),
            "std_test_score": np.asarray(stds),
            "eval_time": np.asarray(times),
        }
        best_i = int(np.argmax(self.cv_results_["mean_test_score"]))
        self.best_index_ = best_i
        self.best_params_ = self.cv_results_["params"][best_i]
        self.best_score_ = float(self.cv_results_["mean_test_score"][best_i])
        if self.refit:
            from repro.parallel.store import record_fit

            self.best_estimator_ = clone(self.estimator).set_params(**self.best_params_)
            record_fit()
            self.best_estimator_.fit(X, y)
        return self

    def _candidates(self) -> list[dict[str, Any]]:  # pragma: no cover - unused
        return list(ParameterGrid(self.search_spaces))
