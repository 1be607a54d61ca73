"""Tests for the presort and candidate-evaluation caches in ``repro.parallel.cache``."""

import numpy as np
import pytest

from repro.ml.model_selection import KFold
from repro.parallel.cache import (
    array_token,
    cache_stats,
    candidate_eval_get,
    candidate_eval_put,
    clear_caches,
    feature_presort,
    splits_token,
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture()
def X():
    rng = np.random.default_rng(3)
    return rng.uniform(0.0, 10.0, size=(60, 4))


class TestFeatureCaches:
    def test_presort_matches_argsort_and_is_shared(self, X):
        presort = feature_presort(X)
        assert np.array_equal(presort, np.argsort(X, axis=0, kind="stable"))
        assert feature_presort(X.copy()) is presort
        with pytest.raises(ValueError):
            presort[0, 0] = -1

    def test_array_token_distinguishes_dtype_and_shape(self):
        a = np.arange(6, dtype=np.float64)
        assert array_token(a) != array_token(a.astype(np.float32))
        assert array_token(a.reshape(2, 3)) != array_token(a.reshape(3, 2))


class TestCandidateCache:
    def test_round_trip_and_stats(self, X):
        key = ("Model", (("alpha", 1.0),), array_token(X), "r2")
        assert candidate_eval_get(key) is None
        candidate_eval_put(key, (0.5, 0.1, 0.01))
        assert candidate_eval_get(key) == (0.5, 0.1, 0.01)
        stats = cache_stats()["candidate_eval"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_splits_token_depends_on_indices(self, X):
        a = splits_token(KFold(n_splits=3).split(X))
        b = splits_token(KFold(n_splits=3).split(X))
        c = splits_token(KFold(n_splits=4).split(X))
        assert a == b
        assert a != c


class TestStoreBackedCandidateCache:
    """The candidate memo reads/writes through the cross-process store."""

    @pytest.fixture(autouse=True)
    def _store(self, tmp_path):
        from repro.parallel.store import configure_store

        self.store = configure_store(tmp_path / "memo")
        clear_caches()
        yield
        configure_store(None)
        clear_caches()

    def test_put_writes_through_and_get_reads_through(self, X):
        from repro.parallel.cache import _CANDIDATE_CACHE

        key = ("Model", (("alpha", 1.0),), array_token(X), "r2")
        candidate_eval_put(key, (0.5, 0.1))
        assert self.store.stats()["puts"] == 1
        # Drop only the in-process LRU: the next get must fall through to
        # the store and repopulate the LRU.
        _CANDIDATE_CACHE.clear()
        assert candidate_eval_get(key) == (0.5, 0.1)
        assert self.store.stats()["hits"] == 1
        # Second get is served from the repopulated LRU, not the store.
        assert candidate_eval_get(key) == (0.5, 0.1)
        assert self.store.stats()["hits"] == 1

    def test_cache_stats_reports_store_counters(self, X):
        key = ("Model", (("alpha", 2.0),), array_token(X), "r2")
        assert candidate_eval_get(key) is None  # LRU miss + store miss
        candidate_eval_put(key, (0.25, 0.05))
        stats = cache_stats()
        assert stats["memo_store"]["misses"] == 1
        assert stats["memo_store"]["puts"] == 1
        assert stats["memo_store"]["objects"] == 1

    def test_clear_caches_resets_store_counters_but_keeps_objects(self, X):
        key = ("Model", (("alpha", 3.0),), array_token(X), "r2")
        candidate_eval_put(key, (0.75, 0.01))
        clear_caches()
        stats = cache_stats()["memo_store"]
        assert stats["hits"] == stats["misses"] == stats["puts"] == 0
        assert stats["objects"] == 1  # persistence survives a cache clear
        assert candidate_eval_get(key) == (0.75, 0.01)

    def test_multiprocess_counters_aggregate_coherently(self, X):
        """Parent-process LRU counters alone undercount pool runs; the
        store's per-process snapshots restore a coherent total."""
        from repro.ml.search import GridSearchCV
        from repro.ml.tree import DecisionTreeRegressor
        from repro.parallel.store import fit_count

        rng = np.random.default_rng(0)
        y = X @ np.asarray([1.0, -1.0, 0.5, 2.0]) + rng.normal(0.0, 0.1, len(X))
        grid = {"max_depth": [2, 3], "min_samples_leaf": [1, 2]}
        search = GridSearchCV(
            DecisionTreeRegressor(random_state=0), grid, cv=3, n_jobs=2
        )
        search.fit(X, y)

        agg = self.store.aggregated_stats()
        # 4 candidates x 3 folds in workers, plus the parent's refit.
        assert agg["fits"] == 4 * 3 + 1
        assert agg["store"]["puts"] == 4
        assert agg["caches"]["candidate_eval"]["misses"] >= 4
        # The candidate evaluations all ran in pool workers, so the parent's
        # own counters see none of them — the aggregate is the fix.
        assert fit_count() == 1  # parent recorded only the refit
        assert cache_stats()["candidate_eval"]["misses"] == 0
