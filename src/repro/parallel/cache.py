"""Content-addressed caches for feature presorts, feature bins and CV candidates.

The paper's workload fits many trees against the *same* training matrix:
every boosting stage re-sorts (or re-bins) the same feature columns, and
the three search strategies of Figures 1 and 2 evaluate many of the same
hyper-parameter candidates on the same splits.  This module caches those
derived artefacts, keyed on the **content** of the array (SHA-1 of its
bytes plus shape/dtype) together with the relevant configuration — for
feature bins that is ``max_bins``; for a candidate evaluation it is the
estimator's resolved parameters and the content tokens of its data,
splits and scoring.

Safety contract:

* Cache hits return the *identical* arrays (no copies) for speed.
* Every cached array is marked read-only (``writeable=False``); a caller
  that tries to mutate a returned array gets a ``ValueError`` instead of
  silently poisoning the cache.  Callers that need a private mutable copy
  must ``.copy()``.

All caches are bounded LRU and thread-safe; worker processes spawned by
:mod:`repro.parallel.backend` each hold their own (initially empty) cache.
When a cross-process memo store is active (see :mod:`repro.parallel.store`),
the candidate-evaluation cache additionally reads through to and writes
through to disk, so workers and successive runs share evaluations; the
in-process LRU then acts as a first-level cache in front of the store.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Mapping, NamedTuple, Optional

import numpy as np

from repro.parallel import store as _store

__all__ = [
    "array_token",
    "feature_presort",
    "FeatureBins",
    "compute_feature_bins",
    "feature_bins",
    "candidate_eval_get",
    "candidate_eval_put",
    "estimator_token",
    "splits_token",
    "clear_caches",
    "cache_stats",
]

#: Hyper-parameter value types that are safe to use in memo keys: hashable,
#: deterministically encodable and round-trippable across processes.
PRIMITIVE_PARAM_TYPES = (int, float, str, bool, type(None), np.integer, np.floating)


class _LRUCache:
    """A small thread-safe LRU mapping with hit/miss counters."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Any) -> Any:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


_PRESORT_CACHE = _LRUCache(maxsize=32)
_BINS_CACHE = _LRUCache(maxsize=16)
_CANDIDATE_CACHE = _LRUCache(maxsize=1024)


def array_token(X: np.ndarray) -> tuple:
    """A hashable content token for an ndarray (shape, dtype, SHA-1 digest)."""
    X = np.ascontiguousarray(X)
    digest = hashlib.sha1(X.tobytes()).hexdigest()
    return (X.shape, X.dtype.str, digest)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def feature_presort(X: np.ndarray) -> np.ndarray:
    """Cached stable argsort of every feature column, shape ``(n_samples, n_features)``.

    Column ``f`` lists the row indices of ``X`` in ascending order of feature
    ``f`` (ties by row index).  Tree builders start from this matrix and
    *partition* it down the tree instead of re-sorting at every node; because
    the cache is content-addressed, every boosting stage and every search
    candidate fitting on the same fold matrix reuses one sort.
    """
    X = np.ascontiguousarray(X)
    key = array_token(X)
    cached = _PRESORT_CACHE.get(key)
    if cached is not None:
        return cached
    presort = _freeze(np.argsort(X, axis=0, kind="stable"))
    _PRESORT_CACHE.put(key, presort)
    return presort


class FeatureBins(NamedTuple):
    """Per-dataset feature quantisation backing the ``tree_method="hist"`` builder.

    ``codes`` holds each sample's bin index per feature (``uint8``, so at most
    255 bins); ``lower``/``upper`` record the smallest and largest *dataset*
    value landing in each bin (``NaN``-padded to the widest feature), which is
    what lets the histogram split scan place thresholds with the exact
    builder's midpoint arithmetic.  When a feature has at most ``max_bins``
    distinct values every value gets its own bin (``lower == upper``) and the
    candidate thresholds are exactly the exact builder's candidate midpoints.
    """

    codes: np.ndarray  # (n_samples, n_features) uint8, read-only
    n_bins: np.ndarray  # (n_features,) int64 — occupied bins per feature
    lower: np.ndarray  # (n_features, max(n_bins)) float64, NaN-padded
    upper: np.ndarray  # (n_features, max(n_bins)) float64, NaN-padded
    max_bins: int

    def take(self, rows: np.ndarray) -> "FeatureBins":
        """Bins restricted to a row subset (same bin geometry, fewer codes).

        Used by subsampled boosting stages: the dataset is binned once and
        each stage's tree sees only its drawn rows.
        """
        return self._replace(codes=_freeze(self.codes[rows]))


def compute_feature_bins(X: np.ndarray, max_bins: int = 255) -> FeatureBins:
    """Quantile-bin every feature column of ``X`` into at most ``max_bins`` bins.

    Features with at most ``max_bins`` distinct values get one bin per value;
    wider features are cut at (sample-count) quantile boundaries between
    distinct values, so no two samples sharing a value are ever separated.
    """
    if not 2 <= int(max_bins) <= 255:
        raise ValueError("max_bins must be in [2, 255] (codes are uint8).")
    max_bins = int(max_bins)
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    n_samples, n_features = X.shape
    codes = np.empty((n_samples, n_features), dtype=np.uint8)
    lowers: list[np.ndarray] = []
    uppers: list[np.ndarray] = []
    for f in range(n_features):
        col = X[:, f]
        uniq, counts = np.unique(col, return_counts=True)
        if uniq.size <= max_bins:
            lo = hi = uniq
        else:
            # Cut between distinct values at equal-sample-count quantiles:
            # ``cuts`` are the last distinct-value indices of all but the
            # final bin.
            cum = np.cumsum(counts)
            targets = np.linspace(0.0, float(n_samples), max_bins + 1)[1:-1]
            cuts = np.unique(np.searchsorted(cum, targets, side="left"))
            cuts = cuts[cuts < uniq.size - 1]
            lo = uniq[np.r_[0, cuts + 1]]
            hi = uniq[np.r_[cuts, uniq.size - 1]]
        # A value v belongs to the first bin whose upper bound is >= v.
        codes[:, f] = np.searchsorted(hi, col, side="left")
        lowers.append(lo)
        uppers.append(hi)
    n_bins = np.array([lo.size for lo in lowers], dtype=np.int64)
    width = int(n_bins.max()) if n_features else 0
    lower = np.full((n_features, width), np.nan)
    upper = np.full((n_features, width), np.nan)
    for f in range(n_features):
        lower[f, : n_bins[f]] = lowers[f]
        upper[f, : n_bins[f]] = uppers[f]
    return FeatureBins(
        codes=_freeze(codes),
        n_bins=_freeze(n_bins),
        lower=_freeze(lower),
        upper=_freeze(upper),
        max_bins=max_bins,
    )


def feature_bins(X: np.ndarray, max_bins: int = 255) -> FeatureBins:
    """Cached :func:`compute_feature_bins`, keyed on content like ``feature_presort``.

    Every boosting stage and every search candidate fitting a histogram tree
    on the same matrix reuses one binning; the returned arrays are read-only.
    """
    X = np.ascontiguousarray(X)
    key = (array_token(X), int(max_bins))
    cached = _BINS_CACHE.get(key)
    if cached is not None:
        return cached
    bins = compute_feature_bins(X, max_bins=max_bins)
    _BINS_CACHE.put(key, bins)
    return bins


def estimator_token(estimator: Any, overrides: Optional[Mapping[str, Any]] = None) -> Optional[tuple]:
    """Stable memo token for an estimator's class and resolved parameters.

    Returns ``None`` when the configuration must not be memoised: any
    non-primitive parameter value (e.g. a kernel object), or an unseeded
    stochastic estimator (``random_state=None`` draws fresh entropy per fit,
    so memoising would freeze one random draw and replay it).
    """
    resolved = dict(estimator.get_params(deep=False))
    if overrides:
        resolved.update(overrides)
    if resolved.get("random_state", 0) is None:
        return None
    items = []
    for name in sorted(resolved):
        value = resolved[name]
        if not isinstance(value, PRIMITIVE_PARAM_TYPES):
            return None
        items.append((name, value))
    cls = type(estimator)
    return (f"{cls.__module__}.{cls.__qualname__}", tuple(items))


#: Store namespace for whole-candidate CV evaluations.
_CANDIDATE_NAMESPACE = "candidate_eval"


def candidate_eval_get(key: Any) -> Any:
    """Cached ``(mean_score, std_score)`` of a CV candidate, or ``None``.

    The three search strategies of the paper's sweep largely evaluate the
    *same* hyper-parameter candidates on the *same* splits; memoising the
    (pure, seed-deterministic) evaluation makes the second and third
    strategies nearly free.  Keys are built by the search layer from the
    estimator class, its fully resolved primitive hyper-parameters and the
    content tokens of ``(X, y, splits, scoring)``; candidates with
    non-primitive parameters (e.g. kernel objects) are never cached.

    Lookup order is the in-process LRU first, then the cross-process memo
    store (when one is active); a store hit repopulates the LRU so repeat
    lookups in the same process stay in memory.
    """
    cached = _CANDIDATE_CACHE.get(key)
    if cached is not None:
        return cached
    store = _store.get_store()
    if store is not None:
        cached = store.get(_CANDIDATE_NAMESPACE, key)
        if cached is not None:
            _CANDIDATE_CACHE.put(key, cached)
    return cached


def candidate_eval_put(key: Any, value: Any) -> None:
    _CANDIDATE_CACHE.put(key, value)
    store = _store.get_store()
    if store is not None:
        store.put(_CANDIDATE_NAMESPACE, key, value)


def splits_token(splits: Any) -> tuple:
    """A hashable content token for a list of ``(train_idx, test_idx)`` splits."""
    return tuple(
        (array_token(np.asarray(train)), array_token(np.asarray(test)))
        for train, test in splits
    )


def clear_caches() -> None:
    """Drop every in-memory cached artefact and reset all counters.

    When a cross-process memo store is active, its hit/miss counters and
    per-process stats snapshots are reset too, but its on-disk *objects*
    are kept — persistence across runs is the store's whole point.  Use
    ``get_store().clear()`` to wipe the objects as well.
    """
    _PRESORT_CACHE.clear()
    _BINS_CACHE.clear()
    _CANDIDATE_CACHE.clear()
    _store.reset_fit_count()
    store = _store.get_store()
    if store is not None:
        store.reset_stats()


def cache_stats(include_store: bool = True) -> dict[str, dict[str, int]]:
    """Hit/miss/size counters per cache, for diagnostics.

    When a memo store is active (and ``include_store`` is true) the result
    gains a ``"memo_store"`` entry with this process's store counters
    (``hits``/``misses``/``puts``/``errors``/``objects``).  For a view
    aggregated over worker processes, use
    ``get_store().aggregated_stats()``.
    """
    stats = {
        name: {"hits": c.hits, "misses": c.misses, "size": len(c)}
        for name, c in (
            ("feature_presort", _PRESORT_CACHE),
            ("feature_bins", _BINS_CACHE),
            ("candidate_eval", _CANDIDATE_CACHE),
        )
    }
    if include_store:
        store = _store.get_store()
        if store is not None:
            stats["memo_store"] = store.stats()
    return stats
