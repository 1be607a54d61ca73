"""Shared parallel execution backend and content-addressed caches.

``repro.parallel`` is the substrate under every fit-heavy layer:

* :class:`ParallelMap` / :func:`parallel_map` — process-pool or serial
  fan-out with seed-stable task ordering, exception propagation and a
  graceful serial fallback (see :mod:`repro.parallel.backend`).
* :func:`feature_presort` and the candidate-evaluation cache — caches
  for sorted-feature indices and whole CV candidate scores, keyed on
  array content (see :mod:`repro.parallel.cache`).
* :class:`MemoStore` / :func:`configure_store` / :func:`get_store` — a
  cross-process, on-disk memo store that backs the candidate-evaluation
  cache so worker processes and successive runs share evaluations and
  interrupted sweeps resume (see :mod:`repro.parallel.store`).
* :class:`MemoServer` / :class:`RemoteMemoStore` — the service-backed form
  of the same store: a TCP server fronting a disk store and a client with
  the identical get/put/stats surface, for runs spread over multiple hosts
  (see :mod:`repro.parallel.service`).
* A named executor registry (``serial``, ``process``, ``cluster``; see
  :mod:`repro.parallel.executors`) behind :class:`ParallelMap`, selected
  per call (``executor=``) or globally (``REPRO_EXECUTOR``).
* :class:`ClusterDispatcher` / :class:`ClusterWorker` — the distributed
  form of the fan-out: the run hosts a dispatcher (``REPRO_CLUSTER_URL``)
  and ``repro-chem cluster-work`` agents on any machine pull tasks over
  the shared wire protocol (see :mod:`repro.parallel.cluster`; imported
  lazily — selecting ``REPRO_EXECUTOR=cluster`` loads it on demand).

The ``n_jobs`` contract (mirrored by the CLI's ``--jobs`` flag): ``1`` or
``None`` runs serially, ``N > 1`` uses up to ``N`` worker processes, and
negative values count back from the CPU count (``-1`` = all cores).  For a
fixed seed, serial and parallel execution produce bit-identical results.

The ``--memo-dir`` / ``REPRO_MEMO_DIR`` contract: pointing any run at a
memo store — a directory or a ``memo://host:port`` service URL (see
:func:`make_store`) — must not change its results, only how much of them
is recomputed.  A warm-store run is byte-identical to a cold serial run,
and a dead or corrupt store degrades to recomputation, never a crash.
"""

from repro.parallel.backend import (
    ParallelMap,
    effective_cpu_count,
    parallel_map,
    resolve_n_jobs,
)
from repro.parallel.executors import (
    Executor,
    available_executors,
    get_executor,
    register_executor,
)
from repro.parallel.cache import (
    array_token,
    cache_stats,
    clear_caches,
    feature_presort,
)
from repro.parallel.service import MemoServer, RemoteMemoStore
from repro.parallel.store import (
    MemoStore,
    active_memo_dir,
    configure_store,
    fit_count,
    get_store,
    make_store,
)

__all__ = [
    "ParallelMap",
    "parallel_map",
    "resolve_n_jobs",
    "effective_cpu_count",
    "Executor",
    "register_executor",
    "get_executor",
    "available_executors",
    "array_token",
    "feature_presort",
    "clear_caches",
    "cache_stats",
    "MemoStore",
    "MemoServer",
    "RemoteMemoStore",
    "make_store",
    "configure_store",
    "get_store",
    "active_memo_dir",
    "fit_count",
]
