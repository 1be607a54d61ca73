"""Cross-process, content-addressed memo store for candidate evaluations.

The in-memory caches of :mod:`repro.parallel.cache` die with their process:
every worker spawned by :class:`~repro.parallel.backend.ParallelMap` starts
cold, and a 27-combination ``run_model_comparison`` sweep that is interrupted
loses everything.  :class:`MemoStore` fixes both by persisting memoised
values on disk, keyed by the SHA-1 of a canonical encoding of the same
content tokens the in-memory caches use (:func:`~repro.parallel.cache.array_token`,
:func:`~repro.parallel.cache.splits_token`).  All workers of a run, and all
successive runs pointed at the same directory, share one store.

Storage contract:

* **Content-addressed** — a key is an arbitrary nesting of primitives,
  tuples, lists and dicts; :func:`key_digest` encodes it deterministically
  (type-tagged, so ``1``/``1.0``/``True`` never collide) and hashes it.
  Equal keys map to the same file in any process on any run.
* **Atomic writes** — payloads and stats snapshots go through
  :func:`atomic_write`: a temporary file named per write, published with
  ``os.replace``; a reader never observes a partial payload, and concurrent
  writers of the same key are last-writer-wins (both wrote the same
  deterministic value anyway).
* **Versioned payloads** — every file starts with a magic string carrying a
  format version.  A version bump invalidates old files: they read as
  misses and are recomputed, never misinterpreted.
* **Corruption-tolerant reads** — a truncated, garbled or unpicklable file
  is counted in ``errors``, best-effort unlinked, and reported as a miss so
  the caller recomputes; the store never raises out of :meth:`MemoStore.get`.
* **Read-only values** — every ndarray in a retrieved value is marked
  ``writeable=False``, preserving the cache-poisoning protection of the
  in-memory layer across the pickle round-trip.

Determinism contract: the store only ever holds values that are pure
functions of their key (seed-deterministic evaluations of content-addressed
inputs), so a warm-store run is bit-identical to a cold serial run.

Statistics: every process keeps local hit/miss/put/error counters plus a
count of estimator fits executed by the search/CV layers
(:func:`record_fit`).  :meth:`MemoStore.flush_stats` snapshots them — along
with the process's in-memory LRU counters — into ``stats/<pid>.json``
inside the store; :meth:`MemoStore.aggregated_stats` sums the snapshots of
every process that ever touched the store, which is what keeps cache
statistics coherent when the work ran in a pool.

Activation: call :func:`configure_store` explicitly (the CLI's
``--memo-dir`` does), or set ``REPRO_MEMO_DIR`` and the first
:func:`get_store` call picks it up; worker processes are initialised with
the parent's store directory by the backend.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Optional

import numpy as np

__all__ = [
    "MemoStore",
    "atomic_write",
    "key_digest",
    "seal",
    "unseal",
    "make_store",
    "configure_store",
    "get_store",
    "active_memo_dir",
    "record_fit",
    "fit_count",
    "reset_fit_count",
    "MEMO_URL_SCHEME",
]

#: URL scheme that routes :func:`make_store` to the service-backed client.
MEMO_URL_SCHEME = "memo://"

#: Bump to invalidate every previously written payload.
STORE_FORMAT_VERSION = 1

_MAGIC_PREFIX = b"RPMEMO"
_MAGIC = _MAGIC_PREFIX + bytes([STORE_FORMAT_VERSION]) + b"\n"

_ENV_VAR = "REPRO_MEMO_DIR"

# Estimator-level fit counter for this process (see record_fit).  It lives
# here rather than in cache.py so it is flushed with the store statistics.
_FIT_COUNT = 0
_FIT_LOCK = threading.Lock()

# Unique stats-snapshot identity per process.  A bare PID would let a later
# run whose process happens to reuse the PID overwrite an earlier run's
# snapshot, making aggregated totals non-monotonic (and per-run deltas
# wrong); the random suffix keeps every process's snapshot distinct for the
# lifetime of the store.  Regenerated after fork (the PID check), so a
# worker never clobbers the parent's snapshot.
_PROC_PID = 0
_PROC_UID = ""


def _process_token() -> str:
    global _PROC_PID, _PROC_UID
    pid = os.getpid()
    if pid != _PROC_PID:
        _PROC_PID = pid
        _PROC_UID = uuid.uuid4().hex[:8]
    return f"{pid}-{_PROC_UID}"


def atomic_write(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path``: write a temp file beside it, then rename.

    The temp file is named per write (pid plus a random token), so two
    writers of one target — threads of one process included — never share
    a temp file, and a reader only ever sees a complete payload.  On
    ``OSError`` the temp file is removed and the error re-raised: each
    caller keeps its own failure policy.  The parent directory must exist.
    """
    tmp = path.parent / f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def record_fit(n: int = 1) -> None:
    """Count ``n`` estimator fits executed by the search/CV layers.

    The counter is what lets tests assert that a fully warm-store sweep
    performed *zero* model fits; it is aggregated across worker processes
    through the store's stats files.
    """
    global _FIT_COUNT
    with _FIT_LOCK:
        _FIT_COUNT += n


def fit_count() -> int:
    """Estimator fits recorded in this process since the last reset."""
    return _FIT_COUNT


def reset_fit_count() -> None:
    global _FIT_COUNT
    with _FIT_LOCK:
        _FIT_COUNT = 0


def _encode_key(obj: Any, h: "hashlib._Hash") -> None:
    """Feed a canonical, type-tagged encoding of ``obj`` into hash ``h``.

    Only JSON-ish shapes appear in memo keys (strings, numbers, booleans,
    ``None``, bytes, tuples/lists, string-keyed dicts); anything else is a
    programming error and raises ``TypeError`` rather than hashing an
    unstable ``repr``.
    """
    if obj is None:
        h.update(b"N;")
    elif isinstance(obj, bool):  # before int: True is an int subclass
        h.update(b"B1;" if obj else b"B0;")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I" + str(int(obj)).encode("ascii") + b";")
    elif isinstance(obj, (float, np.floating)):
        # repr round-trips doubles exactly, so equal floats hash equally
        # and the digest survives process boundaries.
        h.update(b"F" + repr(float(obj)).encode("ascii") + b";")
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        h.update(b"S" + str(len(raw)).encode("ascii") + b":" + raw + b";")
    elif isinstance(obj, bytes):
        h.update(b"Y" + str(len(obj)).encode("ascii") + b":" + obj + b";")
    elif isinstance(obj, (tuple, list)):
        h.update(b"T(" if isinstance(obj, tuple) else b"L(")
        for item in obj:
            _encode_key(item, h)
        h.update(b")")
    elif isinstance(obj, dict):
        keys = sorted(obj)
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("Memo-store dict keys must be strings.")
        h.update(b"D(")
        for k in keys:
            _encode_key(k, h)
            _encode_key(obj[k], h)
        h.update(b")")
    else:
        raise TypeError(f"Unsupported memo-store key component: {type(obj).__name__}")


def key_digest(key: Any) -> str:
    """Deterministic SHA-1 hex digest of a structured memo key."""
    h = hashlib.sha1()
    _encode_key(key, h)
    return h.hexdigest()


def seal(value: Any, magic: bytes = _MAGIC) -> bytes:
    """``value`` as a versioned pickle: ``magic`` followed by the pickle bytes.

    Every pickled payload in repro uses this one envelope; each format
    keeps its own magic (memo payloads ``RPMEMO``, registry artifacts
    ``RPMODEL``), which carries the format version.
    """
    return magic + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def unseal(blob: bytes, magic: bytes = _MAGIC) -> Any:
    """Open a :func:`seal` payload; ``ValueError`` when ``magic`` is not its prefix.

    A blob that carries the magic but does not unpickle raises whatever
    ``pickle.loads`` raises, so callers that must never fail catch
    ``Exception``.
    """
    if not blob.startswith(magic):
        raise ValueError("payload does not carry the expected version magic")
    return pickle.loads(blob[len(magic):])


def _freeze_nested(obj: Any) -> Any:
    """Mark every ndarray inside ``obj`` read-only (recursing containers)."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _freeze_nested(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            _freeze_nested(item)
    return obj


class MemoStore:
    """A directory of memoised values shared by processes and runs.

    Layout::

        <root>/objects/<namespace>/<aa>/<digest[2:]>.pkl
        <root>/stats/<pid>.json
    """

    def __init__(self, root: str | os.PathLike) -> None:
        # ``~`` is expanded and missing parents are created, so a CLI
        # ``--memo-dir ~/.cache/repro-memo`` works on a fresh machine.
        self.root = Path(root).expanduser()
        self._objects = self.root / "objects"
        self._stats_dir = self.root / "stats"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._stats_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._last_flush = 0.0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.errors = 0

    # ------------------------------------------------------------------ paths

    @property
    def location(self) -> str:
        """The string a worker/client needs to attach to this store."""
        return str(self.root)

    def path_for(self, namespace: str, key: Any) -> Path:
        return self.digest_path(namespace, key_digest(key))

    def digest_path(self, namespace: str, digest: str) -> Path:
        return self._objects / namespace / digest[:2] / (digest[2:] + ".pkl")

    def _stats_path(self) -> Path:
        return self._stats_dir / f"{_process_token()}.json"

    # ------------------------------------------------------------- get / put

    def get(self, namespace: str, key: Any, default: Any = None) -> Any:
        """Retrieve a memoised value, or ``default`` on any kind of miss.

        Stale-version, truncated and corrupt payloads are unlinked
        (best-effort) and reported as misses; ndarrays in a hit are
        returned read-only.
        """
        path = self.path_for(namespace, key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except (FileNotFoundError, OSError):
            with self._lock:
                self.misses += 1
            return default
        try:
            value = unseal(blob)
        except Exception:
            # Foreign, corrupt, or written by a different format version:
            # invalidate rather than risk misreading it.  Only a stale
            # version is a plain miss; the rest also count as errors.
            with self._lock:
                self.misses += 1
                if blob.startswith(_MAGIC) or not blob.startswith(_MAGIC_PREFIX):
                    self.errors += 1
            self._discard(path)
            return default
        with self._lock:
            self.hits += 1
        return _freeze_nested(value)

    def put(self, namespace: str, key: Any, value: Any) -> None:
        """Persist a memoised value atomically (write temp file, then rename)."""
        path = self.path_for(namespace, key)
        blob = seal(value)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, blob)
        except OSError:
            # A full or read-only disk degrades the store to a no-op cache;
            # the value was computed and the caller still has it.
            with self._lock:
                self.errors += 1
            return
        with self._lock:
            self.puts += 1
        # Keep the on-disk counters fresh enough that an interrupted serial
        # run loses at most a second of statistics, without paying a stats
        # write per put on hot sweeps (pool workers additionally flush
        # after every task).  The flush clock is read under the lock: an
        # unlocked read races a concurrent flush_stats() and can skip or
        # double-publish a snapshot window.
        with self._lock:
            due = time.monotonic() - self._last_flush > 1.0
        if due:
            self.flush_stats()

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------- blob layer
    #
    # The memo service (repro.parallel.service) moves whole payload blobs —
    # the same magic-prefixed versioned pickles this class writes — without
    # ever unpickling them; these methods are its storage backend.  They do
    # not touch the hit/miss counters: those count *client* operations, and
    # the remote client keeps its own.

    def get_blob(self, namespace: str, digest: str) -> Optional[bytes]:
        """Raw payload bytes for a digest, or ``None`` on any kind of miss.

        A payload that lost its magic/version prefix (corruption, stale
        format) is discarded so the next put heals it.
        """
        path = self.digest_path(namespace, digest)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        if not blob.startswith(_MAGIC):
            self._discard(path)
            return None
        return blob

    def put_blob(self, namespace: str, digest: str, blob: bytes) -> bool:
        """Atomically publish raw payload bytes; ``False`` if it failed."""
        if not blob.startswith(_MAGIC_PREFIX):
            return False
        path = self.digest_path(namespace, digest)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, blob)
        except OSError:
            return False
        return True

    def write_snapshot(self, token: str, data: bytes) -> bool:
        """Atomically publish a remote process's stats snapshot JSON."""
        try:
            atomic_write(self._stats_dir / f"{token}.json", data)
        except OSError:
            return False
        return True

    def read_snapshots(self) -> list[dict]:
        """Every parseable stats snapshot in the store (unparseable skipped)."""
        snapshots = []
        for path in sorted(self._stats_dir.glob("*.json")):
            try:
                snapshots.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue
        return snapshots

    # ------------------------------------------------------------ statistics

    def stats(self) -> dict[str, int]:
        """This process's counters (plus the on-disk object count)."""
        with self._lock:
            out = {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "errors": self.errors,
            }
        out["objects"] = self.object_count()
        return out

    def object_count(self) -> int:
        return sum(
            1
            for _, _, files in os.walk(self._objects)
            for name in files
            if name.endswith(".pkl")
        )

    def flush_stats(self) -> None:
        """Atomically snapshot this process's counters into the stats dir.

        The snapshot carries the store counters, the in-memory LRU cache
        counters and the fit count, so :meth:`aggregated_stats` can present
        a coherent cross-process view.  Failures are swallowed: statistics
        must never break the computation they describe.
        """
        with self._lock:
            counters = {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "errors": self.errors,
            }
        snapshot = build_stats_snapshot(counters)
        try:
            atomic_write(self._stats_path(), json.dumps(snapshot).encode())
        except OSError:
            pass
        with self._lock:
            self._last_flush = time.monotonic()

    def aggregated_stats(self) -> dict[str, Any]:
        """Sum the stats snapshots of every process that used this store."""
        self.flush_stats()
        return sum_snapshots(self.read_snapshots(), objects=self.object_count())

    def reset_stats(self) -> None:
        """Zero this process's counters and drop every stats snapshot file."""
        with self._lock:
            self.hits = self.misses = self.puts = self.errors = 0
        for path in self._stats_dir.glob("*.json"):
            self._discard(path)

    def clear(self) -> None:
        """Delete every stored object and stats snapshot (keep the directory)."""
        for base, _, files in os.walk(self._objects, topdown=False):
            for name in files:
                self._discard(Path(base) / name)
        self.reset_stats()


# ------------------------------------------------------- snapshot aggregation
#
# Shared by the disk store and the service-backed client so both report the
# same coherent cross-process view.


def build_stats_snapshot(counters: dict[str, int]) -> dict[str, Any]:
    """This process's stats snapshot around ``counters`` (hits/misses/...)."""
    from repro.parallel.cache import cache_stats

    return {
        "pid": os.getpid(),
        "store": dict(counters),
        "fits": fit_count(),
        "caches": {
            name: {"hits": c["hits"], "misses": c["misses"]}
            for name, c in cache_stats(include_store=False).items()
        },
    }


def _as_int(value: Any) -> int:
    """Best-effort integer coercion; garbage reads as 0, never raises."""
    try:
        return int(value)
    except (TypeError, ValueError):
        return 0


def sum_snapshots(snapshots: list[dict], *, objects: int) -> dict[str, Any]:
    """Sum per-process stats snapshots into one aggregated view.

    Snapshots come off disk (or off the wire) from other processes, so any
    of them can be torn or garbled: parseable-but-malformed JSON — a
    non-numeric counter, a ``"store"`` that is a list, a cache entry that
    is a string — contributes zeros instead of crashing the aggregation.
    """
    totals: dict[str, int] = {"hits": 0, "misses": 0, "puts": 0, "errors": 0}
    caches: dict[str, dict[str, int]] = {}
    fits = 0
    processes = 0
    for snapshot in snapshots:
        if not isinstance(snapshot, dict):
            continue
        processes += 1
        fits += _as_int(snapshot.get("fits", 0))
        store = snapshot.get("store")
        for field, value in store.items() if isinstance(store, dict) else ():
            if field in totals:
                totals[field] += _as_int(value)
        snap_caches = snapshot.get("caches")
        for name, counters in (
            snap_caches.items() if isinstance(snap_caches, dict) else ()
        ):
            if not isinstance(counters, dict):
                continue
            bucket = caches.setdefault(name, {"hits": 0, "misses": 0})
            bucket["hits"] += _as_int(counters.get("hits", 0))
            bucket["misses"] += _as_int(counters.get("misses", 0))
    totals["objects"] = objects
    return {"store": totals, "caches": caches, "fits": fits, "processes": processes}


# --------------------------------------------------------- module-level state

_STORE: Optional[MemoStore] = None
_CONFIGURED = False  # an explicit configure_store() overrides the env var
_STATE_LOCK = threading.Lock()


def make_store(spec: Optional[str | os.PathLike]) -> Optional["MemoStore"]:
    """Build a store from a location spec: a path, or a ``memo://`` URL.

    ``None``/empty disables the store; ``memo://host:port`` attaches the
    service-backed :class:`~repro.parallel.service.RemoteMemoStore`; any
    other value is a disk directory (``~`` expanded, parents created).
    Disk and remote stores expose the same get/put/stats surface.
    """
    if spec is None:
        return None
    spec = os.fspath(spec)
    if isinstance(spec, bytes):  # os.fspath may hand back bytes paths
        spec = os.fsdecode(spec)
    # Strip stray whitespace (a YAML env block or shell export easily adds
    # it): ' memo://...' must reach the URL branch, not become a relative
    # disk directory literally named ' memo:'.
    spec = spec.strip()
    if not spec:
        return None
    if spec.startswith(MEMO_URL_SCHEME):
        from repro.parallel.service import RemoteMemoStore

        return RemoteMemoStore(spec)
    return MemoStore(spec)


def configure_store(spec: Optional[str | os.PathLike]) -> Optional[MemoStore]:
    """Activate the memo store at ``spec`` (``None`` disables it).

    ``spec`` is a disk directory or a ``memo://host:port`` service URL (see
    :func:`make_store`).  Explicit configuration wins over
    ``REPRO_MEMO_DIR``; passing ``None`` turns the store off even when the
    environment variable is set.
    """
    global _STORE, _CONFIGURED
    with _STATE_LOCK:
        previous, _STORE = _STORE, make_store(spec)
        _CONFIGURED = True
        if previous is not None and previous is not _STORE:
            close = getattr(previous, "close", None)
            if close is not None:
                close()
        return _STORE


def get_store() -> Optional[MemoStore]:
    """The active store, lazily created from ``REPRO_MEMO_DIR`` if unset."""
    global _STORE, _CONFIGURED
    with _STATE_LOCK:
        if not _CONFIGURED:
            _STORE = make_store(os.environ.get(_ENV_VAR))
            _CONFIGURED = True
        return _STORE


def active_memo_dir() -> Optional[str]:
    """Location of the active store (what workers are initialised with).

    A disk directory for :class:`MemoStore`, a ``memo://`` URL for the
    service-backed client — either way, the exact string a worker process
    passes back to :func:`configure_store`.
    """
    store = get_store()
    return store.location if store is not None else None
