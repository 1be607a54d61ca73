"""Content-addressed registry of fitted models for the serving layer.

Today every cost-prediction or advisor query pays a full dataset build and
model fit (~20s for the paper's deployed GB-750×depth-10 configuration).
:class:`ModelRegistry` snapshots a *fitted* estimator once and lets every
subsequent server start warm-load it in milliseconds:

* **Content-addressed artifacts** — an artifact is the pickled model (which
  for tree ensembles is the packed-arena form of :mod:`repro.ml.packed`, a
  fraction of the object-graph size) wrapped in a magic-prefixed, versioned
  payload, stored under the SHA-1 of its own bytes.  Equal fits produce
  equal blobs produce equal digests: publishing the same model twice is a
  no-op, and a digest uniquely identifies the exact bytes that will be
  served.
* **Atomic publication** — the memo store's write-then-rename discipline: a
  reader never observes a partial artifact, and concurrent publishers of
  the same content are last-writer-wins on identical bytes.
* **Named aliases** — a human name (``aurora-fast-seed0``) maps to a digest
  through a small JSON file, republished atomically on every publish, so
  "the deployed aurora model" is one stable handle whose target digest
  moves only when a new fit is published.
* **Corruption-tolerant loads** — a truncated, garbled, version-stale or
  digest-mismatched artifact reads as a miss (the caller refits and
  republishes), never as a crash or a silently wrong model: the payload's
  SHA-1 is re-verified against its address on every load.
* **Warm loading** — :func:`warm_model` forces the packed arenas *and*
  their lazily-built traversal tables into existence before the first
  request, so serving latency never pays the one-off table build.

Layout::

    <root>/artifacts/<aa>/<digest[2:]>.pkl
    <root>/aliases/<name>.json
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry
from repro.parallel.store import atomic_write, seal, unseal

__all__ = ["ModelRegistry", "warm_model", "REGISTRY_FORMAT_VERSION"]

#: Bump to invalidate every previously published artifact.
REGISTRY_FORMAT_VERSION = 1

_MAGIC_PREFIX = b"RPMODEL"
_MAGIC = _MAGIC_PREFIX + bytes([REGISTRY_FORMAT_VERSION]) + b"\n"

#: Alias names become file names; anything fancier is rejected before it can
#: escape the registry directory (same discipline as memo-store namespaces).
_ALIAS_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]{0,63}$")
_DIGEST_RE = re.compile(r"^[0-9a-f]{40}$")


def warm_model(model: Any) -> Any:
    """Force packed arenas and traversal tables hot; returns ``model``.

    Walks the estimator shapes the serving layer hosts — a
    :class:`~repro.core.advisor.ResourceAdvisor` (``.estimator``), a
    :class:`~repro.core.estimator.ResourceEstimator` (``.model_``), or a
    bare ensemble with the ``_packed_ensemble()`` surface — and builds the
    arena plus its level-major traversal tables now, so the first request
    against a freshly (warm-)loaded model costs a steady-state traversal,
    not the one-off table build.
    """
    seen = set()
    node = model
    while id(node) not in seen and node is not None:
        seen.add(id(node))
        build = getattr(node, "_packed_ensemble", None)
        if callable(build):
            packed = build()
            if packed is not None:
                packed._traversal()
        node = getattr(node, "estimator", None) or getattr(node, "model_", None)
    return model


class ModelRegistry:
    """A directory of fitted-model artifacts shared by server starts.

    The registry never *fits* anything: callers publish models they fitted
    and load models somebody published.  All counters are per-instance
    (``publishes``/``loads``/``misses``/``errors``), updated under a stats
    lock — registries are shared across ``ThreadingTCPServer`` handler
    threads, where unlocked ``+=`` drops increments — and surface through
    the serve server's ``stats`` endpoint.
    """

    def __init__(self, root: "str | os.PathLike") -> None:
        self.root = Path(root).expanduser()
        self._artifacts = self.root / "artifacts"
        self._aliases = self.root / "aliases"
        self._artifacts.mkdir(parents=True, exist_ok=True)
        self._aliases.mkdir(parents=True, exist_ok=True)
        self._stats_lock = threading.Lock()
        # Counters live on the typed metrics registry, and stats() reads
        # them.  The stats lock makes multi-counter bumps (misses+errors)
        # one atomic step so a concurrent stats() read never sees half an
        # event.
        self.metrics = MetricsRegistry()
        self._counters = {
            name: self.metrics.counter(f"registry.{name}")
            for name in ("publishes", "loads", "misses", "errors")
        }
        self._h_load_seconds = self.metrics.histogram("registry.load_seconds")

    def _count(self, **deltas: int) -> None:
        """Bump counters atomically (``_count(misses=1, errors=1)``)."""
        with self._stats_lock:
            for name, delta in deltas.items():
                self._counters[name].inc(delta)

    # ------------------------------------------------------------------ paths

    @property
    def location(self) -> str:
        return str(self.root)

    def artifact_path(self, digest: str) -> Path:
        return self._artifacts / digest[:2] / (digest[2:] + ".pkl")

    def _alias_path(self, name: str) -> Path:
        if not _ALIAS_RE.match(name):
            raise ValueError(
                f"Registry alias {name!r} is not a valid name "
                f"(must match {_ALIAS_RE.pattern})."
            )
        return self._aliases / (name + ".json")

    @staticmethod
    def _atomic_write(path: Path, blob: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, blob)

    # ---------------------------------------------------------------- publish

    def publish(
        self, model: Any, name: Optional[str] = None, meta: Optional[dict] = None
    ) -> str:
        """Snapshot a fitted model; returns its content digest.

        The artifact is the versioned pickle of ``model`` (tree ensembles
        ride the packed-arena pickle form automatically), addressed by the
        SHA-1 of the payload bytes and published atomically.  When ``name``
        is given, the alias is (re)pointed at the new digest afterwards —
        readers see either the old complete artifact or the new one, never
        a half state.
        """
        blob = seal(model, _MAGIC)
        digest = hashlib.sha1(blob).hexdigest()
        path = self.artifact_path(digest)
        if not path.exists():
            self._atomic_write(path, blob)
        if name is not None:
            alias = {
                "digest": digest,
                "meta": dict(meta or {}),
                "published_unix": time.time(),
            }
            self._atomic_write(
                self._alias_path(name), json.dumps(alias, indent=2).encode("utf-8")
            )
        self._count(publishes=1)
        return digest

    # ------------------------------------------------------------------- load

    def resolve(self, ref: str) -> Optional[str]:
        """Alias name or digest -> digest (``None`` when unknown)."""
        if _DIGEST_RE.match(ref):
            return ref
        try:
            payload = json.loads(self._alias_path(ref).read_text())
            digest = payload.get("digest", "")
        except (OSError, ValueError):
            return None
        return digest if _DIGEST_RE.match(digest) else None

    def load(self, ref: str, *, warm: bool = True) -> Optional[Any]:
        """Load a model by alias or digest, or ``None`` on any kind of miss.

        A missing, truncated, version-stale or content-mismatched artifact
        is a miss (counted; mismatches also count as ``errors`` and the
        poisoned file is best-effort discarded) — the caller refits and
        republishes, mirroring the memo store's corruption tolerance.
        """
        loaded = self.load_with_digest(ref, warm=warm)
        return None if loaded is None else loaded[1]

    def load_with_digest(
        self, ref: str, *, warm: bool = True
    ) -> Optional[tuple[str, Any]]:
        """:meth:`load`, but returning ``(digest, model)``.

        The serving layer reports the digest *the load actually verified
        against* (the per-model ``digest`` in server stats), and resolving
        the alias again after the load would race a concurrent republish.
        """
        t0 = time.perf_counter()
        digest = self.resolve(ref)
        if digest is None:
            self._count(misses=1)
            return None
        path = self.artifact_path(digest)
        try:
            blob = path.read_bytes()
        except OSError:
            self._count(misses=1)
            return None
        try:
            # Verify the bytes against their address before unpickling them.
            if hashlib.sha1(blob).hexdigest() != digest:
                raise ValueError(f"artifact {digest} does not match its digest")
            model = unseal(blob, _MAGIC)
        except Exception:
            self._count(misses=1, errors=1)
            self._discard(path)
            return None
        self._count(loads=1)
        result = digest, (warm_model(model) if warm else model)
        self._h_load_seconds.observe(time.perf_counter() - t0)
        return result

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ----------------------------------------------------------- introspection

    def aliases(self) -> dict[str, dict]:
        """Every parseable alias record, keyed by name (unparseable skipped)."""
        out: dict[str, dict] = {}
        for path in sorted(self._aliases.glob("*.json")):
            try:
                out[path.stem] = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
        return out

    def artifacts(self) -> list[str]:
        """Digests of every artifact currently on disk."""
        out = []
        for prefix in sorted(self._artifacts.iterdir()) if self._artifacts.is_dir() else []:
            if not prefix.is_dir():
                continue
            for path in sorted(prefix.glob("*.pkl")):
                out.append(prefix.name + path.name[: -len(".pkl")])
        return out

    def stats(self) -> dict[str, int]:
        with self._stats_lock:
            counters = {
                name: counter.value for name, counter in self._counters.items()
            }
        counters["artifacts"] = len(self.artifacts())
        return counters
