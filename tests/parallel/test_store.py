"""Tests for the cross-process memo store (``repro.parallel.store``).

Covers the storage contract of ISSUE 2: deterministic content keys,
round-tripping, atomic publication under concurrent writers, corruption /
truncation / version-mismatch tolerance (recompute, never crash), the
read-only array contract across the pickle boundary, and per-process stats
aggregation.
"""

import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.parallel.cache import cache_stats, clear_caches
from repro.parallel.store import (
    _MAGIC,
    _MAGIC_PREFIX,
    MemoStore,
    configure_store,
    get_store,
    key_digest,
    make_store,
)
from repro.parallel import store as store_module
from repro.serve.registry import ModelRegistry


@pytest.fixture()
def store(tmp_path):
    """A fresh store, active for the duration of the test."""
    st = configure_store(tmp_path / "memo")
    clear_caches()
    yield st
    configure_store(None)
    clear_caches()


class TestKeyDigest:
    def test_equal_structures_hash_equal(self):
        key = ("Model", (("alpha", 0.5), ("n", 10)), ((3, 4), "<f8", "ab" * 20), "r2")
        assert key_digest(key) == key_digest(
            ("Model", (("alpha", 0.5), ("n", 10)), ((3, 4), "<f8", "ab" * 20), "r2")
        )

    def test_type_tags_prevent_collisions(self):
        assert key_digest(1) != key_digest(1.0)
        assert key_digest(1) != key_digest(True)
        assert key_digest(0) != key_digest(False) != key_digest(None)
        assert key_digest("1") != key_digest(1)
        assert key_digest((1, 2)) != key_digest([1, 2])

    def test_numpy_scalars_hash_like_python_scalars(self):
        assert key_digest(np.int64(7)) == key_digest(7)
        assert key_digest(np.float64(7.25)) == key_digest(7.25)

    def test_nesting_is_not_flattened(self):
        assert key_digest(((1, 2), 3)) != key_digest((1, (2, 3)))
        assert key_digest(((1,), (2,))) != key_digest(((1, 2),))

    def test_dicts_are_order_insensitive(self):
        assert key_digest({"a": 1, "b": 2}) == key_digest({"b": 2, "a": 1})

    def test_unsupported_types_rejected(self):
        with pytest.raises(TypeError):
            key_digest(object())
        with pytest.raises(TypeError):
            key_digest({1: "non-string key"})


class TestRoundTrip:
    def test_put_get_round_trip(self, store):
        key = ("ns-key", 1, 2.5)
        value = {"scores": np.arange(4.0), "label": "x", "pair": (1, 2)}
        assert store.get("unit", key) is None
        store.put("unit", key, value)
        got = store.get("unit", key)
        assert got["label"] == "x" and got["pair"] == (1, 2)
        assert np.array_equal(got["scores"], np.arange(4.0))

    def test_float_bits_survive_the_round_trip(self, store):
        value = (0.1 + 0.2, float(np.float64(1) / 3))
        store.put("unit", "floats", value)
        assert store.get("unit", "floats") == value

    def test_miss_returns_default(self, store):
        assert store.get("unit", "absent", default="fallback") == "fallback"

    def test_namespaces_do_not_collide(self, store):
        store.put("ns-a", "k", 1)
        store.put("ns-b", "k", 2)
        assert store.get("ns-a", "k") == 1
        assert store.get("ns-b", "k") == 2

    def test_arrays_come_back_read_only(self, store):
        value = {"arr": np.arange(3.0), "nested": [np.ones(2), (np.zeros(2),)]}
        store.put("unit", "frozen", value)
        got = store.get("unit", "frozen")
        with pytest.raises(ValueError):
            got["arr"][0] = 99.0
        with pytest.raises(ValueError):
            got["nested"][0][0] = 99.0
        with pytest.raises(ValueError):
            got["nested"][1][0][0] = 99.0


class TestAtomicityAndCorruption:
    def test_concurrent_writers_never_expose_partial_payloads(self, store):
        # Writers hammer the same key while readers poll it: every read must
        # be either a miss (before first publication) or a complete value.
        value = {"arr": np.arange(64.0), "tag": "payload"}
        stop = threading.Event()
        failures = []

        def writer():
            while not stop.is_set():
                store.put("race", "shared", value)

        def reader():
            while not stop.is_set():
                got = store.get("race", "shared")
                if got is not None and not np.array_equal(got["arr"], value["arr"]):
                    failures.append(got)

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        stop.wait(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert not failures
        assert store.stats()["errors"] == 0

    def test_garbage_payload_reads_as_miss_and_is_discarded(self, store):
        store.put("unit", "victim", [1, 2, 3])
        path = store.path_for("unit", "victim")
        path.write_bytes(b"not a store payload at all")
        assert store.get("unit", "victim") is None
        assert store.stats()["errors"] == 1
        assert not path.exists()  # invalid file removed so the next put heals it
        store.put("unit", "victim", [1, 2, 3])
        assert store.get("unit", "victim") == [1, 2, 3]

    def test_truncated_payload_reads_as_miss(self, store):
        store.put("unit", "short", np.arange(100.0))
        path = store.path_for("unit", "short")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert store.get("unit", "short") is None
        assert store.stats()["errors"] == 1

    def test_version_mismatch_invalidates_without_error(self, store):
        store.put("unit", "versioned", "value")
        path = store.path_for("unit", "versioned")
        blob = path.read_bytes()
        assert blob.startswith(_MAGIC)
        # Re-stamp the payload as a future format version: a stale-version
        # file is an expected miss (invalidation), not a corruption error.
        future = _MAGIC_PREFIX + bytes([99]) + b"\n" + blob[len(_MAGIC):]
        path.write_bytes(future)
        stats_before = store.stats()
        assert store.get("unit", "versioned") is None
        stats_after = store.stats()
        assert stats_after["errors"] == stats_before["errors"]
        assert stats_after["misses"] == stats_before["misses"] + 1
        assert not path.exists()

    def test_failed_publication_degrades_to_noop(self, tmp_path, monkeypatch):
        # A full or read-only disk must turn the store into a no-op cache,
        # never an exception in the computation it memoises.
        store = MemoStore(tmp_path / "ro")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        store.put("unit", "k", "v")  # must not raise
        assert store.stats()["errors"] == 1
        monkeypatch.undo()
        assert store.get("unit", "k") is None
        assert not list(store._objects.rglob("*.tmp"))  # temp file cleaned up


    @pytest.mark.parametrize("writer", ["write_snapshot", "registry"])
    def test_same_target_writers_in_one_process_use_their_own_temp_files(
        self, tmp_path, monkeypatch, writer
    ):
        # A barrier at os.replace holds both threads until each has written
        # its temp file.  A temp name shared by the two writes would let one
        # thread rename the other's bytes into place and fail its own rename.
        store = MemoStore(tmp_path / "memo")
        if writer == "write_snapshot":
            target = store._stats_dir / "client.json"
        else:
            target = tmp_path / "registry" / "aliases" / "deployed.json"

        def write(data):
            if writer == "write_snapshot":
                return store.write_snapshot("client", data)
            return ModelRegistry._atomic_write(target, data)

        barrier = threading.Barrier(2, timeout=5)
        real_replace = os.replace

        def held_replace(src, dst):
            barrier.wait()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", held_replace)
        payloads = [b"A" * 4096, b"B" * 4096]
        results, errors = [None, None], []

        def run(i):
            try:
                results[i] = write(payloads[i])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        if writer == "write_snapshot":
            assert results == [True, True]
        assert target.read_bytes() in payloads
        assert not list(target.parent.glob("*.tmp"))


class TestStats:
    def test_counters_track_operations(self, store):
        store.get("unit", "a")
        store.put("unit", "a", 1)
        store.get("unit", "a")
        s = store.stats()
        assert s["misses"] == 1 and s["puts"] == 1 and s["hits"] == 1
        assert s["objects"] == 1

    def test_aggregation_sums_process_snapshots(self, store):
        store.put("unit", "a", 1)
        store.get("unit", "a")
        store.flush_stats()
        # Simulate a second process's snapshot alongside ours.
        other = {
            "pid": 999999,
            "store": {"hits": 3, "misses": 2, "puts": 2, "errors": 1},
            "fits": 7,
            "caches": {"candidate_eval": {"hits": 5, "misses": 4}},
        }
        (store._stats_dir / "999999.json").write_text(json.dumps(other))
        agg = store.aggregated_stats()
        assert agg["processes"] == 2
        assert agg["fits"] == 7
        assert agg["store"]["hits"] == 3 + 1
        assert agg["store"]["puts"] == 2 + 1
        assert agg["store"]["errors"] == 1
        assert agg["caches"]["candidate_eval"]["hits"] == 5
        assert agg["caches"]["candidate_eval"]["misses"] == 4

    def test_corrupt_stats_snapshot_is_skipped(self, store):
        (store._stats_dir / "888888.json").write_text("{not json")
        agg = store.aggregated_stats()
        assert agg["processes"] == 1  # only this process's snapshot counts

    def test_reset_stats_keeps_objects(self, store):
        store.put("unit", "kept", "value")
        store.reset_stats()
        s = store.stats()
        assert s["hits"] == s["misses"] == s["puts"] == 0
        assert store.get("unit", "kept") == "value"

    def test_clear_removes_objects(self, store):
        store.put("unit", "gone", "value")
        store.clear()
        assert store.object_count() == 0
        assert store.get("unit", "gone") is None


class TestActivation:
    def test_configure_none_disables(self, tmp_path):
        configure_store(tmp_path / "memo")
        assert get_store() is not None
        configure_store(None)
        assert get_store() is None

    def test_env_var_activates_lazily(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO_DIR", str(tmp_path / "env-memo"))
        monkeypatch.setattr(store_module, "_STORE", None)
        monkeypatch.setattr(store_module, "_CONFIGURED", False)
        store = get_store()
        assert store is not None
        assert store.root == tmp_path / "env-memo"
        configure_store(None)

    def test_explicit_configuration_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO_DIR", str(tmp_path / "env-memo"))
        assert configure_store(None) is None
        assert get_store() is None

    def test_worker_init_respects_parent_disabled_store(self, tmp_path, monkeypatch):
        # A parent that explicitly disabled the store passes memo_dir=None to
        # its workers; a worker must not resurrect the store from
        # REPRO_MEMO_DIR (spawn/forkserver workers start unconfigured).
        from repro.parallel import backend

        monkeypatch.setenv("REPRO_MEMO_DIR", str(tmp_path / "env-memo"))
        monkeypatch.setattr(backend, "_IN_WORKER", False)
        monkeypatch.setattr(store_module, "_STORE", None)
        monkeypatch.setattr(store_module, "_CONFIGURED", False)
        backend._init_worker(None)
        assert get_store() is None

    def test_stats_snapshot_name_is_unique_per_process(self, tmp_path, monkeypatch):
        # PID reuse across runs must not overwrite an older snapshot: the
        # filename carries a per-process random suffix beside the PID.
        store = MemoStore(tmp_path / "memo")
        name = store._stats_path().name
        assert name.startswith(f"{os.getpid()}-")
        monkeypatch.setattr(store_module, "_PROC_PID", 0)  # simulate a new process
        assert store._stats_path().name != name
        assert store._stats_path().name.startswith(f"{os.getpid()}-")

    def test_tilde_and_missing_parents_are_handled(self, tmp_path, monkeypatch):
        # ``--memo-dir ~/.cache/...`` must expand the tilde and create every
        # missing parent instead of erroring (or literally mkdir-ing "~").
        monkeypatch.setenv("HOME", str(tmp_path))
        store = configure_store("~/deeply/nested/memo")
        assert store.root == tmp_path / "deeply" / "nested" / "memo"
        store.put("unit", "k", 1)
        assert store.get("unit", "k") == 1
        assert not (Path.cwd() / "~").exists()
        configure_store(None)

    def test_env_var_tilde_expands(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_MEMO_DIR", "~/env-memo")
        monkeypatch.setattr(store_module, "_STORE", None)
        monkeypatch.setattr(store_module, "_CONFIGURED", False)
        store = get_store()
        assert store.root == tmp_path / "env-memo"
        configure_store(None)

    def test_make_store_blank_spec_disables(self):
        assert make_store(None) is None
        assert make_store("") is None
        assert make_store("   ") is None

    def test_cache_stats_gains_store_entry_only_when_active(self, tmp_path):
        configure_store(None)
        assert "memo_store" not in cache_stats()
        configure_store(tmp_path / "memo")
        try:
            entry = cache_stats()["memo_store"]
            assert set(entry) == {"hits", "misses", "puts", "errors", "objects"}
        finally:
            configure_store(None)
