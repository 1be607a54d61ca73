"""Tests for the memo service (``repro.parallel.service``).

Covers the ISSUE 3 contract: the ``RemoteMemoStore`` client presents the
same get/put/stats surface as the disk store over length-prefixed binary
frames, interoperates byte-for-byte with disk clients of the served
directory, and degrades to recomputation — never a crash — on every
failure mode: dead server, server killed mid-run, truncated frames,
oversized frames, corrupt payloads, concurrent writers.
"""

import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.parallel.service import (
    MemoServer,
    RemoteMemoStore,
    parse_memo_url,
)
from repro.parallel.store import MemoStore, make_store
from repro.parallel.wire import LEN, pack_str


@pytest.fixture()
def server(tmp_path):
    """An in-process memo server on an ephemeral localhost port."""
    with MemoServer(tmp_path / "served") as srv:
        yield srv


@pytest.fixture()
def client(server):
    c = RemoteMemoStore(server.url)
    yield c
    c.close()


class TestUrlParsing:
    def test_round_trip(self):
        assert parse_memo_url("memo://127.0.0.1:7501") == ("127.0.0.1", 7501)
        assert parse_memo_url("memo://memohost:80/") == ("memohost", 80)

    @pytest.mark.parametrize(
        "bad",
        ["memo://", "memo://hostonly", "memo://host:notaport", "memo://host:0",
         "memo://host:99999", "http://host:80", "/plain/dir"],
    )
    def test_junk_is_a_loud_config_error(self, bad):
        with pytest.raises(ValueError):
            parse_memo_url(bad)

    def test_make_store_dispatches_on_scheme(self, server, tmp_path):
        remote = make_store(server.url)
        assert isinstance(remote, RemoteMemoStore)
        assert remote.location == server.url
        disk = make_store(tmp_path / "plain")
        assert isinstance(disk, MemoStore)
        assert make_store(None) is None
        assert make_store("  ") is None

    def test_make_store_strips_stray_whitespace(self, server):
        # ' memo://...' (a YAML env block easily adds the space) must reach
        # the URL branch, not become a disk directory named ' memo:'.
        remote = make_store(f"  {server.url} ")
        assert isinstance(remote, RemoteMemoStore)
        assert remote.location == server.url


class TestRoundTrip:
    def test_put_get_round_trip(self, client):
        value = {"scores": np.arange(4.0), "label": "x", "pair": (1, 2)}
        assert client.get("unit", ("k", 1)) is None
        client.put("unit", ("k", 1), value)
        got = client.get("unit", ("k", 1))
        assert got["label"] == "x" and got["pair"] == (1, 2)
        assert np.array_equal(got["scores"], np.arange(4.0))

    def test_arrays_come_back_read_only(self, client):
        client.put("unit", "frozen", {"arr": np.arange(3.0), "nested": [np.ones(2)]})
        got = client.get("unit", "frozen")
        with pytest.raises(ValueError):
            got["arr"][0] = 99.0
        with pytest.raises(ValueError):
            got["nested"][0][0] = 99.0

    def test_namespaces_do_not_collide(self, client):
        client.put("ns-a", "k", 1)
        client.put("ns-b", "k", 2)
        assert client.get("ns-a", "k") == 1
        assert client.get("ns-b", "k") == 2

    def test_miss_returns_default(self, client):
        assert client.get("unit", "absent", default="fallback") == "fallback"

    def test_ping(self, client):
        assert client.ping()

    def test_served_directory_is_disk_store_compatible(self, server, client):
        """The service fronts an ordinary MemoStore directory: disk clients of
        the same root and remote clients read each other's objects."""
        disk = MemoStore(server.store.root)
        client.put("interop", ("remote", 1), [1, 2, 3])
        assert disk.get("interop", ("remote", 1)) == [1, 2, 3]
        disk.put("interop", ("disk", 2), {"from": "disk"})
        assert client.get("interop", ("disk", 2)) == {"from": "disk"}

    def test_multiple_clients_share_the_memo(self, server):
        a, b = RemoteMemoStore(server.url), RemoteMemoStore(server.url)
        a.put("shared", "k", 41)
        assert b.get("shared", "k") == 41
        a.close(), b.close()


class TestFailureModes:
    def test_unreachable_server_reads_as_miss(self):
        # Bind-then-close guarantees a dead localhost port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        store = RemoteMemoStore(f"memo://127.0.0.1:{port}", retry_delay=0.05)
        assert store.get("unit", "k", default="recompute") == "recompute"
        store.put("unit", "k", 1)  # must not raise
        assert store.stats()["errors"] >= 2
        assert store.object_count() == 0

    def test_server_killed_mid_run_degrades_to_misses(self, tmp_path):
        server = MemoServer(tmp_path / "served").start()
        store = RemoteMemoStore(server.url, retry_delay=0.05)
        store.put("unit", "k", {"v": 1})
        assert store.get("unit", "k") == {"v": 1}
        server.shutdown()
        # The established connection is severed and reconnects are refused:
        # every further operation is a silent miss/no-op, never an exception.
        assert store.get("unit", "k", default="recompute") == "recompute"
        store.put("unit", "k2", 2)
        assert store.get("unit", "k2") is None
        counters = store.stats()
        assert counters["errors"] > 0 and counters["hits"] == 1
        # Aggregated stats still answer (local-process view) off-line.
        assert store.aggregated_stats()["store"]["puts"] >= 1
        store.close()

    def test_down_window_backoff_doubles_per_failed_window(self):
        # A server that times out rather than refusing must not cost two
        # connect timeouts per *operation*: the circuit's open window is
        # jittered and doubles per consecutive failed half-open probe —
        # and for a fixed retry_seed the whole sequence is reproducible.
        from repro.parallel.resilience import OPEN, RetryPolicy, policy_rng

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        store = RemoteMemoStore(
            f"memo://127.0.0.1:{port}", retry_delay=0.05, retry_seed="pin"
        )
        twin = policy_rng("pin")  # replays the store's jitter draws
        cooldown = RetryPolicy(
            retries=None, base_delay=0.05, max_delay=30.0, jitter=0.5
        )

        store.get("unit", "k")
        snap = store.circuits.snapshot()[store.url]
        assert snap["state"] == OPEN and snap["trips"] == 1
        first_window = cooldown.delay(1, twin)
        assert 0 < store.circuits.open_remaining(store.url) <= first_window
        failures = snap["failures"]
        store.get("unit", "k")  # inside the window: no connect attempt
        assert store.circuits.snapshot()[store.url]["failures"] == failures
        # Force the window shut: the next op is the half-open probe; its
        # failure must re-open with a doubled (still jittered) window.
        store.circuits._endpoints[store.url].open_until = 0.0
        store.get("unit", "k")
        snap = store.circuits.snapshot()[store.url]
        assert snap["state"] == OPEN and snap["trips"] == 2
        second_window = cooldown.delay(2, twin)
        # Raw delays double; jitter keeps each in [raw/2, raw], and for
        # this seed the drawn windows are ~0.046s then ~0.080s.
        assert first_window < second_window
        assert first_window < store.circuits.open_remaining(store.url) <= second_window
        store.close()

    def test_client_survives_server_restart_on_same_port(self, tmp_path):
        server = MemoServer(tmp_path / "served").start()
        port = server.port
        store = RemoteMemoStore(server.url, retry_delay=0.0)
        store.put("unit", "k", 7)
        server.shutdown()
        assert store.get("unit", "k") is None  # down: miss
        revived = MemoServer(tmp_path / "served", port=port).start()
        try:
            assert store.get("unit", "k") == 7  # reconnected, object persisted
        finally:
            revived.shutdown()
            store.close()

    def _rogue_server(self, respond):
        """A server speaking garbage: accepts, reads a frame, answers with
        ``respond(length_prefixed_request)`` raw bytes, closes."""
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(8)
        srv.settimeout(5.0)
        stop = threading.Event()

        def run():
            while not stop.is_set():
                try:
                    conn, _ = srv.accept()
                except OSError:
                    return
                try:
                    conn.settimeout(2.0)
                    conn.recv(1 << 16)
                    conn.sendall(respond())
                except OSError:
                    pass
                finally:
                    conn.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()

        def cleanup():
            stop.set()
            srv.close()

        return srv.getsockname()[1], cleanup

    def test_truncated_frame_reads_as_miss(self):
        # The length prefix promises 100 bytes; the connection dies after 2.
        port, cleanup = self._rogue_server(lambda: LEN.pack(100) + b"xy")
        try:
            store = RemoteMemoStore(f"memo://127.0.0.1:{port}", retry_delay=0.05)
            assert store.get("unit", "k", default="recompute") == "recompute"
            assert store.stats()["errors"] >= 1
            store.close()
        finally:
            cleanup()

    def test_oversized_frame_is_rejected_not_allocated(self):
        # A garbled length prefix (2 GiB) must be refused outright.
        port, cleanup = self._rogue_server(lambda: LEN.pack(1 << 31))
        try:
            store = RemoteMemoStore(f"memo://127.0.0.1:{port}", retry_delay=0.05)
            assert store.get("unit", "k") is None
            assert store.stats()["errors"] >= 1
            store.close()
        finally:
            cleanup()

    def test_corrupt_payload_on_server_reads_as_miss(self, server, client):
        client.put("unit", "victim", [1, 2, 3])
        path = server.store.path_for("unit", "victim")
        path.write_bytes(b"not a store payload at all")
        # The server discards the corrupt object and reports a miss.
        assert client.get("unit", "victim") is None
        assert not path.exists()
        client.put("unit", "victim", [1, 2, 3])  # next put heals it
        assert client.get("unit", "victim") == [1, 2, 3]

    def test_concurrent_clients_writing_the_same_key(self, server):
        """Writers hammer one key from separate connections while readers
        poll it: every read is a miss or a *complete* value (atomic
        publication), and nothing raises."""
        value = {"arr": np.arange(64.0), "tag": "payload"}
        stop = threading.Event()
        failures: list = []

        def writer():
            store = RemoteMemoStore(server.url)
            while not stop.is_set():
                store.put("race", "shared", value)
            store.close()

        def reader():
            store = RemoteMemoStore(server.url)
            while not stop.is_set():
                got = store.get("race", "shared")
                if got is not None and not np.array_equal(got["arr"], value["arr"]):
                    failures.append(got)
            store.close()

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
        check = RemoteMemoStore(server.url)
        assert np.array_equal(check.get("race", "shared")["arr"], value["arr"])
        check.close()

    def test_oversized_value_fails_alone_without_poisoning_the_store(
        self, client, monkeypatch
    ):
        # One value above the frame cap is a local error for that key only;
        # the connection and every other key keep working.
        from repro.parallel import service as service_module

        client.put("unit", "small", 1)
        monkeypatch.setattr(service_module, "MAX_FRAME", 64)
        client.put("unit", "huge", np.arange(1024.0))
        assert client.get("unit", "huge", default="recompute") == "recompute"
        monkeypatch.undo()
        assert client.get("unit", "small") == 1  # connection never dropped
        assert client.stats()["errors"] >= 1

    def test_malformed_namespace_is_rejected_loudly_client_side(self, client):
        # A namespace is a compile-time constant of the caching layer: one
        # the server would refuse must raise, not silently become a
        # 100%-miss cache for that layer.
        with pytest.raises(ValueError, match="memo://"):
            client.get("../escape", "k")
        with pytest.raises(ValueError, match="memo://"):
            client.put("cv:splits", "k", 1)

    def test_malformed_namespace_from_rogue_client_never_touches_disk(self, server):
        # The server defends independently of well-behaved clients: speak
        # the raw protocol with a path-traversal namespace and expect an
        # ERR frame, with nothing written outside the store.
        from repro.parallel.service import _OP_GET

        sock = socket.create_connection((server.host, server.port), timeout=5.0)
        try:
            payload = _OP_GET + pack_str("../escape") + pack_str("ab" * 20)
            sock.sendall(LEN.pack(len(payload)) + payload)
            header = sock.recv(4, socket.MSG_WAITALL)
            (length,) = LEN.unpack(header)
            body = sock.recv(length, socket.MSG_WAITALL)
            assert body[:1] == b"!"
        finally:
            sock.close()
        assert not (server.store.root / "escape").exists()
        assert not (server.store.root.parent / "escape").exists()


class TestStats:
    def test_counters_track_operations(self, client):
        client.get("unit", "a")
        client.put("unit", "a", 1)
        client.get("unit", "a")
        s = client.stats()
        assert s["misses"] == 1 and s["puts"] == 1 and s["hits"] == 1
        assert s["objects"] == 1

    def test_snapshots_aggregate_across_processes(self, server, client):
        client.put("unit", "k", 1)
        client.get("unit", "k")
        client.flush_stats()
        # The client's snapshot lands in the served directory's stats dir —
        # the same place local processes write theirs.
        assert len(list((server.store.root / "stats").glob("*.json"))) == 1
        # Simulate a second process's snapshot to check the summation path.
        other = {
            "pid": 999999,
            "store": {"hits": 3, "misses": 2, "puts": 2, "errors": 1},
            "fits": 7,
            "caches": {"candidate_eval": {"hits": 5, "misses": 4}},
        }
        (server.store.root / "stats" / "999999.json").write_text(json.dumps(other))
        agg = client.aggregated_stats()
        assert agg["processes"] == 2
        assert agg["fits"] == 7
        assert agg["store"]["hits"] == 3 + 1
        assert agg["store"]["puts"] == 2 + 1
        assert agg["store"]["errors"] == 1
        assert agg["store"]["objects"] == 1
        assert agg["caches"]["candidate_eval"]["hits"] >= 5

    def test_reset_stats_drops_server_snapshots_and_keeps_objects(self, server, client):
        client.put("unit", "kept", "value")
        client.flush_stats()
        client.reset_stats()
        assert client._local_counters() == {"hits": 0, "misses": 0, "puts": 0, "errors": 0}
        assert not list((server.store.root / "stats").glob("*.json"))
        assert client.get("unit", "kept") == "value"

    def test_clear_removes_objects(self, client):
        client.put("unit", "gone", "value")
        client.clear()
        assert client.object_count() == 0
        assert client.get("unit", "gone") is None


def test_protocol_unknown_opcode_is_an_error_frame(server):
    """Speak the raw protocol: an unknown opcode gets an ERR status, and the
    connection stays usable for the next request."""
    sock = socket.create_connection((server.host, server.port), timeout=5.0)
    try:
        payload = b"Z"  # no such opcode
        sock.sendall(LEN.pack(len(payload)) + payload)
        header = sock.recv(4, socket.MSG_WAITALL)
        (length,) = LEN.unpack(header)
        body = sock.recv(length, socket.MSG_WAITALL)
        assert body[:1] == b"!"
        # Next request on the same connection still works.
        sock.sendall(LEN.pack(1) + b"?")
        header = sock.recv(4, socket.MSG_WAITALL)
        (length,) = struct.unpack("!I", header)
        body = sock.recv(length, socket.MSG_WAITALL)
        assert body[:1] == b"+" and b"repro-memo" in body
    finally:
        sock.close()
