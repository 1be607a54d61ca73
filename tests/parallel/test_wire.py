"""Tests for the shared framing module (``repro.parallel.wire``).

The framing contract has a single source of truth consumed by every framed
service and every wire client; these tests pin the helpers directly, plus
the fact that services and clients actually use them (no drifted copies).

The hostile-client suite pins the thread-reclamation contract: a client
that connects and goes silent, sends a partial length prefix or a partial
payload, or holds its connection after a response used to park a handler
thread in ``read_exact`` forever.  With per-connection timeouts the thread
must be reclaimed within the configured timeout, a concurrent healthy
client must be unaffected, and the admission guard must shed arrivals past
``max_connections`` instead of queueing threads unboundedly.
"""

import io
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.parallel import service, wire
from repro.parallel.wire import (
    LEN,
    MAX_FRAME,
    FrameService,
    ProtocolError,
    pack_str,
    parse_hostport_url,
    read_exact,
    read_frame,
    unpack_str,
    write_frame,
)


class TestStrFields:
    def test_round_trip(self):
        payload = pack_str("hello") + pack_str("wörld")
        value, offset = unpack_str(payload, 0)
        assert value == "hello"
        value, offset = unpack_str(payload, offset)
        assert value == "wörld"
        assert offset == len(payload)

    def test_truncated_length_prefix_raises(self):
        with pytest.raises(ProtocolError):
            unpack_str(b"\x00", 0)

    def test_truncated_body_raises(self):
        blob = pack_str("hello")[:-2]
        with pytest.raises(ProtocolError):
            unpack_str(blob, 0)

    def test_oversized_string_raises(self):
        with pytest.raises(ProtocolError):
            pack_str("x" * 0x10000)


class TestFrames:
    def test_round_trip(self):
        buf = io.BytesIO()
        write_frame(buf, b"payload-bytes")
        buf.seek(0)
        assert read_frame(buf) == b"payload-bytes"

    def test_short_read_is_a_dead_peer(self):
        buf = io.BytesIO(LEN.pack(100) + b"only-a-few")
        with pytest.raises(ProtocolError):
            read_frame(buf)

    def test_zero_length_frame_rejected(self):
        buf = io.BytesIO(LEN.pack(0))
        with pytest.raises(ProtocolError):
            read_frame(buf)

    def test_oversized_length_rejected_before_allocation(self):
        buf = io.BytesIO(LEN.pack(MAX_FRAME + 1))
        with pytest.raises(ProtocolError):
            read_frame(buf)

    def test_read_exact_reassembles_chunks(self):
        class Dribble:
            def __init__(self, data):
                self.data = data

            def read(self, n):
                take, self.data = self.data[:1], self.data[1:]
                return take

        assert read_exact(Dribble(b"abcdef"), 6) == b"abcdef"


class TestUrlParsing:
    def test_round_trip(self):
        assert parse_hostport_url("x://h:80", "x://") == ("h", 80)
        assert parse_hostport_url("x://h:80/", "x://") == ("h", 80)

    @pytest.mark.parametrize(
        "bad", ["x://", "x://hostonly", "x://h:nan", "x://h:0", "x://h:99999", "y://h:80"]
    )
    def test_junk_is_a_loud_config_error(self, bad):
        with pytest.raises(ValueError):
            parse_hostport_url(bad, "x://")


class _EchoService(FrameService):
    """Minimal framed service: echoes every request payload back."""

    scheme = "echo://"

    def _handle_frame(self, request: bytes) -> bytes:
        return b"+" + request


def _wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _healthy_echo(service_: FrameService, payload: bytes) -> bytes:
    with socket.create_connection((service_.host, service_.port), timeout=5.0) as sock:
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        write_frame(wfile, payload)
        return read_frame(rfile)


class TestHostileClients:
    """Silent/half-framed clients must not park handler threads forever."""

    TIMEOUT = 0.5

    @pytest.fixture()
    def echo(self):
        with _EchoService(timeout=self.TIMEOUT, max_connections=4) as service_:
            yield service_

    def _assert_reclaimed(self, echo, sock):
        # The handler thread exists while the connection is open...
        assert _wait_until(lambda: echo.open_connections == 1)
        baseline = threading.active_count()
        # ...and once the timeout fires the server must close the
        # connection (our end sees EOF) and reclaim the thread.
        sock.settimeout(self.TIMEOUT * 8)
        assert sock.recv(1) == b""
        assert _wait_until(lambda: echo.open_connections == 0)
        assert _wait_until(lambda: threading.active_count() < baseline)

    def test_silent_connection_is_reclaimed(self, echo):
        with socket.create_connection((echo.host, echo.port), timeout=5.0) as sock:
            self._assert_reclaimed(echo, sock)

    def test_partial_length_prefix_is_reclaimed(self, echo):
        with socket.create_connection((echo.host, echo.port), timeout=5.0) as sock:
            sock.sendall(LEN.pack(10)[:3])  # 3 of the 4 header bytes
            self._assert_reclaimed(echo, sock)

    def test_partial_payload_is_reclaimed(self, echo):
        with socket.create_connection((echo.host, echo.port), timeout=5.0) as sock:
            sock.sendall(LEN.pack(100) + b"only-a-few")
            self._assert_reclaimed(echo, sock)

    def test_hold_after_response_is_reclaimed(self, echo):
        with socket.create_connection((echo.host, echo.port), timeout=5.0) as sock:
            rfile = sock.makefile("rb")
            wfile = sock.makefile("wb")
            write_frame(wfile, b"ping")
            assert read_frame(rfile) == b"+ping"
            # A completed exchange, then silence: the idle gap must also
            # fall under the deadline.
            self._assert_reclaimed(echo, sock)

    def test_healthy_client_unaffected_by_hostile_peer(self, echo):
        with socket.create_connection((echo.host, echo.port), timeout=5.0) as hostile:
            hostile.sendall(LEN.pack(50) + b"stall")
            for _ in range(3):
                assert _healthy_echo(echo, b"still-serving") == b"+still-serving"

    def test_no_thread_outlives_its_connection_by_more_than_timeout(self, echo):
        # Follow this test's handler threads by identity.  A thread left
        # over from an earlier test can exit at any moment, so comparing
        # active_count() with a baseline could miss the new threads (or
        # let an unrelated exit mask a leaked one).
        before = set(threading.enumerate())
        handlers: set = set()

        def spawned() -> int:
            handlers.update(set(threading.enumerate()) - before)
            return len(handlers)

        socks = [
            socket.create_connection((echo.host, echo.port), timeout=5.0)
            for _ in range(3)
        ]
        try:
            assert _wait_until(lambda: spawned() >= 3)
            deadline = time.monotonic() + self.TIMEOUT * 8
            while time.monotonic() < deadline:
                if not any(t.is_alive() for t in handlers):
                    break
                time.sleep(0.02)
            assert not any(t.is_alive() for t in handlers)
        finally:
            for sock in socks:
                sock.close()


class TestAdmissionGuard:
    def test_connections_past_cap_are_shed_not_queued(self):
        with _EchoService(timeout=5.0, max_connections=2) as echo:
            held = [
                socket.create_connection((echo.host, echo.port), timeout=5.0)
                for _ in range(2)
            ]
            try:
                assert _wait_until(lambda: echo.open_connections == 2)
                # The third arrival must be shed: accepted, closed, no
                # handler thread — our end reads a clean EOF.
                with socket.create_connection(
                    (echo.host, echo.port), timeout=5.0
                ) as extra:
                    extra.settimeout(5.0)
                    assert extra.recv(1) == b""
                assert _wait_until(lambda: echo.connections_shed >= 1)
                assert echo.open_connections == 2
            finally:
                for sock in held:
                    sock.close()
            # Draining a held connection frees a slot for the next client.
            assert _wait_until(lambda: echo.open_connections == 0)
            assert _healthy_echo(echo, b"back") == b"+back"

    def test_disabled_knobs_accept_everything(self):
        with _EchoService(timeout=0, max_connections=0) as echo:
            assert echo.timeout is None
            assert echo.max_connections is None
            assert _healthy_echo(echo, b"hi") == b"+hi"


class _SheddingEchoService(_EchoService):
    """Echo service that announces overload instead of closing silently."""

    def _shed_frame(self):
        return b"!overloaded-for-test"


class TestShedFrame:
    def test_shed_connection_receives_the_overload_frame(self):
        with _SheddingEchoService(timeout=5.0, max_connections=1) as echo:
            with socket.create_connection((echo.host, echo.port), timeout=5.0) as held:
                assert _wait_until(lambda: echo.open_connections == 1)
                with socket.create_connection(
                    (echo.host, echo.port), timeout=5.0
                ) as extra:
                    extra.settimeout(5.0)
                    rfile = extra.makefile("rb")
                    # A full frame arrives before the close: the client can
                    # tell "overloaded, retry elsewhere" from a dead peer.
                    assert read_frame(rfile) == b"!overloaded-for-test"
                    assert extra.recv(1) == b""
                assert _wait_until(lambda: echo.connections_shed >= 1)
                held.close()

    def test_default_shed_is_a_silent_close(self):
        # The base FrameService keeps the historical contract: no frame,
        # just EOF (asserted in TestAdmissionGuard); _shed_frame says so.
        assert wire.FrameService._shed_frame(_EchoService.__new__(_EchoService)) is None


class TestSingleSourceOfTruth:
    """Every service runs on wire.FrameService and every client talks through
    its own wire.FrameConnection: no drifted copies of the framing contract."""

    def test_memo_service_consumes_wire(self):
        assert issubclass(service.MemoServer, wire.FrameService)
        store = service.RemoteMemoStore("memo://127.0.0.1:9")
        assert type(store._conn) is wire.FrameConnection
        assert service.MAX_FRAME == wire.MAX_FRAME

    def test_serve_service_consumes_wire(self):
        from repro.serve import client as serve_client
        from repro.serve import server as serve_server

        assert serve_server.FrameService is wire.FrameService
        client = serve_client.ServeClient("serve://127.0.0.1:9,serve://127.0.0.1:10")
        conns = [replica.conn for replica in client._replicas]
        assert all(type(conn) is wire.FrameConnection for conn in conns)
        assert conns[0] is not conns[1]
        assert serve_client.MAX_FRAME == wire.MAX_FRAME

    def test_cluster_consumes_wire(self):
        from repro.parallel import cluster

        assert issubclass(cluster.ClusterDispatcher, wire.FrameService)
        worker = cluster.ClusterWorker("cluster://127.0.0.1:9")
        assert type(worker._conn) is wire.FrameConnection

    def test_connection_primitives_live_only_in_wire(self):
        # Dialing, buffering, the caps probe and the context envelope are
        # spelled out once, in wire.py; every other module goes through
        # FrameConnection (clients) or FrameService (servers).
        wire_py = Path(wire.__file__).resolve()
        src = wire_py.parents[1]
        needles = (
            "socket.create_connection",
            ".makefile(",
            "negotiate_caps(",
            "wrap_context(",
        )
        offenders = sorted(
            f"{path.relative_to(src)}: {needle}"
            for path in src.rglob("*.py")
            if path != wire_py
            for needle in needles
            if needle in path.read_text(encoding="utf-8")
        )
        assert offenders == []
