"""The ``telemetry`` opcode and caps negotiation (exposure layer).

Every framed service answers one opcode with one versioned JSON document;
old builds refuse it with their normal unknown-opcode error, which is the
version negotiation. These tests scrape real sockets — the same path the
``fleet-stats`` CLI verb and the CI telemetry guards use.
"""

from __future__ import annotations

import socket

import pytest

from repro.obs.trace import configure_tracing, span
from repro.parallel.service import MemoServer, RemoteMemoStore
from repro.parallel.wire import (
    OP_TELEMETRY,
    TELEMETRY_SCHEMA_VERSION,
    WIRE_CAPS,
    FrameConnection,
    ProtocolError,
    fetch_telemetry,
    negotiate_caps,
    parse_hostport_url,
)
from repro.serve import ServeClient, ServeServer
from repro.serve.server import SERVE_URL_SCHEME


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestTelemetryOpcode:
    def test_serve_snapshot_shape_and_counters(self, tiny_advisor, probe_X):
        with ServeServer({"default": tiny_advisor}) as srv:
            client = ServeClient(srv.url)
            try:
                client.predict(probe_X)
            finally:
                client.close()
            host, port = parse_hostport_url(srv.url, SERVE_URL_SCHEME)
            doc = fetch_telemetry(host, port)
        assert doc["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert doc["service"] == "ServeServer"
        assert set(WIRE_CAPS) <= set(doc["caps"])
        assert doc["uptime_s"] >= 0.0
        assert doc["metrics"]["counters"]["serve.requests{op=predict}"] >= 1
        # Legacy stats ride along as a view, not a replacement.
        assert doc["stats"]["requests"]["predict"] >= 1
        assert isinstance(doc["spans"], list)

    def test_memo_snapshot_includes_store_stats(self, tmp_path):
        with MemoServer(tmp_path / "served") as srv:
            store = RemoteMemoStore(srv.url)
            try:
                store.put("ns", "k", 1)
                store.get("ns", "k")
            finally:
                store.close()
            host, port = parse_hostport_url(srv.url, "memo://")
            doc = fetch_telemetry(host, port)
            srv.shutdown()
        assert doc["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert doc["service"] == "MemoServer"
        assert "store" in doc["stats"]

    def test_dead_port_raises_oserror(self):
        with pytest.raises(OSError):
            fetch_telemetry("127.0.0.1", _free_port(), timeout=1.0)

    def test_legacy_peer_raises_protocol_error(self, tmp_path):
        class LegacyMemoServer(MemoServer):
            wire_extensions = False

        with LegacyMemoServer(tmp_path / "served") as srv:
            host, port = parse_hostport_url(srv.url, "memo://")
            with pytest.raises(ProtocolError):
                fetch_telemetry(host, port)
            srv.shutdown()


class TestCapsNegotiation:
    def _caps_of(self, url, scheme):
        host, port = parse_hostport_url(url, scheme)
        with socket.create_connection((host, port), timeout=5.0) as sock:
            with sock.makefile("rb") as rfile, sock.makefile("wb") as wfile:
                return negotiate_caps(rfile, wfile)

    def test_modern_peer_advertises_extensions(self, tmp_path):
        with MemoServer(tmp_path / "served") as srv:
            caps = self._caps_of(srv.url, "memo://")
            srv.shutdown()
        assert caps == frozenset(WIRE_CAPS)

    def test_legacy_peer_negotiates_to_empty(self, tmp_path):
        class LegacyMemoServer(MemoServer):
            wire_extensions = False

        with LegacyMemoServer(tmp_path / "served") as srv:
            caps = self._caps_of(srv.url, "memo://")
            srv.shutdown()
        assert caps == frozenset()

    def test_traced_connection_sends_extension_opcodes_bare(self, tmp_path):
        # A traced connection under a live span wraps service requests, but
        # never an extension opcode: the server would answer a wrapped
        # TELEMETRY as an unknown opcode.  Nor does one trigger the probe.
        configure_tracing(enabled=True)
        with MemoServer(tmp_path / "served") as srv:
            host, port = parse_hostport_url(srv.url, "memo://")
            with FrameConnection(host, port, timeout=5.0, scheme="memo://") as conn:
                with span("scrape"):
                    response = conn.request(OP_TELEMETRY)
                assert response[:1] == b"+"
                assert conn.caps is None
            srv.shutdown()


class TestFleetTelemetry:
    def test_mixed_fleet_scrape(self, tiny_advisor, probe_X):
        dead_url = f"serve://127.0.0.1:{_free_port()}"
        with ServeServer({"default": tiny_advisor}) as srv:
            client = ServeClient([srv.url, dead_url], timeout=1.0)
            try:
                client.predict(probe_X)
                docs = client.fleet_telemetry(timeout=1.0)
            finally:
                client.close()
        assert docs[srv.url]["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert docs[srv.url]["metrics"]["counters"]["serve.requests{op=predict}"] >= 1
        assert "error" in docs[dead_url]

    def test_scrape_carries_recent_spans(self, tiny_advisor, probe_X):
        configure_tracing(enabled=True)
        with ServeServer({"default": tiny_advisor}) as srv:
            client = ServeClient(srv.url)
            try:
                client.predict(probe_X)
                docs = client.fleet_telemetry()
            finally:
                client.close()
        spans = docs[srv.url]["spans"]
        assert any(s["name"] == "serve.frame" for s in spans)
