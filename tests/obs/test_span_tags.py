"""Frame-span tags and the client ``serve_wait`` hop.

Server frame spans tag the request opcode and the response status byte as
plain characters (``"+"``, ``"!"``, ``"-"``), never as a Python bytes repr
(``"b'+'"``).  A served call's client span attributes its wire round trip,
from ``write_frame`` to ``read_frame``, to the ``serve_wait`` hop, the way
the memo client records ``memo_wait``; a round trip that fails records
none.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.obs.trace import configure_tracing, recent_spans
from repro.parallel.service import MemoServer, RemoteMemoStore
from repro.parallel.wire import byte_tag
from repro.serve import ServeClient, ServeError, ServeServer, ServeUnavailableError


def _spans(name):
    return [s for s in recent_spans(500) if s["name"] == name]


def _dead_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"serve://127.0.0.1:{port}"


def test_byte_tag_is_the_plain_character():
    assert byte_tag(b"+payload") == "+"
    assert byte_tag(b"!") == "!"
    assert byte_tag(b"-") == "-"
    assert byte_tag(b"\xffjunk") == "\\xff"
    assert byte_tag(b"") == ""


class TestFrameSpanTags:
    def test_serve_frame_tags(self, tiny_advisor, probe_X):
        configure_tracing(enabled=True)
        with ServeServer({"default": tiny_advisor}) as srv:
            client = ServeClient(srv.url)
            try:
                client.predict(probe_X)
                with pytest.raises(ServeError, match="Expected shape"):
                    client.predict(np.zeros((1, 3)))  # wrong width: error frame
            finally:
                client.close()
        tags = [
            (s["tags"]["op"], s["tags"]["status"]) for s in _spans("serve.frame")
        ]
        assert ("predict", "+") in tags
        assert ("predict", "!") in tags

    def test_memo_frame_tags(self, tmp_path):
        configure_tracing(enabled=True)
        with MemoServer(tmp_path / "served") as srv:
            store = RemoteMemoStore(srv.url)
            try:
                assert store.get("ns", "absent") is None
                store.put("ns", "key", 7)
                assert store.get("ns", "key") == 7
            finally:
                store.close()
            srv.shutdown()
        tags = {
            (s["tags"]["op"], s["tags"]["status"]) for s in _spans("memo.frame")
        }
        assert {("G", "-"), ("P", "+"), ("G", "+")} <= tags


class TestServeWaitHop:
    def test_served_predict_records_serve_wait(self, tiny_advisor, probe_X):
        configure_tracing(enabled=True)
        with ServeServer({"default": tiny_advisor}) as srv:
            client = ServeClient(srv.url)
            try:
                client.predict(probe_X[:1])
            finally:
                client.close()
        calls = [s for s in _spans("serve.call") if s["tags"]["op"] == "predict"]
        assert len(calls) == 1
        call = calls[0]
        assert 0.0 < call["hops"]["serve_wait"] <= call["duration_s"]

    def test_failed_round_trip_records_no_serve_wait(self, probe_X):
        configure_tracing(enabled=True)
        client = ServeClient(_dead_url(), timeout=2.0, retries=0)
        try:
            with pytest.raises(ServeUnavailableError):
                client.predict(probe_X[:1])
        finally:
            client.close()
        calls = [s for s in _spans("serve.call") if s["tags"]["op"] == "predict"]
        assert len(calls) == 1
        assert "serve_wait" not in calls[0]["hops"]
