"""Trace propagation across all three wire protocols (PR 10 tentpole).

In-process servers and clients share one span ring, so linkage is
asserted directly: the server-side frame span's ``parent_id`` must be the
client-side span that sent the request.  The same linkage is then proven
across real process boundaries through the JSONL sinks (see
``test_subprocess.py``).  The hard parity bar rides along: tracing on vs
off changes no answered byte, and old peers (``wire_extensions = False``)
keep round-tripping with traced clients.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.trace import configure_tracing, recent_spans, span
from repro.parallel.cluster import (
    ClusterExecutor,
    ClusterWorker,
    dispatcher_status,
    ensure_dispatcher,
    shutdown_dispatchers,
)
from repro.parallel.service import MemoServer, RemoteMemoStore
from repro.serve import ServeClient, ServeServer


def _square(task):
    return task * task


def _find(spans, name):
    return [s for s in spans if s["name"] == name]


def _assert_linked(spans, client_name, frame_name):
    """Some client-side span must parent some server-side frame span."""
    client_ids = {s["span_id"]: s["trace_id"] for s in _find(spans, client_name)}
    assert client_ids, f"no {client_name} span recorded"
    linked = [
        s
        for s in _find(spans, frame_name)
        if s["parent_id"] in client_ids
        and s["trace_id"] == client_ids[s["parent_id"]]
    ]
    assert linked, f"no {frame_name} span parented by a {client_name} span"
    return linked


class TestServeProtocol:
    def test_client_span_parents_server_frame_span(self, tiny_advisor, probe_X):
        configure_tracing(enabled=True)
        with ServeServer({"default": tiny_advisor}) as srv:
            client = ServeClient(srv.url)
            try:
                client.predict(probe_X)
            finally:
                client.close()
        linked = _assert_linked(recent_spans(500), "serve.call", "serve.frame")
        # Hop timings are non-negative and bounded by the frame duration.
        frame = linked[0]
        assert all(v >= 0.0 for v in frame["hops"].values())
        assert frame["duration_s"] >= max(frame["hops"].values(), default=0.0)

    def test_tracing_changes_no_answered_byte(self, tiny_advisor, probe_X):
        with ServeServer({"default": tiny_advisor}) as srv:
            client = ServeClient(srv.url)
            try:
                baseline = client.predict(probe_X)
                configure_tracing(enabled=True)
                traced_same_conn = client.predict(probe_X)
            finally:
                client.close()
            fresh = ServeClient(srv.url)
            try:
                traced_fresh_conn = fresh.predict(probe_X)
            finally:
                fresh.close()
        assert baseline.tobytes() == traced_same_conn.tobytes()
        assert baseline.tobytes() == traced_fresh_conn.tobytes()

    def test_traced_client_against_legacy_server(self, tiny_advisor, probe_X):
        class LegacyServeServer(ServeServer):
            wire_extensions = False  # a pre-observability peer

        configure_tracing(enabled=True)
        with LegacyServeServer({"default": tiny_advisor}) as srv:
            client = ServeClient(srv.url)
            try:
                traced = client.predict(probe_X)
                # Caps negotiation discovered the peer speaks no extension.
                assert client._replicas[0].conn.caps == frozenset()
            finally:
                client.close()
        untraced_server = ServeServer({"default": tiny_advisor})
        with untraced_server as srv:
            client = ServeClient(srv.url)
            try:
                modern = client.predict(probe_X)
            finally:
                client.close()
        assert traced.tobytes() == modern.tobytes()


class TestMemoProtocol:
    def test_client_span_parents_server_frame_span(self, tmp_path):
        configure_tracing(enabled=True)
        with MemoServer(tmp_path / "served") as srv:
            store = RemoteMemoStore(srv.url)
            try:
                store.put("ns", {"k": 1}, {"value": 7})
                assert store.get("ns", {"k": 1}) == {"value": 7}
            finally:
                store.close()
            srv.shutdown()
        spans = recent_spans(500)
        _assert_linked(spans, "memo.get", "memo.frame")
        _assert_linked(spans, "memo.put", "memo.frame")
        # The round trip itself was attributed to the client span.
        get_span = _find(spans, "memo.get")[0]
        assert get_span["hops"].get("memo_wait", 0.0) > 0.0

    def test_traced_client_against_legacy_server(self, tmp_path):
        class LegacyMemoServer(MemoServer):
            wire_extensions = False

        configure_tracing(enabled=True)
        with LegacyMemoServer(tmp_path / "served") as srv:
            store = RemoteMemoStore(srv.url)
            try:
                store.put("ns", "key", [1, 2, 3])
                assert store.get("ns", "key") == [1, 2, 3]
                assert store.errors == 0
            finally:
                store.close()
            srv.shutdown()

    def test_tracing_off_probes_no_caps(self, tmp_path):
        with MemoServer(tmp_path / "served") as srv:
            store = RemoteMemoStore(srv.url)
            try:
                store.put("ns", "key", "value")
                assert store.get("ns", "key") == "value"
                # No tracing: the caps probe never ran, so the wire
                # behaviour is byte-identical to the pre-PR 10 client.
                assert store._conn.caps is None
            finally:
                store.close()
            srv.shutdown()


class TestClusterProtocol:
    def test_worker_task_span_parents_result_frame(self):
        import threading

        configure_tracing(enabled=True)
        dispatcher = ensure_dispatcher("cluster://127.0.0.1:0")
        worker = ClusterWorker(
            dispatcher.url,
            name="obs-test",
            poll_interval=0.01,
            heartbeat_interval=0.2,
            reconnect_window=10.0,
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            results = ClusterExecutor(url=dispatcher.url, worker_wait=10.0).map(
                _square, [2, 3, 4], order=[0, 1, 2], n_workers=2
            )
            assert results == [4, 9, 16]
        finally:
            worker.stop()
            thread.join(timeout=5.0)
            shutdown_dispatchers()
        spans = recent_spans(500)
        task_spans = _find(spans, "cluster.task")
        assert len(task_spans) == 3
        assert all(s["tags"]["ok"] for s in task_spans)
        # The result round trip is attributed to the task span it reports.
        assert all(
            0.0 < s["hops"].get("cluster_wait", 0.0) <= s["duration_s"]
            for s in task_spans
        )
        _assert_linked(spans, "cluster.task", "cluster.frame")

    def test_status_dial_goes_out_bare(self):
        # dispatcher_status is a one-shot observer dial: no caps probe, no
        # context envelope and no wait hop, even under a live span.
        configure_tracing(enabled=True)
        dispatcher = ensure_dispatcher("cluster://127.0.0.1:0")
        try:
            with span("status") as status:
                dispatcher_status(dispatcher.url)
        finally:
            shutdown_dispatchers()
        frames = _find(recent_spans(500), "cluster.frame")
        assert frames  # tracing is on here, so the dispatcher still records one
        assert all(f["parent_id"] != status.span_id for f in frames)
        assert status.hops == {}

    def test_parallel_map_records_a_span(self):
        from repro.parallel.backend import parallel_map

        configure_tracing(enabled=True)
        assert parallel_map(_square, [1, 2, 3], n_jobs=2, executor="serial") == [
            1,
            4,
            9,
        ]
        fanouts = _find(recent_spans(500), "parallel.map")
        assert fanouts and fanouts[-1]["tags"]["n_tasks"] == 3
