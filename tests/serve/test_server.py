"""Tests for the serve server + client (``repro.serve.server``/``client``).

The ISSUE 5 contract: served predictions — micro-batched, concurrent,
single-flight — are byte-identical to local single-request inference on
the same fitted model; every failure (dead server, truncated/oversized
frame, malformed request) is a clean error, never a hang or a crash.
"""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.ml.gradient_boosting import GradientBoostingRegressor
from repro.parallel.wire import LEN
from repro.serve import (
    ModelRegistry,
    ServeClient,
    ServeError,
    ServeServer,
    ServeUnavailableError,
    parse_serve_url,
)


@pytest.fixture()
def server(tiny_advisor):
    with ServeServer({"default": tiny_advisor, "aurora": tiny_advisor}) as srv:
        yield srv


@pytest.fixture()
def client(server):
    c = ServeClient(server.url, timeout=5.0, retry_delay=0.05)
    yield c
    c.close()


class TestUrlParsing:
    def test_round_trip(self):
        assert parse_serve_url("serve://127.0.0.1:7601") == ("127.0.0.1", 7601)

    @pytest.mark.parametrize(
        "bad", ["serve://", "serve://hostonly", "memo://h:80", "serve://h:0"]
    )
    def test_junk_is_a_loud_config_error(self, bad):
        with pytest.raises(ValueError):
            ServeClient(bad)


class TestPredictParity:
    def test_served_equals_local_byte_for_byte(self, client, tiny_advisor, probe_X):
        served = client.predict(probe_X)
        assert np.array_equal(served, tiny_advisor.estimator.predict(probe_X))

    def test_single_rows_equal_batch_rows(self, client, tiny_advisor, probe_X):
        local = tiny_advisor.estimator.predict(probe_X)
        for i in range(len(probe_X)):
            assert client.predict(probe_X[i])[0] == local[i]

    def test_named_model_routes_to_the_same_fit(self, client, tiny_advisor, probe_X):
        assert np.array_equal(
            client.predict(probe_X, model="aurora"),
            tiny_advisor.estimator.predict(probe_X),
        )

    def test_responses_echo_the_requested_alias(self, client, server):
        # "aurora" and "default" share one hosted model; the response must
        # name what the client asked for, not the first-registered alias.
        for name in ("default", "aurora"):
            out = client._call(b"p", {"model": name, "X": [[44.0, 260.0, 5.0, 40.0]]})
            assert out["model"] == name
            out = client._call(
                b"q",
                {"model": name, "question": "stq", "n_occupied": 99, "n_virtual": 718},
            )
            assert out["model"] == name

    def test_concurrent_clients_are_byte_identical_and_coalesce(
        self, server, tiny_advisor, probe_X
    ):
        local = tiny_advisor.estimator.predict(probe_X)
        errors = []

        def worker(i):
            c = ServeClient(server.url)
            try:
                for j in range(i, len(probe_X), 4):
                    got = c.predict(probe_X[j])[0]
                    if got != local[j]:
                        errors.append((j, got, local[j]))
            finally:
                c.close()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = server.stats()
        batcher = stats["models"]["default"]["batcher"]
        assert batcher["requests"] == len(probe_X)
        assert batcher["rows"] == len(probe_X)

    def test_single_flight_server_is_also_byte_identical(self, tiny_advisor, probe_X):
        with ServeServer(tiny_advisor, micro_batch=False) as srv:
            c = ServeClient(srv.url)
            try:
                assert np.array_equal(
                    c.predict(probe_X), tiny_advisor.estimator.predict(probe_X)
                )
                assert srv.stats()["models"]["default"]["batcher"] is None
            finally:
                c.close()


class TestAsk:
    @pytest.mark.parametrize("question", ["stq", "bq"])
    def test_ask_matches_local_advisor(self, client, tiny_advisor, question):
        served = client.ask(question, 99, 718)
        assert served == tiny_advisor.answer(question, 99, 718).as_dict()

    def test_bad_question_is_a_clean_error(self, client):
        with pytest.raises(ServeError, match="question"):
            client.ask("fastest", 99, 718)

    def test_missing_problem_size_is_a_clean_error(self, client, server):
        raw = ServeClient(server.url)
        try:
            with pytest.raises(ServeError, match="n_occupied"):
                raw._call(b"q", {"model": "default", "question": "stq"})
        finally:
            raw.close()


class TestOperationalEndpoints:
    def test_ping_and_health(self, client, server):
        assert client.ping()
        health = client.health()
        assert health["status"] == "ok"
        assert sorted(health["models"]) == ["aurora", "default"]
        assert health["micro_batch"] is True

    def test_stats_counts_requests_and_registry(self, tiny_advisor, probe_X, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_advisor, name="m")
        model = registry.load("m")
        with ServeServer(model, registry=registry) as srv:
            c = ServeClient(srv.url)
            try:
                c.predict(probe_X[:2])
                c.ask("stq", 99, 718)
                stats = c.stats()
            finally:
                c.close()
        assert stats["requests"]["predict"] == 1
        assert stats["requests"]["ask"] == 1
        assert stats["registry"]["publishes"] == 1
        assert stats["registry"]["loads"] == 1
        assert stats["models"]["default"]["n_features"] == 4


class TestRequestErrors:
    """Nothing a client sends can crash or wedge the server."""

    def test_unknown_model(self, client):
        with pytest.raises(ServeError, match="unknown model"):
            client.predict([[1.0, 2.0, 3.0, 4.0]], model="nope")

    def test_wrong_feature_count(self, client):
        with pytest.raises(ServeError, match="Expected shape"):
            client.predict([[1.0, 2.0, 3.0]])

    def test_non_finite_features(self, client):
        with pytest.raises(ServeError, match="NaN"):
            client.predict([[1.0, float("nan"), 3.0, 4.0]])

    def test_empty_X(self, client):
        with pytest.raises(ServeError, match="Empty"):
            client.predict(np.empty((0, 4)))

    def test_malformed_json_body_and_unknown_opcode(self, server):
        sock = socket.create_connection((server.host, server.port), timeout=5.0)
        try:
            for payload in (b"p{not json", b"Zwhatever"):
                sock.sendall(LEN.pack(len(payload)) + payload)
                header = sock.recv(4, socket.MSG_WAITALL)
                (length,) = LEN.unpack(header)
                body = sock.recv(length, socket.MSG_WAITALL)
                assert body[:1] == b"!"
        finally:
            sock.close()

    def test_server_keeps_serving_after_errors(self, client, tiny_advisor, probe_X):
        for _ in range(3):
            with pytest.raises(ServeError):
                client.predict([[1.0]])
        assert np.array_equal(
            client.predict(probe_X), tiny_advisor.estimator.predict(probe_X)
        )


class TestFailureContract:
    def test_dead_server_is_a_clean_fast_error(self):
        # Bind-then-close guarantees a dead localhost port.
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        client = ServeClient(f"serve://127.0.0.1:{port}", timeout=1.0, retry_delay=0.2)
        with pytest.raises(ServeUnavailableError):
            client.predict([[1.0, 2.0, 3.0, 4.0]])
        # Inside the back-off window calls fail fast, without re-connecting.
        with pytest.raises(ServeUnavailableError, match="backing off"):
            client.predict([[1.0, 2.0, 3.0, 4.0]])

    def test_severed_connection_recovers_with_one_reconnect(
        self, server, client, tiny_advisor, probe_X
    ):
        assert client.ping()
        # Sever every server-side connection: to the client this is exactly
        # a server restart — the next call's first attempt fails and the
        # single reconnect must absorb it.
        server._tcp.close_all_connections()
        assert np.array_equal(
            client.predict(probe_X), tiny_advisor.estimator.predict(probe_X)
        )

    def test_rogue_server_garbage_frame_is_clean(self):
        """A 'server' answering with an oversized frame length: the client
        must error out cleanly, not allocate or hang."""
        rogue = socket.socket()
        rogue.bind(("127.0.0.1", 0))
        rogue.listen(2)
        port = rogue.getsockname()[1]

        def serve_garbage():
            # Keep answering garbage for every reconnect and retry-round
            # probe until the listener closes: each attempt must fail
            # cleanly and instantly, however many the budget allows.
            while True:
                try:
                    conn, _ = rogue.accept()
                except OSError:
                    return
                try:
                    conn.recv(4096)
                    conn.sendall(LEN.pack(2**31 - 1))  # huge frame announcement
                    conn.close()
                except OSError:
                    pass

        thread = threading.Thread(target=serve_garbage, daemon=True)
        thread.start()
        client = ServeClient(f"serve://127.0.0.1:{port}", timeout=2.0, retry_delay=0.1)
        try:
            with pytest.raises(ServeUnavailableError):
                client.predict([[1.0, 2.0, 3.0, 4.0]])
        finally:
            client.close()
            rogue.close()

    def test_ok_response_without_predictions_is_loud(self):
        """A version-skewed 'server' answering predict with OK but no y:
        the client must raise, never return a silently short result."""
        rogue = socket.socket()
        rogue.bind(("127.0.0.1", 0))
        rogue.listen(1)
        port = rogue.getsockname()[1]

        def serve_empty_ok():
            conn, _ = rogue.accept()
            try:
                conn.recv(65536)
                body = b"+" + json.dumps({"model": "default"}).encode()
                conn.sendall(LEN.pack(len(body)) + body)
                conn.recv(65536)  # hold the connection until the assert ran
            finally:
                conn.close()

        thread = threading.Thread(target=serve_empty_ok, daemon=True)
        thread.start()
        client = ServeClient(f"serve://127.0.0.1:{port}", timeout=2.0)
        try:
            with pytest.raises(ServeUnavailableError, match="malformed prediction"):
                client.predict([[1.0, 2.0, 3.0, 4.0]])
        finally:
            client.close()
            rogue.close()

    def test_oversized_request_fails_locally_without_poisoning(
        self, client, tiny_advisor, probe_X, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.client.MAX_FRAME", 64)
        with pytest.raises(ServeError, match="frame cap"):
            client.predict(probe_X)
        monkeypatch.undo()
        # The connection and back-off state were not touched.
        assert np.array_equal(
            client.predict(probe_X[:1]), tiny_advisor.estimator.predict(probe_X[:1])
        )

    def test_non_numeric_predictions_are_loud(self, client, monkeypatch):
        monkeypatch.setattr(
            ServeClient, "_call", lambda self, op, fields=None: {"y": ["a"]}
        )
        with pytest.raises(ServeUnavailableError, match="malformed prediction"):
            client.predict([[1.0, 2.0, 3.0, 4.0]])

    def test_bind_failure_does_not_leak_batcher_threads(self, tiny_advisor):
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        placeholder.listen(1)
        port = placeholder.getsockname()[1]
        try:
            with pytest.raises(OSError):
                ServeServer(tiny_advisor, port=port)
            # The half-built server closed its batcher workers on the way out.
            assert not [
                t for t in threading.enumerate() if t.name == "micro-batcher"
            ]
        finally:
            placeholder.close()

    def test_unservable_model_does_not_leak_batcher_threads(self, tiny_advisor):
        def batchers():
            return {t for t in threading.enumerate() if t.name == "micro-batcher"}

        before = batchers()
        unfitted = GradientBoostingRegressor()
        with pytest.raises(TypeError, match="not fitted"):
            ServeServer({"a": tiny_advisor, "b": unfitted})
        # "a" was hosted (its batcher started) before "b" failed.
        assert batchers() == before

    @pytest.mark.parametrize("micro_batch", [True, False])
    def test_model_runtime_error_is_not_an_eviction(self, micro_batch):
        class Exploding:
            n_features_in_ = 4

            def predict(self, X):
                raise RuntimeError("model exploded")

        with ServeServer(Exploding(), micro_batch=micro_batch) as srv:
            client = ServeClient(srv.url, timeout=5.0, retry_delay=0.05)
            try:
                with pytest.raises(ServeError) as info:
                    client.predict([[1.0, 2.0, 3.0, 4.0]])
                assert "evicted" not in str(info.value)
                assert srv.stats()["errors"] == 1
                assert client.ping()
            finally:
                client.close()

    def test_closed_batcher_is_answered_as_an_eviction(self, tiny_advisor, probe_X):
        with ServeServer(tiny_advisor) as srv:
            # What an LRU eviction between routing and submit leaves behind.
            srv.models["default"].batcher.close()
            client = ServeClient(srv.url, timeout=5.0, retry_delay=0.05)
            try:
                with pytest.raises(ServeError, match="evicted mid-request"):
                    client.predict(probe_X[:1])
            finally:
                client.close()

    def test_shutdown_then_queries_fail_cleanly(self, tiny_advisor, probe_X):
        srv = ServeServer(tiny_advisor)
        srv.start()
        client = ServeClient(srv.url, timeout=1.0, retry_delay=0.05)
        try:
            assert client.ping()
            srv.shutdown()
            with pytest.raises(ServeUnavailableError):
                client.predict(probe_X)
        finally:
            client.close()
            srv.shutdown()
