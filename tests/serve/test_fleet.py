"""Tests for fleet routing, failover and admission control (ISSUE 8).

The fleet contract: a multi-URL client hashes requests across replicas
with a deterministic failover order; a dead replica degrades
capacity, not availability, and every completed prediction stays
byte-identical to the local estimator no matter which replica answered.
Overload — request budget or connection cap — sheds with the distinct,
retryable ``overloaded`` flavour, never a hang.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.parallel.resilience import CLOSED, HALF_OPEN, HealthTracker, RetryPolicy
from repro.serve import (
    ServeClient,
    ServeError,
    ServeOverloadedError,
    ServeServer,
    ServeUnavailableError,
)


@pytest.fixture()
def fleet(tiny_advisor):
    servers = [ServeServer(tiny_advisor).start() for _ in range(2)]
    yield servers
    for srv in servers:
        srv.shutdown()


def hand_clock_circuits(client):
    """Swap in circuits on a hand-advanced clock with exact 1 s cooldowns.

    Returns ``advance(dt)``, so cooldowns expire without a sleep.
    """
    now = [100.0]
    client.circuits = HealthTracker(
        cooldown=RetryPolicy(retries=None, base_delay=1.0, jitter=0.0),
        clock=lambda: now[0],
    )

    def advance(dt):
        now[0] += dt

    return advance


class TestFleetConstruction:
    def test_single_url_is_the_classic_client(self, fleet):
        client = ServeClient(fleet[0].url)
        assert client.urls == [fleet[0].url]
        assert client.url == fleet[0].url

    def test_accepts_sequence_and_comma_list(self, fleet):
        urls = [srv.url for srv in fleet]
        assert ServeClient(urls).urls == urls
        assert ServeClient(",".join(urls)).urls == urls

    def test_duplicate_urls_collapse(self, fleet):
        client = ServeClient([fleet[0].url, fleet[0].url])
        assert client.urls == [fleet[0].url]

    def test_no_urls_is_a_loud_config_error(self):
        with pytest.raises(ValueError):
            ServeClient([])
        with pytest.raises(ValueError):
            ServeClient(",")


class TestRouting:
    def test_route_is_deterministic_and_complete(self, fleet):
        client = ServeClient([srv.url for srv in fleet])
        key = b"p" + b'{"model": "default"}'
        order = client._route(key)
        assert order == client._route(key)
        assert sorted(order) == [0, 1]

    def test_different_keys_spread_across_replicas(self, fleet):
        client = ServeClient([srv.url for srv in fleet])
        homes = {
            client._route(f"request-{i}".encode())[0] for i in range(64)
        }
        assert homes == {0, 1}

    def test_equal_requests_prefer_the_same_replica(
        self, fleet, tiny_advisor, probe_X
    ):
        client = ServeClient([srv.url for srv in fleet], timeout=5.0)
        try:
            for _ in range(4):
                client.predict(probe_X[0])
            per_replica = client.fleet_stats()["requests"]
            assert sorted(per_replica.values()) == [0, 4]
        finally:
            client.close()

    def test_route_over_part_of_a_fleet(self):
        # _route dials nothing, so dummy URLs stand in for three replicas.
        urls = [f"serve://127.0.0.1:{port}" for port in (7701, 7702, 7703)]
        client = ServeClient(urls)
        hand_clock_circuits(client)
        client.circuits.record_failure(urls[1])
        orders = [client._route(f"request-{i}".encode()) for i in range(64)]
        for i, order in enumerate(orders):
            assert sorted(order) == [0, 2]
            assert client._route(f"request-{i}".encode()) == order
        assert {order[0] for order in orders} == {0, 2}


class TestProbes:
    def test_every_half_open_replica_gets_its_probe(self, fleet, probe_X):
        client = ServeClient([srv.url for srv in fleet], timeout=5.0)
        advance = hand_clock_circuits(client)
        try:
            for url in client.urls:
                client.circuits.record_failure(url)
            advance(1.01)
            assert [client.circuits.state(u) for u in client.urls] == [HALF_OPEN] * 2
            # The first predict's probe closes one replica; the other
            # replica's probe stays unclaimed for the second predict.
            client.predict(probe_X[0])
            client.predict(probe_X[1])
            assert [client.circuits.state(u) for u in client.urls] == [CLOSED] * 2
            stats = client.fleet_stats()
            assert sorted(stats["requests"].values()) == [1, 1]
            assert stats["failovers"] == 0
        finally:
            client.close()

    def test_probe_claimed_by_another_caller_is_skipped(self, fleet, probe_X):
        client = ServeClient([srv.url for srv in fleet], timeout=5.0)
        advance = hand_clock_circuits(client)
        healthy, probed = client.urls
        try:
            client.circuits.record_failure(probed)
            advance(1.01)
            assert client.circuits.claim_probe(probed)  # the other caller
            for row in probe_X[:4]:
                client.predict(row)
            stats = client.fleet_stats()
            assert stats["requests"] == {healthy: 4, probed: 0}
            assert stats["failovers"] == 0
            assert client.circuits.state(probed) == HALF_OPEN
        finally:
            client.close()


class TestFailover:
    def test_parity_survives_a_dead_replica(self, fleet, tiny_advisor, probe_X):
        local = tiny_advisor.estimator.predict(probe_X)
        client = ServeClient(
            [srv.url for srv in fleet], timeout=5.0, retry_delay=0.05
        )
        try:
            # Warm both replicas, then kill one mid-workload.
            for i in range(len(probe_X) // 2):
                assert client.predict(probe_X[i])[0] == local[i]
            fleet[0].shutdown()
            for i in range(len(probe_X)):
                assert client.predict(probe_X[i])[0] == local[i]
        finally:
            client.close()

    def test_failovers_are_counted(self, fleet, probe_X):
        client = ServeClient(
            [srv.url for srv in fleet], timeout=5.0, retry_delay=0.05
        )
        try:
            fleet[0].shutdown()
            for i in range(len(probe_X)):
                client.predict(probe_X[i])
            stats = client.fleet_stats()
            # Half the keys (on average) homed on the dead replica and had
            # to walk the ring; with 16 probes at least one must have.
            assert stats["failovers"] >= 1
        finally:
            client.close()

    def test_whole_fleet_down_is_unavailable(self, fleet, probe_X):
        client = ServeClient(
            [srv.url for srv in fleet], timeout=1.0, retry_delay=0.05
        )
        try:
            for srv in fleet:
                srv.shutdown()
            with pytest.raises(ServeUnavailableError):
                client.predict(probe_X[0])
        finally:
            client.close()

    def test_request_errors_do_not_fail_over(self, fleet):
        client = ServeClient([srv.url for srv in fleet], timeout=5.0)
        try:
            with pytest.raises(ServeError) as excinfo:
                client.predict(np.zeros((1, 3)), model="no-such-model")
            assert not isinstance(excinfo.value, ServeUnavailableError)
            # The bad request burned exactly one replica round trip: it
            # would be equally wrong everywhere.
            assert sum(client.fleet_stats()["requests"].values()) == 1
        finally:
            client.close()


class TestAdmissionControl:
    def test_inflight_budget_sheds_with_retryable_error(self, tiny_advisor, probe_X):
        gate = threading.Event()
        release = threading.Event()

        class SlowModel:
            n_features_in_ = tiny_advisor.estimator.n_features_in_

            def predict(self, X):
                gate.set()
                release.wait(timeout=10.0)
                return tiny_advisor.estimator.predict(X)

        with ServeServer(
            SlowModel(), micro_batch=False, max_inflight=1
        ) as server:
            blocker = ServeClient(server.url, timeout=10.0)
            prober = ServeClient(server.url, timeout=5.0)
            try:
                t = threading.Thread(
                    target=lambda: blocker.predict(probe_X[0]), daemon=True
                )
                t.start()
                assert gate.wait(timeout=5.0)
                with pytest.raises(ServeOverloadedError):
                    prober.predict(probe_X[1])
                # Health stays answerable from an overloaded server.
                assert prober.health()["status"] == "ok"
                assert server.stats()["admission"]["requests_shed"] >= 1
            finally:
                release.set()
                t.join(timeout=5.0)
                blocker.close()
                prober.close()

    def test_overloaded_fleet_raises_the_retryable_flavour(
        self, tiny_advisor, probe_X
    ):
        gates = []

        def make_slow():
            gate, release = threading.Event(), threading.Event()
            gates.append((gate, release))

            class SlowModel:
                n_features_in_ = tiny_advisor.estimator.n_features_in_

                def predict(self, X):
                    gate.set()
                    release.wait(timeout=10.0)
                    return tiny_advisor.estimator.predict(X)

            return SlowModel()

        servers = [
            ServeServer(make_slow(), micro_batch=False, max_inflight=1).start()
            for _ in range(2)
        ]
        client = ServeClient([srv.url for srv in servers], timeout=5.0)
        blockers = [ServeClient(srv.url, timeout=10.0) for srv in servers]
        threads = []
        try:
            for blocker, row in zip(blockers, probe_X):
                t = threading.Thread(
                    target=lambda b=blocker, r=row: b.predict(r), daemon=True
                )
                t.start()
                threads.append(t)
            for gate, _ in gates:
                assert gate.wait(timeout=5.0)
            # Every replica is saturated: the fleet answer is the
            # retryable overload, reached after trying them all.
            with pytest.raises(ServeOverloadedError):
                client.predict(probe_X[2])
            assert client.fleet_stats()["overloaded"] >= 2
        finally:
            for _, release in gates:
                release.set()
            for t in threads:
                t.join(timeout=5.0)
            for blocker in blockers:
                blocker.close()
            client.close()
            for srv in servers:
                srv.shutdown()

    def test_one_overloaded_replica_just_routes_elsewhere(
        self, tiny_advisor, probe_X
    ):
        gate, release = threading.Event(), threading.Event()

        class SlowModel:
            n_features_in_ = tiny_advisor.estimator.n_features_in_

            def predict(self, X):
                gate.set()
                release.wait(timeout=10.0)
                return tiny_advisor.estimator.predict(X)

        saturated = ServeServer(
            SlowModel(), micro_batch=False, max_inflight=1
        ).start()
        healthy = ServeServer(tiny_advisor).start()
        client = ServeClient([saturated.url, healthy.url], timeout=5.0)
        blocker = ServeClient(saturated.url, timeout=10.0)
        local = tiny_advisor.estimator.predict(probe_X)
        try:
            t = threading.Thread(
                target=lambda: blocker.predict(probe_X[0]), daemon=True
            )
            t.start()
            assert gate.wait(timeout=5.0)
            # Every request completes (possibly failing over), with parity.
            for i in range(len(probe_X)):
                assert client.predict(probe_X[i])[0] == local[i]
        finally:
            release.set()
            t.join(timeout=5.0)
            blocker.close()
            client.close()
            saturated.shutdown()
            healthy.shutdown()


class TestConnectionCapShedFrame:
    def test_shed_connection_reads_overloaded_not_bare_eof(
        self, tiny_advisor, probe_X
    ):
        with ServeServer(tiny_advisor, max_connections=1) as server:
            holder = ServeClient(server.url, timeout=5.0)
            try:
                holder.predict(probe_X[0])  # occupy the only slot
                for _ in range(50):
                    if server.open_connections >= 1:
                        break
                    time.sleep(0.01)
                shed = ServeClient(server.url, timeout=5.0, retry_delay=0.05)
                try:
                    with pytest.raises(ServeOverloadedError) as excinfo:
                        shed.predict(probe_X[1])
                    assert "overloaded" in str(excinfo.value)
                finally:
                    shed.close()
                assert server.connections_shed >= 1
            finally:
                holder.close()
