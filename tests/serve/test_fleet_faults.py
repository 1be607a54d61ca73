"""Shed-vs-dead end-to-end under the deterministic fault proxy (ISSUE 9).

The resilience contract, proven against real servers through
:class:`repro.testing.FaultWire`:

* A lossy wire (drops, garbles, stalls) costs retries and failovers —
  never a wrong byte: every answered prediction is byte-identical to the
  local model.
* A **dead** replica (hard RST) trips its circuit: it leaves the ring,
  the healthy replica serves everything, and the fleet stats say so.
* A **shedding** replica (``max_inflight`` admission) is healthy: the
  client retries under its budget and the circuit never opens.
* The whole fleet down resolves to ``ServeUnavailableError`` within the
  client's deadline — bounded, clean, no hang.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.parallel.resilience import CLOSED, OPEN
from repro.serve import (
    ServeClient,
    ServeServer,
    ServeUnavailableError,
)
from repro.testing import FaultSchedule, FaultWire


class TestLossyWireParity:
    def test_predictions_byte_identical_through_lossy_proxies(
        self, tiny_advisor, probe_X
    ):
        local = tiny_advisor.estimator.predict(probe_X)
        servers = [ServeServer(tiny_advisor).start() for _ in range(2)]
        proxies = [
            FaultWire(
                (srv.host, srv.port),
                FaultSchedule(
                    f"storm-{i}", drop=0.06, garble=0.06, delay=0.05, delay_s=0.05
                ),
            ).start()
            for i, srv in enumerate(servers)
        ]
        client = ServeClient(
            [p.url("serve") for p in proxies],
            timeout=5.0,
            retry_delay=0.05,
            retries=10,
            deadline=30.0,
            retry_seed="parity",
        )
        try:
            for _ in range(10):
                got = client.predict(probe_X)
                # Faults cost retries/failovers, never a wrong byte.
                assert np.array_equal(np.asarray(got), local)
            assert sum(p.stats()["injected"] for p in proxies) > 0
        finally:
            client.close()
            for p in proxies:
                p.shutdown()
            for s in servers:
                s.shutdown()

    def test_fleet_stats_surface_circuit_state_per_replica(
        self, tiny_advisor, probe_X
    ):
        server = ServeServer(tiny_advisor).start()
        client = ServeClient(server.url, timeout=5.0, retry_seed="stats")
        try:
            client.predict(probe_X[0])
            stats = client.fleet_stats()
            assert stats["urls"] == [server.url]
            replica = stats["replicas"][server.url]
            # The operator surface: circuit state plus counters and ages.
            assert replica["state"] == CLOSED
            assert replica["requests"] >= 1
            assert replica["successes"] >= 1
            assert replica["failures"] == 0
            assert replica["overloads"] == 0
            assert replica["trips"] == 0
            assert replica["last_failure_age_s"] is None
            assert replica["last_success_age_s"] is not None
            assert replica["open_remaining_s"] == 0.0
        finally:
            client.close()
            server.shutdown()


class TestDeadReplica:
    def test_hard_reset_trips_circuit_and_healthy_replica_serves(
        self, tiny_advisor, probe_X
    ):
        local = tiny_advisor.estimator.predict(probe_X)
        healthy = ServeServer(tiny_advisor).start()
        victim = ServeServer(tiny_advisor).start()
        # Every response frame from the victim is a hard RST: dead, not shed.
        proxy = FaultWire(
            (victim.host, victim.port), FaultSchedule(0, reset=1.0)
        ).start()
        client = ServeClient(
            [healthy.url, proxy.url("serve")],
            timeout=5.0,
            retry_delay=5.0,  # wide cooldown: the circuit stays open below
            retries=4,
            retry_seed="dead-replica",
        )
        try:
            for i in range(len(probe_X)):
                assert client.predict(probe_X[i])[0] == local[i]
            stats = client.fleet_stats()
            dead_url = proxy.url("serve")
            assert stats["replicas"][dead_url]["state"] == OPEN
            assert stats["replicas"][dead_url]["trips"] >= 1
            assert stats["replicas"][dead_url]["last_failure_age_s"] is not None
            assert stats["replicas"][dead_url]["open_remaining_s"] > 0.0
            assert stats["failovers"] >= 1
            # With the circuit open the dead replica has left the ring:
            # repeat traffic is all fast, healthy-replica work.
            failures_before = stats["replicas"][dead_url]["failures"]
            t0 = time.monotonic()
            for i in range(len(probe_X)):
                assert client.predict(probe_X[i])[0] == local[i]
            assert time.monotonic() - t0 < 2.0
            after = client.fleet_stats()["replicas"][dead_url]["failures"]
            assert after == failures_before
        finally:
            client.close()
            proxy.shutdown()
            victim.shutdown()
            healthy.shutdown()

    def test_whole_fleet_down_is_unavailable_within_deadline(
        self, tiny_advisor, probe_X
    ):
        servers = [ServeServer(tiny_advisor).start() for _ in range(2)]
        proxies = [
            FaultWire((srv.host, srv.port), FaultSchedule(0, reset=1.0)).start()
            for srv in servers
        ]
        client = ServeClient(
            [p.url("serve") for p in proxies],
            timeout=1.0,
            retry_delay=0.05,
            retries=2,
            deadline=3.0,
            retry_seed="fleet-down",
        )
        try:
            t0 = time.monotonic()
            with pytest.raises(ServeUnavailableError):
                client.predict(probe_X[0])
            # Bounded by the budget and deadline: clean error, no hang.
            assert time.monotonic() - t0 < 5.0
        finally:
            client.close()
            for p in proxies:
                p.shutdown()
            for s in servers:
                s.shutdown()


class TestMicroBatchedInflightShedding:
    def test_shed_replica_is_retryable_and_circuit_stays_closed(
        self, tiny_advisor, probe_X
    ):
        release = threading.Event()
        inner = tiny_advisor.estimator

        class Gated:
            n_features_in_ = inner.n_features_in_

            def predict(self, X):
                release.wait(10.0)
                return inner.predict(X)

        local = inner.predict(probe_X)
        server = ServeServer(Gated(), max_inflight=1).start()
        blocker = ServeClient(server.url, timeout=15.0)
        client = ServeClient(
            server.url,
            timeout=5.0,
            retry_delay=0.1,
            retries=20,
            deadline=10.0,
            retry_seed="shed",
        )
        blocked = threading.Thread(
            target=lambda: blocker.predict(probe_X[:1]), daemon=True
        )
        try:
            blocked.start()
            # Wait until the gated request is actually pending server-side.
            for _ in range(100):
                batcher = server.stats()["models"]["default"]["batcher"]
                if batcher["pending"] >= 1:
                    break
                time.sleep(0.02)
            threading.Timer(0.5, release.set).start()
            # The shed request retries under its budget and lands once the
            # gate opens — byte-identical, like any other answer.
            got = client.predict(probe_X[1:2])
            assert got[0] == local[1]
            stats = client.fleet_stats()
            # Shed is not dead: overloads counted, circuit never opened.
            assert stats["overloaded"] >= 1
            assert stats["replicas"][server.url]["overloads"] >= 1
            assert stats["replicas"][server.url]["state"] == CLOSED
            assert stats["replicas"][server.url]["trips"] == 0
            admission = server.stats()["admission"]
            assert admission["max_inflight"] == 1
            assert admission["requests_shed"] >= 1
        finally:
            release.set()
            blocked.join(timeout=5.0)
            blocker.close()
            client.close()
            server.shutdown()
