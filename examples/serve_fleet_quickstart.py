#!/usr/bin/env python
"""Serve-fleet quickstart: multi-model routing, failover and admission control.

A single serve process (``examples/serving_quickstart.py``) is one machine
and one model.  The fleet layer (PR 8) scales both axes with zero new
dependencies:

1. several replicas share one model **registry**; each request names a model
   *alias* and the server lazily warm-loads it, keeping at most
   ``max_models`` resident (LRU eviction, digest-verified reloads);
2. each replica warm-loads the same digest-verified artifact into its own
   process, so every replica serves a byte-identical copy of each model;
3. a multi-URL :class:`ServeClient` hashes requests across the replicas
   and fails over when one dies: a dead replica degrades capacity,
   not availability, and every completed answer stays byte-identical to the
   local estimator no matter which replica produced it;
4. a bounded in-flight budget (``max_inflight``) sheds overload with a
   distinct retryable :class:`ServeOverloadedError` instead of queueing
   unboundedly — the fleet client simply routes around a saturated replica.

Run with::

    python examples/serve_fleet_quickstart.py

The equivalent operational setup on three shells (one per "machine")::

    # shells 1+2 — two replicas sharing one registry (the first fits and
    # publishes; the second warm-loads that artifact instead of refitting)
    repro-chem serve --registry /srv/models --port 7601 --max-inflight 64
    repro-chem serve --registry /srv/models --port 7602 --max-inflight 64

    # shell 3 — fleet-routed queries (any replica may answer)
    repro-chem query predict --url serve://host1:7601 --url serve://host2:7602 \\
        --features 99,718,40,80
    repro-chem query stats --url serve://host1:7601
"""

import tempfile
import threading

import numpy as np

from repro.core.advisor import ResourceAdvisor
from repro.data.datasets import build_dataset
from repro.serve import (
    ModelRegistry,
    ServeClient,
    ServeOverloadedError,
    ServeServer,
)


def main() -> None:
    # ---------------------------------------------------------- publish two models
    print("Fitting and publishing two model aliases...")
    aurora = build_dataset("aurora", seed=0, n_total=400)
    frontier = build_dataset("frontier", seed=0, n_total=400)
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        registry.publish(
            ResourceAdvisor.from_dataset(aurora, preset="fast"), name="aurora"
        )
        registry.publish(
            ResourceAdvisor.from_dataset(frontier, preset="fast"), name="frontier"
        )
        local = {
            "aurora": registry.load("aurora").estimator.predict(aurora.X_test),
            "frontier": registry.load("frontier").estimator.predict(frontier.X_test),
        }

        # ------------------------------------------------- two registry replicas
        # Neither hosts a model statically: aliases load on first use, and at
        # most two stay resident per replica (a third alias would evict the
        # least recently used one; it reloads transparently when asked again).
        with ServeServer({}, registry=registry, max_models=2) as replica_a, \
                ServeServer({}, registry=registry, max_models=2) as replica_b:
            urls = [replica_a.url, replica_b.url]
            print(f"Fleet: {urls[0]} + {urls[1]}\n")

            # ------------------------------------------------ fleet-routed parity
            client = ServeClient(urls)
            for alias, dataset in (("aurora", aurora), ("frontier", frontier)):
                served = client.predict(dataset.X_test, model=alias)
                assert served.tobytes() == local[alias].tobytes()
                print(f"{alias:>8}: {len(served)} fleet predictions, byte-identical")

            # ------------------------------------------------------ kill a replica
            print("\nShutting down replica A mid-workload (failover, not failure)...")
            replica_a.shutdown()
            for alias, dataset in (("aurora", aurora), ("frontier", frontier)):
                served = client.predict(dataset.X_test, model=alias)
                assert served.tobytes() == local[alias].tobytes()
            stats = client.fleet_stats()
            print(
                f"Still byte-identical; client failed over "
                f"{stats['failovers']} request(s) to the survivor."
            )
            client.close()

            # ------------------------------------------------------ admission control
            print("\nOverload: a replica with a one-request budget sheds, never hangs.")
            gate, release = threading.Event(), threading.Event()

            class SlowModel:
                n_features_in_ = 4

                def predict(self, X):
                    gate.set()
                    release.wait(timeout=10.0)
                    return np.zeros(len(np.atleast_2d(X)))

            with ServeServer(
                SlowModel(), micro_batch=False, max_inflight=1
            ) as tiny:
                blocker = ServeClient(tiny.url)
                prober = ServeClient(tiny.url)
                thread = threading.Thread(
                    target=lambda: blocker.predict(np.zeros(4)), daemon=True
                )
                thread.start()
                gate.wait(timeout=5.0)
                try:
                    prober.predict(np.zeros(4))
                except ServeOverloadedError as exc:
                    print(f"Shed with the retryable flavour: {exc}")
                release.set()
                thread.join(timeout=5.0)
                shed = tiny.stats()["admission"]["requests_shed"]
                print(f"Server counted requests_shed={shed}")
                blocker.close()
                prober.close()


if __name__ == "__main__":
    main()
