#!/usr/bin/env python
"""Chaos quickstart: the resilience layer under a deterministic fault storm.

Every wire client in the stack (``memo://``, ``serve://``, ``cluster://``)
shares one resilience engine (``repro.parallel.resilience``, PR 9):

1. **retry budgets + jittered backoff** — every retry loop derives from an
   immutable :class:`RetryPolicy` (capped exponential delays, equal jitter,
   per-operation budget, overall deadline).  Seed the jitter
   (``retry_seed=`` or ``REPRO_RETRY_SEED``) and the whole retry sequence
   replays identically;
2. **health-aware routing** — a :class:`HealthTracker` keeps a per-endpoint
   closed/open/half-open circuit that a failure opens.  A dead replica
   leaves routing while its circuit is open and re-enters on a successful
   half-open probe.  Overloads *never* trip the circuit: a shedding
   replica is a healthy replica (shed-vs-dead);
3. **in-flight shedding** — ``repro-chem serve --max-inflight N`` bounds
   the predict/ask requests a replica processes at once, answering the
   retryable ``overloaded`` flavour instead of queueing past the bound.

The proof harness is :class:`repro.testing.FaultWire`: a frame-aware TCP
proxy whose drops / stalls / truncations / resets / garbles are a pure
function of ``(seed, connection, frame)`` — the same seed replays the same
storm, byte for byte.  This script drives a 2-replica fleet through two
lossy proxies and shows the headline invariant: **faults cost retries and
failovers, never a wrong byte**.

Run with::

    python examples/chaos_quickstart.py

The equivalent operational setup (the CI ``chaos`` job scripts it,
without ``--max-inflight``)::

    repro-chem serve --port 7601 --max-inflight 64   # real replicas
    repro-chem serve --port 7602 --max-inflight 64
    python -m repro.testing.faultwire --listen 127.0.0.1:7611 \\
        --upstream 127.0.0.1:7601 --seed 1234 --drop 0.05 --garble 0.05
    repro-chem query predict --url serve://127.0.0.1:7611 --retries 8 \\
        --features 99,718,40,80
"""

import json

import numpy as np

from repro.core.advisor import ResourceAdvisor
from repro.data.datasets import build_dataset
from repro.serve import ServeClient, ServeServer
from repro.testing import FaultSchedule, FaultWire


def main() -> None:
    # ------------------------------------------------------------- fit one model
    print("Fitting a small advisor...")
    dataset = build_dataset("aurora", seed=0, n_total=400)
    advisor = ResourceAdvisor.from_dataset(dataset, preset="fast")
    local = advisor.estimator.predict(dataset.X_test)

    # ------------------------------------------- two replicas, two lossy proxies
    with ServeServer(advisor) as replica_a, ServeServer(advisor) as replica_b:
        storm = dict(drop=0.06, garble=0.06, delay=0.05, delay_s=0.05)
        with FaultWire(
            (replica_a.host, replica_a.port), FaultSchedule("chaos-a", **storm)
        ) as proxy_a, FaultWire(
            (replica_b.host, replica_b.port), FaultSchedule("chaos-b", **storm)
        ) as proxy_b:
            urls = [proxy_a.url("serve"), proxy_b.url("serve")]
            print(f"Fleet behind fault proxies: {urls[0]} + {urls[1]}")
            print(f"Storm per response frame: {storm}\n")

            # A seeded client: the retry/backoff sequence is reproducible.
            client = ServeClient(
                urls,
                timeout=5.0,
                retry_delay=0.05,
                retries=8,
                deadline=30.0,
                retry_seed="chaos-quickstart",
            )
            rounds, n = 10, len(dataset.X_test)
            for _ in range(rounds):
                served = client.predict(dataset.X_test)
                # The headline invariant: lossy wire, byte-identical answers.
                assert served.tobytes() == local.tobytes()
            print(
                f"{rounds * n}/{rounds * n} predictions byte-identical "
                f"through the storm."
            )

            stats = client.fleet_stats()
            print(
                f"Client absorbed it: failovers={stats['failovers']}, "
                f"retry_rounds={stats['retry_rounds']}, "
                f"overloaded={stats['overloaded']}"
            )
            print("Per-replica circuits (the operator surface):")
            print(json.dumps(stats["replicas"], indent=2))
            injected = {
                "proxy_a": proxy_a.stats()["by_action"],
                "proxy_b": proxy_b.stats()["by_action"],
            }
            print(f"Faults actually injected: {json.dumps(injected)}")
            client.close()

    # ----------------------------------------------------- dead, not just lossy
    print("\nHard-dead replica: every response frame is a TCP reset...")
    with ServeServer(advisor) as healthy, ServeServer(advisor) as victim:
        with FaultWire(
            (victim.host, victim.port), FaultSchedule(0, reset=1.0)
        ) as killer:
            client = ServeClient(
                [healthy.url, killer.url("serve")],
                timeout=5.0,
                retry_delay=5.0,
                retries=4,
                retry_seed="dead-replica",
            )
            for row in np.asarray(dataset.X_test)[:8]:
                client.predict(row)
            dead = client.fleet_stats()["replicas"][killer.url("serve")]
            print(
                f"Dead replica circuit: state={dead['state']!r}, "
                f"trips={dead['trips']}, "
                f"open for another {dead['open_remaining_s']}s — "
                f"it left routing; the healthy replica serves everything."
            )
            client.close()


if __name__ == "__main__":
    main()
