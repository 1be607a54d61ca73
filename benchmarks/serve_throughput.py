"""Serve-throughput and tail-latency artifact for the inference service.

Measures the serving layer end to end against the paper's deployed
Gradient Boosting configuration (750 trees, depth 10 by default): an
in-process :class:`~repro.serve.server.ServeServer` hosts the fitted
advisor, a pool of concurrent clients fires single-row predict requests at
it, and the run is repeated in both server modes:

* **single-flight** — micro-batching disabled: every request pays its own
  packed predict call, whose fixed per-call cost (input checks, traversal
  set-up, one dispatch per depth level and one accumulation kernel call)
  barely depends on the row count;
* **micro-batched** — concurrent requests coalesce into one packed
  traversal per tick, the PR 5 headline.

The two modes run interleaved: ``ROUNDS`` rounds each, in alternation, and
each mode's rounds are pooled.  A fast or slow spell of a shared runner then
lands on both modes instead of skewing the ratio toward whichever mode
happened to run during it, as it can when the modes run back to back.

Byte-parity of the served path against local single-request inference is
asserted before anything is timed, in both modes.  The JSON artifact
(``BENCH_PR8.json`` by convention) records requests/s, **latency
percentiles through p99** and the coalescing statistics; CI uploads it and
enforces the throughput floor and the tail guard — micro-batched p99
must not exceed the single-flight p50 at the same concurrency — so a
regression that doubles the tail while holding the mean cannot merge
green.  Run locally with::

    PYTHONPATH=src python benchmarks/serve_throughput.py --output BENCH_PR8.json

``--trees/--depth/--clients/--requests`` shrink the experiment for quick
smoke runs (e.g. ``--trees 50 --requests 10``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time

import numpy as np


#: Interleaved rounds per mode (single-flight, micro-batched, alternating).
ROUNDS = 3


def _run_round(
    advisor, X_rows: np.ndarray, *, micro_batch: bool, clients: int, requests: int
) -> dict:
    """Serve ``clients`` concurrent workers × ``requests`` single-row queries."""
    from repro.serve import ServeClient, ServeServer

    latencies = np.zeros(clients * requests)
    with ServeServer(advisor, micro_batch=micro_batch) as server:
        barrier = threading.Barrier(clients + 1)

        def worker(c: int) -> None:
            client = ServeClient(server.url)
            try:
                # Warm the connection outside the timed window.
                client.ping()
                barrier.wait()
                for r in range(requests):
                    row = X_rows[(c * requests + r) % len(X_rows)]
                    start = time.perf_counter()
                    client.predict(row)
                    latencies[c * requests + r] = time.perf_counter() - start
            finally:
                client.close()

        threads = [threading.Thread(target=worker, args=(c,)) for c in range(clients)]
        for t in threads:
            t.start()
        barrier.wait()
        wall_start = time.perf_counter()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - wall_start
        stats = server.stats()
    return {
        "latencies": latencies,
        "wall_s": wall_s,
        "batcher": stats["models"]["default"]["batcher"],
    }


def _pool(rounds: list[dict], *, micro_batch: bool, clients: int) -> dict:
    """One mode's summary over all of its rounds' samples."""
    latencies = np.concatenate([r["latencies"] for r in rounds])
    wall_s = sum(r["wall_s"] for r in rounds)
    summary = {
        "mode": "micro_batched" if micro_batch else "single_flight",
        "clients": clients,
        "rounds": len(rounds),
        "requests": int(latencies.size),
        "wall_s": wall_s,
        "requests_per_s": latencies.size / wall_s,
        "round_requests_per_s": [r["latencies"].size / r["wall_s"] for r in rounds],
        "latency_ms": {
            "mean": float(np.mean(latencies)) * 1e3,
            "p50": float(np.percentile(latencies, 50)) * 1e3,
            "p95": float(np.percentile(latencies, 95)) * 1e3,
            "p99": float(np.percentile(latencies, 99)) * 1e3,
            "max": float(np.max(latencies)) * 1e3,
        },
        "batcher": None,
    }
    if micro_batch:
        requests = sum(r["batcher"]["requests"] for r in rounds)
        batches = sum(r["batcher"]["batches"] for r in rounds)
        summary["batcher"] = {
            "requests": requests,
            "batches": batches,
            "batched_requests_max": max(
                r["batcher"]["batched_requests_max"] for r in rounds
            ),
            "requests_per_batch_mean": requests / batches if batches else 0.0,
        }
    return summary


def _assert_parity(advisor, X_rows: np.ndarray, *, micro_batch: bool, clients: int) -> None:
    """Concurrent served single-row predictions must equal the local ones."""
    from repro.serve import ServeClient, ServeServer

    local = advisor.estimator.predict(X_rows)
    failures: list = []
    with ServeServer(advisor, micro_batch=micro_batch) as server:
        def worker(c: int) -> None:
            client = ServeClient(server.url)
            try:
                for i in range(c, len(X_rows), clients):
                    got = client.predict(X_rows[i])[0]
                    if got != local[i]:
                        failures.append((i, got, local[i]))
            finally:
                client.close()

        threads = [threading.Thread(target=worker, args=(c,)) for c in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if failures:
        raise SystemExit(
            f"parity violation ({'micro' if micro_batch else 'single'}): {failures[:3]}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_PR8.json", help="JSON artifact path")
    parser.add_argument("--trees", type=int, default=750, help="GB n_estimators")
    parser.add_argument("--depth", type=int, default=10, help="GB max_depth")
    parser.add_argument("--clients", type=int, default=8, help="concurrent client threads")
    parser.add_argument(
        "--requests",
        type=int,
        default=150,
        help=(
            "timed single-row requests per client per round (the default "
            "yields clients*150*ROUNDS latency samples per mode, enough for "
            "a stable p99)"
        ),
    )
    parser.add_argument("--dataset", default="aurora", help="dataset name (Table 1)")
    args = parser.parse_args(argv)

    from repro.core.advisor import ResourceAdvisor
    from repro.core.estimator import ResourceEstimator
    from repro.data.datasets import build_dataset
    from repro.ml.gradient_boosting import GradientBoostingRegressor

    dataset = build_dataset(args.dataset, seed=0)
    estimator = ResourceEstimator(
        model=GradientBoostingRegressor(
            n_estimators=args.trees, max_depth=args.depth, random_state=0
        )
    )
    start = time.perf_counter()
    advisor = ResourceAdvisor.from_dataset(dataset, estimator=estimator)
    fit_s = time.perf_counter() - start
    X_rows = np.ascontiguousarray(dataset.X_test)

    # Parity first: nothing is recorded unless the served path is
    # byte-identical to local single-request inference, in both modes,
    # under concurrency.
    probe = X_rows[: min(64, len(X_rows))]
    _assert_parity(advisor, probe, micro_batch=True, clients=args.clients)
    _assert_parity(advisor, probe, micro_batch=False, clients=args.clients)

    rounds: dict[bool, list[dict]] = {False: [], True: []}
    for _ in range(ROUNDS):
        for micro_batch in (False, True):
            rounds[micro_batch].append(
                _run_round(
                    advisor, X_rows, micro_batch=micro_batch,
                    clients=args.clients, requests=args.requests,
                )
            )
    single = _pool(rounds[False], micro_batch=False, clients=args.clients)
    micro = _pool(rounds[True], micro_batch=True, clients=args.clients)
    speedup = micro["requests_per_s"] / single["requests_per_s"]

    report = {
        "benchmark": "online serving throughput and tail latency (PR 8)",
        "config": {
            "dataset": args.dataset,
            "n_estimators": args.trees,
            "max_depth": args.depth,
            "clients": args.clients,
            "requests_per_client": args.requests,
            "rounds": ROUNDS,
            "fit_s": fit_s,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "single_flight": single,
        "micro_batched": micro,
        "speedup": speedup,
        "parity": "byte-identical (asserted concurrently in both modes before timing)",
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(
        f"single-flight {single['requests_per_s']:.0f} req/s "
        f"(p50 {single['latency_ms']['p50']:.2f} ms, "
        f"p99 {single['latency_ms']['p99']:.2f} ms) | "
        f"micro-batched {micro['requests_per_s']:.0f} req/s "
        f"(p50 {micro['latency_ms']['p50']:.2f} ms, "
        f"p99 {micro['latency_ms']['p99']:.2f} ms, "
        f"mean {micro['batcher']['requests_per_batch_mean']:.1f} req/traversal) | "
        f"speedup {speedup:.2f}x"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
