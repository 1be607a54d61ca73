"""Command-line interface: ``repro-chem``.

Sub-commands
------------
``generate-data``
    Simulate a paper-sized CCSD performance dataset and write it to CSV.
``simulate``
    Run a single CCSD-iteration experiment for one configuration.
``ask``
    Train a runtime model and answer the shortest-time or budget question
    for a problem size.
``compare-models``
    Run the nine-model / three-search comparison (Figures 1–2).
``active-learn``
    Run an active-learning campaign (Figures 3–6).
``memo-serve``
    Serve a disk memo store over TCP so multiple processes/hosts share one
    memo (point runs at it with ``--memo-dir memo://host:port``).
``cluster-work``
    Run a cluster worker agent: dial a run's ``cluster://host:port``
    dispatcher and execute its ``ParallelMap`` task batches (the run sets
    ``REPRO_EXECUTOR=cluster`` and ``REPRO_CLUSTER_URL``).
``cluster-status``
    Print a running dispatcher's scheduling counters as JSON, from outside
    the run (observer endpoint; no worker registration).
``serve``
    Keep fitted runtime models hot behind a socket and answer
    prediction/advisor queries online (micro-batched packed prediction;
    warm-loads from / publishes to a model registry; registry aliases
    route lazily with an LRU cap, and overload sheds past
    ``--max-inflight``).
``query``
    Fire predict/stq/bq/health/stats/fleet-stats queries at a running
    ``serve`` process — or a fleet of them (repeat ``--url``; requests
    hash across replicas with failover).  ``fleet-stats``
    scrapes every replica's versioned telemetry snapshot over the wire.
``trace``
    Inspect recorded trace spans: ``trace top`` ranks the slowest traces,
    ``trace show`` reconstructs one trace's span tree with per-hop
    timings.  Spans come from ``--trace-dir`` JSONL sinks (written by
    servers/workers started with tracing on) and/or live replica
    telemetry (``--url``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from repro._version import __version__

__all__ = ["main", "build_parser"]


def _jobs_spec(value: str) -> int:
    n = int(value)
    if n == 0:
        raise argparse.ArgumentTypeError("--jobs must not be 0 (use 1 for serial, -1 for all CPUs).")
    return n


def _add_memo_dir_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memo-dir",
        default=os.environ.get("REPRO_MEMO_DIR") or None,
        help=(
            "Cross-process memo store: a directory ('~' is expanded) or a "
            "memo://host:port service URL (default: $REPRO_MEMO_DIR). Workers "
            "and successive runs share candidate evaluations through it, and "
            "interrupted sweeps resume; results are identical with or without it."
        ),
    )


def _activate_memo_store(args: argparse.Namespace) -> Optional[dict]:
    """Activate the memo store and return its baseline counters.

    The store's stats snapshots persist across runs (that is what makes
    them aggregate across a pool); the baseline lets the end-of-run
    summary report *this run's* activity rather than store-lifetime
    totals.
    """
    if not getattr(args, "memo_dir", None):
        return None
    from repro.parallel.store import configure_store

    store = configure_store(args.memo_dir)
    agg = store.aggregated_stats()
    return {"store": dict(agg["store"]), "fits": agg["fits"]}


def _print_memo_summary(baseline: Optional[dict]) -> None:
    from repro.parallel.store import get_store

    store = get_store()
    if store is None:
        return
    agg = store.aggregated_stats()
    base = baseline or {"store": {}, "fits": 0}
    delta = {
        name: max(0, agg["store"][name] - base["store"].get(name, 0))
        for name in ("hits", "misses", "puts")
    }
    fits = max(0, agg["fits"] - base["fits"])
    print(
        f"[memo] dir={store.location} hits={delta['hits']} misses={delta['misses']} "
        f"puts={delta['puts']} objects={agg['store']['objects']} fits={fits} (this run)"
    )


def _add_trace_dir_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-dir",
        default=os.environ.get("REPRO_TRACE_DIR") or None,
        metavar="DIR",
        help=(
            "Enable request tracing and append finished spans to "
            "DIR/trace-<pid>.jsonl (default: $REPRO_TRACE_DIR; unset "
            "disables tracing). Tracing never changes answered bytes; "
            "seed trace ids with $REPRO_TRACE_SEED for reproducible runs."
        ),
    )


def _configure_tracing(args: argparse.Namespace) -> None:
    if getattr(args, "trace_dir", None):
        from repro.obs.trace import configure_tracing

        configure_tracing(trace_dir=args.trace_dir)


def _add_wire_robustness_options(parser: argparse.ArgumentParser) -> None:
    """The frame-scaffolding knobs every framed server exposes."""
    parser.add_argument(
        "--conn-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "Per-connection socket timeout: a client that stays silent or "
            "stalls mid-frame this long is disconnected and its handler "
            "thread reclaimed (default: 300; 0 disables). Healthy idle "
            "clients transparently reconnect on their next operation."
        ),
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=None,
        metavar="N",
        help=(
            "Cap on concurrently open client connections; arrivals past the "
            "cap are shed (closed immediately) instead of queueing handler "
            "threads unboundedly (default: 128; 0 disables)."
        ),
    )


def _wire_kwargs(args: argparse.Namespace) -> dict:
    """Map the CLI robustness flags onto FrameService keyword arguments."""
    kwargs = {}
    if args.conn_timeout is not None:
        kwargs["timeout"] = args.conn_timeout
    if args.max_connections is not None:
        kwargs["max_connections"] = args.max_connections
    return kwargs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chem",
        description="ML-guided estimation of computational resources for CCSD computations.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate-data", help="Generate a CCSD performance dataset CSV.")
    p_gen.add_argument("--machine", choices=["aurora", "frontier"], default="aurora")
    p_gen.add_argument("--output", required=True, help="Output CSV path.")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--rows", type=int, default=None, help="Dataset size (default: paper size).")

    p_sim = sub.add_parser("simulate", help="Simulate one CCSD iteration.")
    p_sim.add_argument("--machine", choices=["aurora", "frontier"], default="aurora")
    p_sim.add_argument("-O", "--occupied", type=int, required=True)
    p_sim.add_argument("-V", "--virtual", type=int, required=True)
    p_sim.add_argument("--nodes", type=int, required=True)
    p_sim.add_argument("--tile", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)

    p_ask = sub.add_parser("ask", help="Answer the shortest-time or budget question.")
    p_ask.add_argument("question", choices=["stq", "bq"])
    p_ask.add_argument("--machine", choices=["aurora", "frontier"], default="aurora")
    p_ask.add_argument("-O", "--occupied", type=int, required=True)
    p_ask.add_argument("-V", "--virtual", type=int, required=True)
    p_ask.add_argument("--seed", type=int, default=0)
    p_ask.add_argument("--preset", choices=["fast", "paper"], default="fast")
    p_ask.add_argument("--top", type=int, default=5, help="Show the top-K configurations.")

    p_cmp = sub.add_parser("compare-models", help="Nine-model / three-search comparison.")
    p_cmp.add_argument("--machine", choices=["aurora", "frontier"], default="aurora")
    p_cmp.add_argument("--models", nargs="*", default=None, help="Subset of model keys.")
    p_cmp.add_argument("--scale", choices=["fast", "paper"], default="fast")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--max-train", type=int, default=600)
    p_cmp.add_argument(
        "--tree-method",
        choices=["exact", "hist"],
        default="exact",
        help="Split-search engine for the tree-based models (DT/GB).",
    )
    p_cmp.add_argument(
        "--jobs",
        type=_jobs_spec,
        default=1,
        help="Worker processes (1=serial, -1=all CPUs); results are identical for any value.",
    )
    _add_memo_dir_option(p_cmp)

    p_al = sub.add_parser("active-learn", help="Run an active-learning campaign.")
    p_al.add_argument("--machine", choices=["aurora", "frontier"], default="aurora")
    p_al.add_argument("--strategy", choices=["rs", "us", "qc"], default="us")
    p_al.add_argument("--goal", choices=["none", "stq", "bq"], default="none")
    p_al.add_argument("--n-initial", type=int, default=50)
    p_al.add_argument("--query-size", type=int, default=50)
    p_al.add_argument("--n-queries", type=int, default=10)
    p_al.add_argument("--seed", type=int, default=0)
    p_al.add_argument(
        "--jobs",
        type=_jobs_spec,
        default=1,
        help="Worker processes for committee fits (1=serial, -1=all CPUs).",
    )
    _add_memo_dir_option(p_al)

    p_srv = sub.add_parser(
        "memo-serve",
        help="Serve a disk memo store over TCP (memo:// protocol) to remote runs.",
    )
    p_srv.add_argument(
        "--memo-dir",
        required=True,
        help="Disk store directory to serve ('~' expanded, created if missing).",
    )
    p_srv.add_argument("--host", default="127.0.0.1", help="Interface to bind.")
    p_srv.add_argument(
        "--port",
        type=int,
        default=7501,
        help="TCP port to listen on (0 picks a free port; printed at startup).",
    )
    _add_wire_robustness_options(p_srv)
    _add_trace_dir_option(p_srv)

    p_work = sub.add_parser(
        "cluster-work",
        help="Run a cluster worker agent against a run's cluster:// dispatcher.",
        description=(
            "Dial the dispatcher a run hosts (REPRO_EXECUTOR=cluster + "
            "REPRO_CLUSTER_URL=cluster://host:port on the run side) and execute "
            "its ParallelMap task batches. Point --memo-dir at the same "
            "memo://host:port store as the run so the fleet shares candidate "
            "evaluations. Workers may start before the dispatcher exists; they "
            "retry until it appears, and exit once it has been unreachable for "
            "--idle-exit seconds."
        ),
    )
    p_work.add_argument(
        "--dispatcher",
        required=True,
        metavar="cluster://HOST:PORT",
        help="Dispatcher URL of the run to serve (its REPRO_CLUSTER_URL).",
    )
    p_work.add_argument(
        "--name",
        default=None,
        help="Worker name prefix shown in dispatcher stats (default: host-pid).",
    )
    p_work.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="Delay between polls while the dispatcher has no work.",
    )
    p_work.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help=(
            "Heartbeat period while busy; must stay well under the run's "
            "REPRO_CLUSTER_HEARTBEAT dead-worker threshold (default 10)."
        ),
    )
    p_work.add_argument(
        "--idle-exit",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help=(
            "Exit after the dispatcher has been unreachable this long "
            "(lets a fleet drain itself after the run ends)."
        ),
    )
    p_work.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        help="Exit after running this many tasks (mostly for tests).",
    )
    _add_memo_dir_option(p_work)
    _add_trace_dir_option(p_work)

    p_serve = sub.add_parser(
        "serve",
        help="Serve a fitted runtime model online (micro-batched packed prediction).",
    )
    p_serve.add_argument("--machine", choices=["aurora", "frontier"], default="aurora")
    p_serve.add_argument("--preset", choices=["fast", "paper"], default="fast")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--rows", type=int, default=None, help="Dataset size for the fit (default: paper size)."
    )
    p_serve.add_argument(
        "--trees", type=int, default=None, help="Override GB n_estimators (default: preset)."
    )
    p_serve.add_argument(
        "--depth", type=int, default=None, help="Override GB max_depth (default: preset)."
    )
    p_serve.add_argument(
        "--tree-method",
        choices=["exact", "hist"],
        default="exact",
        help="Split-search engine for the GB fit (hist cuts cold-start fit time).",
    )
    p_serve.add_argument(
        "--registry",
        default=os.environ.get("REPRO_MODEL_REGISTRY") or None,
        help=(
            "Model registry directory (default: $REPRO_MODEL_REGISTRY). When set, "
            "the server warm-loads the named artifact instead of refitting, and "
            "publishes fresh fits back, so restarts skip the fit entirely."
        ),
    )
    p_serve.add_argument(
        "--model-name",
        default=None,
        help="Registry alias to serve (default: derived from machine/preset/seed).",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="Interface to bind.")
    p_serve.add_argument(
        "--port",
        type=int,
        default=7601,
        help="TCP port to listen on (0 picks a free port; printed at startup).",
    )
    p_serve.add_argument(
        "--single-flight",
        action="store_true",
        help="Disable micro-batching: one model call per request (benchmark baseline).",
    )
    p_serve.add_argument(
        "--max-models",
        type=int,
        default=None,
        metavar="N",
        help=(
            "LRU cap on registry-routed resident models (the explicitly "
            "served model is pinned and never evicted); evicted aliases "
            "reload on their next request. Default: unlimited."
        ),
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "Bound on concurrently processing predict/ask requests; past "
            "it, requests are shed with a retryable 'overloaded' error "
            "instead of queueing unboundedly. Default: unbounded."
        ),
    )
    # Inert: every served model is process-private.  Still parsed because
    # perfbench/bench_serve.py passes it.
    p_serve.add_argument("--private-arenas", action="store_true", help=argparse.SUPPRESS)
    p_serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "Log one structured line (trace id + per-hop breakdown, JSON, "
            "stderr) for every request slower than MS milliseconds, "
            "rate-limited to one line per second. Default: off."
        ),
    )
    _add_wire_robustness_options(p_serve)
    _add_trace_dir_option(p_serve)

    p_query = sub.add_parser(
        "query", help="Query a running `repro-chem serve` server."
    )
    p_query.add_argument(
        "action",
        choices=["predict", "stq", "bq", "health", "stats", "fleet-stats", "ping"],
    )
    p_query.add_argument(
        "--url",
        action="append",
        default=None,
        help=(
            "Server URL; repeat the flag (or comma-separate) for a fleet of "
            "replicas — requests hash across them with failover "
            "(default: $REPRO_SERVE_URL or serve://127.0.0.1:7601)."
        ),
    )
    p_query.add_argument("--model", default="default", help="Served model name.")
    p_query.add_argument(
        "--features",
        action="append",
        default=None,
        metavar="O,V,NODES,TILE",
        help="One feature row per flag (repeatable); required for predict.",
    )
    p_query.add_argument("-O", "--occupied", type=int, default=None)
    p_query.add_argument("-V", "--virtual", type=int, default=None)
    p_query.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="Per-socket-operation timeout in seconds (default: 10).",
    )
    p_query.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help=(
            "Extra fleet-wide retry rounds (jittered backoff) when every "
            "replica is unreachable or overloaded; seed the jitter with "
            "$REPRO_RETRY_SEED for reproducible timing. Default: 1."
        ),
    )

    p_cstat = sub.add_parser(
        "cluster-status",
        help="Print a running cluster dispatcher's scheduling counters.",
        description=(
            "Dial a run's cluster://host:port dispatcher as an observer and "
            "print its stats (workers, queue depths, batches, redispatches) "
            "as JSON — from outside the run, without registering as a worker."
        ),
    )
    p_cstat.add_argument(
        "--dispatcher",
        default=os.environ.get("REPRO_CLUSTER_URL") or None,
        metavar="cluster://HOST:PORT",
        help="Dispatcher URL (default: $REPRO_CLUSTER_URL).",
    )
    p_cstat.add_argument("--timeout", type=float, default=5.0)
    p_cstat.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "Extra re-dials (jittered backoff) when the dispatcher is "
            "unreachable. Default: 0 (one shot)."
        ),
    )

    p_trace = sub.add_parser(
        "trace",
        help="Inspect recorded trace spans (span trees, slowest traces).",
        description=(
            "Read finished spans from a trace directory's JSONL sinks "
            "(written by servers started with --trace-dir / "
            "$REPRO_TRACE_DIR) and/or from live replica telemetry "
            "(--url), then reconstruct traces. 'top' ranks the slowest "
            "traces; 'show' prints one trace's span tree with per-hop "
            "timing breakdowns."
        ),
    )
    p_trace.add_argument("action", choices=["show", "top"])
    p_trace.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        help="Trace id for 'show' (default: the slowest recorded trace).",
    )
    p_trace.add_argument(
        "--trace-dir",
        default=os.environ.get("REPRO_TRACE_DIR") or None,
        metavar="DIR",
        help="Directory holding trace-<pid>.jsonl sinks (default: $REPRO_TRACE_DIR).",
    )
    p_trace.add_argument(
        "--url",
        action="append",
        default=None,
        help=(
            "Also scrape the recent-span ring of a live serve replica's "
            "telemetry endpoint; repeatable."
        ),
    )
    p_trace.add_argument(
        "-n",
        "--limit",
        type=int,
        default=3,
        metavar="N",
        help="How many traces 'top' lists (default: 3).",
    )
    p_trace.add_argument("--timeout", type=float, default=5.0)

    return parser


def _cmd_generate_data(args: argparse.Namespace) -> int:
    from repro.data.datasets import build_dataset
    from repro.data.io import write_csv

    dataset = build_dataset(args.machine, seed=args.seed, n_total=args.rows)
    path = write_csv(dataset.table, args.output)
    print(f"Wrote {dataset.n_rows} rows ({dataset.n_train} train / {dataset.n_test} test) to {path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulator import run_ccsd_iteration
    from repro.tamm.runtime import InfeasibleConfigurationError

    try:
        exp = run_ccsd_iteration(
            args.machine, args.occupied, args.virtual, args.nodes, args.tile, rng=args.seed
        )
    except InfeasibleConfigurationError as exc:
        print(f"Infeasible configuration: {exc}", file=sys.stderr)
        return 1
    b = exp.breakdown
    print(
        f"machine={exp.machine} O={exp.n_occupied} V={exp.n_virtual} "
        f"nodes={exp.n_nodes} tile={exp.tile_size}"
    )
    print(f"runtime: {exp.runtime_s:.2f} s   node-hours: {exp.node_hours:.3f}")
    print(
        "breakdown: "
        f"compute={b.compute_time:.2f}s comm={b.comm_time:.2f}s overhead={b.overhead_time:.2f}s "
        f"imbalance={b.imbalance_time:.2f}s fixed={b.fixed_time:.2f}s tasks={b.n_tasks}"
    )
    return 0


def _cmd_ask(args: argparse.Namespace) -> int:
    from repro.core.advisor import ResourceAdvisor
    from repro.data.datasets import build_dataset

    print(f"Building {args.machine} dataset and training the runtime model...", flush=True)
    dataset = build_dataset(args.machine, seed=args.seed)
    advisor = ResourceAdvisor.from_dataset(dataset, preset=args.preset)
    answer = advisor.answer(args.question, args.occupied, args.virtual)
    objective = "runtime" if args.question == "stq" else "node_hours"
    print(
        f"{args.question.upper()} answer for (O={args.occupied}, V={args.virtual}) on {args.machine}: "
        f"nodes={answer.n_nodes}, tile={answer.tile_size}, "
        f"predicted runtime={answer.predicted_runtime_s:.2f} s, "
        f"predicted node-hours={answer.predicted_node_hours:.3f}"
    )
    table = advisor.ranked_configurations(
        args.occupied, args.virtual, objective=objective, top_k=args.top
    )
    print("Top configurations:")
    for rec in table.to_records():
        print(
            f"  nodes={int(rec['n_nodes']):4d} tile={int(rec['tile_size']):4d} "
            f"runtime={rec['predicted_runtime_s']:.2f}s node-hours={rec['predicted_node_hours']:.3f}"
        )
    return 0


def _cmd_compare_models(args: argparse.Namespace) -> int:
    from repro.core.hyperopt import run_model_comparison
    from repro.core.reporting import format_model_comparison
    from repro.data.datasets import build_dataset

    memo_baseline = _activate_memo_store(args)
    dataset = build_dataset(args.machine, seed=args.seed)
    results = run_model_comparison(
        dataset,
        models=args.models,
        scale=args.scale,
        seed=args.seed,
        max_train_samples=args.max_train,
        n_jobs=args.jobs,
        tree_method=args.tree_method,
    )
    print(format_model_comparison(results))
    best = max(results, key=lambda r: r.r2)
    print(f"\nBest: {best.model} via {best.search} (R2={best.r2:.4f}, MAPE={best.mape:.4f})")
    _print_memo_summary(memo_baseline)
    return 0


def _cmd_active_learn(args: argparse.Namespace) -> int:
    from repro.core.active_learning import ActiveLearningConfig, run_active_learning
    from repro.core.reporting import format_active_learning_curves
    from repro.data.datasets import build_dataset

    memo_baseline = _activate_memo_store(args)
    dataset = build_dataset(args.machine, seed=args.seed)
    goal = None if args.goal == "none" else args.goal
    config = ActiveLearningConfig(
        n_initial=args.n_initial,
        query_size=args.query_size,
        n_queries=args.n_queries,
        random_state=args.seed,
        goal=goal,
        n_jobs=args.jobs,
    )
    result = run_active_learning(
        dataset.X_train,
        dataset.y_train,
        args.strategy,
        config,
        X_test=dataset.X_test,
        y_test=dataset.y_test,
    )
    print(format_active_learning_curves([result], metric="mape", use_goal=goal is not None))
    final = result.final_metrics()
    print("\nFinal:", ", ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in final.items()))
    _print_memo_summary(memo_baseline)
    return 0


def _cmd_cluster_work(args: argparse.Namespace) -> int:
    from repro.parallel.backend import mark_worker_process
    from repro.parallel.cluster import ClusterWorker
    from repro.parallel.store import configure_store

    # A cluster worker is a worker process: tasks that internally fan out
    # (forest fits, CV loops) must run their inner regions serially instead
    # of recursing into a pool or back into the cluster.
    mark_worker_process()
    configure_store(args.memo_dir)
    _configure_tracing(args)
    worker = ClusterWorker(
        args.dispatcher,
        name=args.name,
        poll_interval=args.poll_interval,
        heartbeat_interval=args.heartbeat_interval,
        reconnect_window=args.idle_exit,
        max_tasks=args.max_tasks,
    )
    # The exact "serving <url>" line is the startup handshake scripts wait
    # for — same convention as memo-serve/serve (no ephemeral port to parse
    # here; the worker dials out).
    print(
        f"cluster-work: worker={worker.name} serving {worker.url} "
        f"(memo={args.memo_dir or 'off'})",
        flush=True,
    )
    try:
        tasks_done = worker.run()
    except KeyboardInterrupt:
        worker.stop()
        tasks_done = worker.tasks_done
        print("cluster-work: interrupted, shutting down", flush=True)
    print(f"cluster-work: exiting after {tasks_done} tasks", flush=True)
    return 0


def _cmd_memo_serve(args: argparse.Namespace) -> int:
    from repro.parallel.service import MemoServer

    _configure_tracing(args)
    server = MemoServer(
        args.memo_dir, host=args.host, port=args.port, **_wire_kwargs(args)
    )
    # The exact "listening on memo://host:port" line is the startup handshake
    # scripts wait for (and parse the ephemeral port from, with --port 0).
    print(
        f"memo-serve: dir={server.store.location} listening on {server.url}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("memo-serve: interrupted, shutting down", flush=True)
    finally:
        server.shutdown()
    return 0


def _serve_model_name(args: argparse.Namespace) -> str:
    """Default registry alias: the fit is a pure function of these knobs."""
    if args.model_name:
        return args.model_name
    name = f"{args.machine}-{args.preset}-seed{args.seed}"
    if args.trees is not None or args.depth is not None:
        name += f"-gb{args.trees or 'p'}x{args.depth or 'p'}"
    if args.rows is not None:
        name += f"-rows{args.rows}"
    if getattr(args, "tree_method", "exact") != "exact":
        # Hist-fitted trees are not guaranteed byte-identical to exact ones,
        # so the artifacts get distinct registry aliases.
        name += f"-{args.tree_method}"
    return name


def _serve_fit_advisor(args: argparse.Namespace):
    """Fit the advisor the ``serve`` subcommand hosts (no registry involved)."""
    from repro.core.advisor import ResourceAdvisor
    from repro.core.estimator import (
        FAST_GB_PARAMS,
        PAPER_GB_PARAMS,
        ResourceEstimator,
    )
    from repro.data.datasets import build_dataset

    dataset = build_dataset(args.machine, seed=args.seed, n_total=args.rows)
    estimator = None
    # Scripted callers (tests, CI snippets) build bare Namespaces; missing
    # knobs mean the exact-engine default.
    tree_method = getattr(args, "tree_method", "exact")
    if args.trees is not None or args.depth is not None or tree_method != "exact":
        from repro.ml.gradient_boosting import GradientBoostingRegressor

        params = dict(PAPER_GB_PARAMS if args.preset == "paper" else FAST_GB_PARAMS)
        if args.trees is not None:
            params["n_estimators"] = args.trees
        if args.depth is not None:
            params["max_depth"] = args.depth
        if tree_method != "exact":
            params["tree_method"] = tree_method
        # random_state=0 matches what ResourceEstimator builds by default,
        # so a --trees/--depth fit is reproducible from its name alone.
        estimator = ResourceEstimator(
            model=GradientBoostingRegressor(random_state=0, **params)
        )
    return ResourceAdvisor.from_dataset(
        dataset, estimator=estimator, preset=args.preset
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ModelRegistry, ServeServer

    _configure_tracing(args)
    name = _serve_model_name(args)
    registry = ModelRegistry(args.registry) if args.registry else None
    advisor = None
    digest = None
    if registry is not None:
        # warm=False: ServeServer warms every model it hosts, so warming
        # here too would repeat the work.
        loaded = registry.load_with_digest(name, warm=False)
        if loaded is not None:
            digest, advisor = loaded
            print(
                f"serve: warm-loaded model={name} digest={digest[:12]} "
                f"from {registry.location}",
                flush=True,
            )
    if advisor is None:
        print(
            f"serve: fitting model={name} (machine={args.machine}, preset={args.preset})...",
            flush=True,
        )
        advisor = _serve_fit_advisor(args)
        if registry is not None:
            digest = registry.publish(
                advisor,
                name=name,
                meta={
                    "machine": args.machine,
                    "preset": args.preset,
                    "seed": args.seed,
                    "rows": args.rows,
                    "trees": args.trees,
                    "depth": args.depth,
                    "tree_method": args.tree_method,
                },
            )
            print(
                f"serve: published model={name} digest={digest[:12]} "
                f"to {registry.location}",
                flush=True,
            )
    server = ServeServer(
        {name: advisor, "default": advisor},
        host=args.host,
        port=args.port,
        micro_batch=not args.single_flight,
        registry=registry,
        max_models=args.max_models,
        max_inflight=args.max_inflight,
        model_digests=(
            {name: digest, "default": digest} if digest is not None else None
        ),
        slow_ms=args.slow_ms,
        **_wire_kwargs(args),
    )
    mode = "single-flight" if args.single_flight else "micro-batch"
    # The exact "listening on serve://host:port" line is the startup
    # handshake scripts wait for (and parse the ephemeral port from, with
    # --port 0) — same convention as memo-serve.
    print(
        f"serve: model={name} mode={mode} listening on {server.url}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("serve: interrupted, shutting down", flush=True)
    finally:
        server.shutdown()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient, ServeError

    urls = args.url or [
        os.environ.get("REPRO_SERVE_URL") or "serve://127.0.0.1:7601"
    ]
    try:
        client = ServeClient(
            ",".join(urls), timeout=args.timeout, retries=max(0, args.retries)
        )
    except ValueError as exc:
        # A malformed URL is a configuration typo: same clean one-line
        # contract as an unreachable server, not a traceback.
        print(f"query: {exc}", file=sys.stderr)
        return 2
    fleet = ",".join(client.urls)
    try:
        if args.action == "fleet-stats":
            docs = client.fleet_telemetry(timeout=args.timeout)
            report = {}
            dead = []
            for url, doc in docs.items():
                if isinstance(doc, dict) and "schema_version" in doc:
                    # The full snapshot minus the span ring: counters and
                    # histograms are the fleet-stats payload; spans belong
                    # to `repro-chem trace`.
                    report[url] = {k: v for k, v in doc.items() if k != "spans"}
                else:
                    dead.append(f"{url}: {doc.get('error', 'unreachable')}")
            if report:
                print(json.dumps(report, indent=2, sort_keys=True))
            if dead:
                # Dead or pre-observability replicas: clean one-line
                # report and a non-zero exit, never a traceback — the
                # reachable replicas' stats still printed above.
                print(f"query: fleet-stats: {'; '.join(dead)}", file=sys.stderr)
                return 1
            return 0
        if args.action == "ping":
            ok = client.ping()
            print(f"{fleet}: {'ok' if ok else 'no response'}")
            return 0 if ok else 1
        if args.action in ("health", "stats"):
            doc = client.health() if args.action == "health" else client.stats()
            print(json.dumps(doc, indent=2))
            return 0
        if args.action == "predict":
            if not args.features:
                print(
                    "query predict needs at least one --features O,V,NODES,TILE",
                    file=sys.stderr,
                )
                return 2
            try:
                rows = [[float(x) for x in spec.split(",")] for spec in args.features]
            except ValueError:
                print(
                    f"could not parse --features {args.features!r} as numeric rows",
                    file=sys.stderr,
                )
                return 2
            if len({len(row) for row in rows}) > 1:
                print(
                    "every --features row must have the same number of values",
                    file=sys.stderr,
                )
                return 2
            y = client.predict(rows, model=args.model)
            for spec, pred in zip(args.features, y):
                print(f"predict({spec}) = {pred} s")
            return 0
        # stq / bq
        if args.occupied is None or args.virtual is None:
            print(f"query {args.action} needs -O and -V", file=sys.stderr)
            return 2
        answer = client.ask(args.action, args.occupied, args.virtual, model=args.model)
        print(
            f"{args.action.upper()} answer for (O={args.occupied}, V={args.virtual}): "
            f"nodes={answer['n_nodes']}, tile={answer['tile_size']}, "
            f"predicted runtime={answer['predicted_runtime_s']:.2f} s, "
            f"predicted node-hours={answer['predicted_node_hours']:.3f}"
        )
        return 0
    except ServeError as exc:
        # Dead server, protocol failure or request error: the contract is a
        # clean message and a non-zero exit, never a traceback or a hang.
        print(f"query: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    from repro.parallel.cluster import dispatcher_status
    from repro.parallel.wire import ProtocolError

    if not args.dispatcher:
        print(
            "cluster-status needs --dispatcher cluster://HOST:PORT "
            "(or $REPRO_CLUSTER_URL)",
            file=sys.stderr,
        )
        return 2
    try:
        stats = dispatcher_status(
            args.dispatcher, timeout=args.timeout, retries=max(0, args.retries)
        )
    except (OSError, ProtocolError, ValueError) as exc:
        # Dead run, typo'd URL or a non-dispatcher service: clean message
        # and non-zero exit, never a traceback.
        print(f"cluster-status: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(stats, indent=2))
    return 0


def _load_trace_spans(
    trace_dir: Optional[str], urls: Optional[Sequence[str]], timeout: float
) -> list[dict]:
    """Collect span dicts from JSONL sinks and/or live replica telemetry.

    Torn tail lines (a sink killed mid-write) and junk files read as no
    spans, never as a crash; duplicate spans (a span present both in a
    sink and a replica's ring) are dropped by span id.
    """
    spans: list[dict] = []
    if trace_dir:
        import glob

        for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.jsonl"))):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    lines = fh.readlines()
            except OSError:
                continue
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue
                if isinstance(doc, dict) and doc.get("trace_id"):
                    spans.append(doc)
    for url in urls or []:
        from repro.parallel.wire import fetch_telemetry, parse_hostport_url
        from repro.serve.server import SERVE_URL_SCHEME

        host, port = parse_hostport_url(url, SERVE_URL_SCHEME)
        doc = fetch_telemetry(host, port, timeout=timeout)
        for span in doc.get("spans", []):
            if isinstance(span, dict) and span.get("trace_id"):
                spans.append(span)
    seen: set = set()
    unique = []
    for span in spans:
        key = (span.get("trace_id"), span.get("span_id"))
        if key in seen:
            continue
        seen.add(key)
        unique.append(span)
    return unique


def _trace_duration_ms(trace_spans: list[dict]) -> float:
    """A trace's wall time: its slowest span (the root, when present)."""
    return max(
        (1000.0 * (s.get("duration_s") or 0.0) for s in trace_spans), default=0.0
    )


def _format_span_line(span: dict, depth: int) -> str:
    duration = span.get("duration_s")
    line = "  " * depth + f"{span.get('name', '?')}"
    if duration is not None:
        line += f"  {1000.0 * duration:.3f}ms"
    hops = span.get("hops") or {}
    if hops:
        line += "  hops: " + " ".join(
            f"{key}={1000.0 * value:.3f}ms" for key, value in sorted(hops.items())
        )
    tags = span.get("tags") or {}
    if tags:
        line += "  [" + " ".join(f"{k}={v}" for k, v in sorted(tags.items())) + "]"
    return line


def _print_span_tree(trace_spans: list[dict]) -> None:
    by_parent: dict = {}
    ids = {s.get("span_id") for s in trace_spans}
    for span in trace_spans:
        parent = span.get("parent_id")
        # A span whose parent was never recorded (a peer without a sink)
        # roots its own subtree rather than vanishing.
        key = parent if parent in ids else None
        by_parent.setdefault(key, []).append(span)

    def walk(parent_key, depth: int) -> None:
        for span in sorted(
            by_parent.get(parent_key, []), key=lambda s: s.get("t_wall") or 0.0
        ):
            print(_format_span_line(span, depth))
            walk(span.get("span_id"), depth + 1)

    walk(None, 1)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.parallel.wire import ProtocolError

    if not args.trace_dir and not args.url:
        print(
            "trace needs --trace-dir DIR (or $REPRO_TRACE_DIR) and/or --url "
            "serve://HOST:PORT",
            file=sys.stderr,
        )
        return 2
    try:
        spans = _load_trace_spans(args.trace_dir, args.url, args.timeout)
    except (OSError, ProtocolError, ValueError) as exc:
        # Dead replica or typo'd URL: clean one-line non-zero exit.
        print(f"trace: {exc}", file=sys.stderr)
        return 1
    traces: dict[str, list[dict]] = {}
    for span in spans:
        traces.setdefault(span["trace_id"], []).append(span)
    if not traces:
        print("trace: no recorded spans found", file=sys.stderr)
        return 1
    ranked = sorted(
        traces.items(), key=lambda item: _trace_duration_ms(item[1]), reverse=True
    )
    if args.action == "top":
        for trace_id, trace_spans in ranked[: max(1, args.limit)]:
            roots = [s for s in trace_spans if not s.get("parent_id")]
            root_name = (roots or trace_spans)[0].get("name", "?")
            print(
                f"trace {trace_id}  {_trace_duration_ms(trace_spans):.3f}ms  "
                f"spans={len(trace_spans)}  root={root_name}"
            )
        return 0
    # show
    trace_id = args.trace_id or ranked[0][0]
    if trace_id not in traces:
        print(f"trace: no spans recorded for trace id {trace_id!r}", file=sys.stderr)
        return 1
    print(f"trace {trace_id}  ({len(traces[trace_id])} spans)")
    _print_span_tree(traces[trace_id])
    return 0


_DISPATCH = {
    "generate-data": _cmd_generate_data,
    "simulate": _cmd_simulate,
    "ask": _cmd_ask,
    "compare-models": _cmd_compare_models,
    "active-learn": _cmd_active_learn,
    "memo-serve": _cmd_memo_serve,
    "cluster-work": _cmd_cluster_work,
    "cluster-status": _cmd_cluster_status,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "trace": _cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.obs import trace as obs_trace

    np.set_printoptions(precision=4, suppress=True)
    parser = build_parser()
    args = parser.parse_args(argv)
    # The root span of everything this invocation does: a no-op unless
    # tracing is enabled ($REPRO_TRACE_DIR, --trace-dir, or a test's
    # configure_tracing call).
    with obs_trace.span(f"cli.{args.command}"):
        return _DISPATCH[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
