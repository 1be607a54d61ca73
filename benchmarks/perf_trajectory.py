"""Perf-trajectory artifact for the GB fit and predict engines.

Times the paper's deployed Gradient Boosting configuration (750 trees,
depth 10 by default) end to end:

- **fit**: the exact split-search engine vs the histogram-binned one
  (``tree_method="hist"``).  The two fits are *interleaved* — each repeat
  runs one cold exact fit then one cold hist fit — so slow-box noise hits
  both engines alike and the reported best-of ratio is robust; the hist
  engine's training-set R² is recorded next to the exact engine's to pin
  the quality cost of binning.
- **predict**: the historical per-tree object path vs the packed flat-array
  engine (cold = first call, including the one-off traversal-table build;
  warm = steady state) at 1 row, 8 rows, the test split and the full pool.
  The 1-row case is the advisor's question path, where the packed engine's
  fixed per-call cost dominates.  Bit-parity between the two predict paths
  is asserted on every batch before anything is recorded.

Measurements land in a JSON artifact (``BENCH_PR6.json`` by convention).
CI runs this from the memo-service job, uploads the JSON, and enforces the
hist-fit speedup floor and the 1-row predict speedup floor, both ratios
measured within one run, building a perf trajectory across PRs; run it
locally with::

    PYTHONPATH=src python benchmarks/perf_trajectory.py --output BENCH_PR6.json

The ``--trees/--depth/--repeats/--fit-repeats`` flags shrink the experiment
for quick smoke runs (e.g. ``--trees 50 --repeats 1 --fit-repeats 1``).
"""

from __future__ import annotations

import argparse
import json
import pickle
import platform
import sys
import time

import numpy as np


def _best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _object_path_predict(gb, X: np.ndarray) -> np.ndarray:
    """The historical per-tree prediction loop (the pre-packed code path)."""
    preds = np.full(X.shape[0], gb.init_)
    for tree in gb.estimators_:
        preds += gb.learning_rate * tree.predict(X)
    return preds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_PR6.json", help="JSON artifact path")
    parser.add_argument("--trees", type=int, default=750, help="GB n_estimators")
    parser.add_argument("--depth", type=int, default=10, help="GB max_depth")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (best-of)")
    parser.add_argument(
        "--fit-repeats",
        type=int,
        default=3,
        help="interleaved exact/hist cold-fit repeats (best-of)",
    )
    parser.add_argument("--dataset", default="aurora", help="dataset name (Table 1)")
    args = parser.parse_args(argv)

    from repro.data.datasets import build_dataset
    from repro.ml.gradient_boosting import GradientBoostingRegressor
    from repro.ml.metrics import r2_score
    from repro.parallel.cache import clear_caches

    dataset = build_dataset(args.dataset, seed=0)
    X_train, y_train = dataset.X_train, dataset.y_train
    X_test = np.ascontiguousarray(dataset.X_test)
    X_pool = np.ascontiguousarray(np.vstack([dataset.X_train, dataset.X_test]))

    def make_model(tree_method="exact"):
        return GradientBoostingRegressor(
            n_estimators=args.trees,
            max_depth=args.depth,
            random_state=0,
            tree_method=tree_method,
        )

    # ------------------------------------------------------------------ fit
    # Interleave the engines: one cold exact fit then one cold hist fit per
    # repeat, so box-level noise (CI neighbours, thermal swings) degrades
    # both the same way instead of biasing whichever ran in the bad window.
    fit_times: dict[str, list[float]] = {"exact": [], "hist": []}
    models: dict[str, GradientBoostingRegressor] = {}
    for _ in range(args.fit_repeats):
        for method in ("exact", "hist"):
            clear_caches()
            start = time.perf_counter()
            models[method] = make_model(method).fit(X_train, y_train)
            fit_times[method].append(time.perf_counter() - start)
    gb = models["exact"]
    fit_cold_s = fit_times["exact"][0]
    start = time.perf_counter()
    make_model().fit(X_train, y_train)  # presort cache now hot
    fit_warm_s = time.perf_counter() - start

    exact_best = min(fit_times["exact"])
    hist_best = min(fit_times["hist"])
    fit_engines = {
        "exact": {"cold_s": fit_times["exact"], "best_s": exact_best},
        "hist": {"cold_s": fit_times["hist"], "best_s": hist_best},
        "hist_speedup": exact_best / hist_best,
        "train_r2": {
            method: float(r2_score(y_train, model.predict(X_train)))
            for method, model in models.items()
        },
        "test_r2": {
            method: float(r2_score(dataset.y_test, model.predict(X_test)))
            for method, model in models.items()
        },
    }

    # ------------------------------------------------------------------ predict
    # Cold packed predict pays the one-off arena + traversal-table build.
    start = time.perf_counter()
    gb.predict(X_test)
    predict_packed_cold_s = time.perf_counter() - start

    batches = {
        "rows1": X_test[:1],
        "rows8": X_test[:8],
        "test_split": X_test,
        "full_pool": X_pool,
    }
    for name, X in batches.items():
        if not np.array_equal(gb.predict(X), _object_path_predict(gb, X)):
            raise SystemExit(f"parity violation: packed != per-tree object path ({name})")

    predict = {}
    for name, X in batches.items():
        object_s = _best_of(lambda X=X: _object_path_predict(gb, X), args.repeats)
        packed_s = _best_of(lambda X=X: gb.predict(X), args.repeats)
        predict[name] = {
            "n_samples": int(X.shape[0]),
            "object_path_s": object_s,
            "packed_s": packed_s,
            "speedup": object_s / packed_s,
        }

    # ------------------------------------------------------------------ payloads
    packed_blob = len(pickle.dumps(gb, protocol=pickle.HIGHEST_PROTOCOL))
    object_state = dict(gb.__dict__)
    object_state.pop("_packed", None)
    object_blob = len(pickle.dumps(object_state, protocol=pickle.HIGHEST_PROTOCOL))

    report = {
        "benchmark": "histogram-binned GB fit engine (PR 6)",
        "config": {
            "dataset": args.dataset,
            "n_estimators": args.trees,
            "max_depth": args.depth,
            "repeats": args.repeats,
            "fit_repeats": args.fit_repeats,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "fit": {"cold_s": fit_cold_s, "warm_s": fit_warm_s, "engines": fit_engines},
        "predict": predict,
        "predict_packed_cold_s": predict_packed_cold_s,
        "pickle_payload_bytes": {
            "packed": packed_blob,
            "object_graph": object_blob,
            "ratio": packed_blob / object_blob,
        },
        "parity": "byte-identical (asserted on 1 row, 8 rows, test split and full pool)",
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    deploy = predict["test_split"]
    rows1 = predict["rows1"]
    print(
        f"fit exact {exact_best:.2f}s -> hist {hist_best:.2f}s "
        f"({fit_engines['hist_speedup']:.2f}x, best of {args.fit_repeats} interleaved) | "
        f"predict[test_split] object {deploy['object_path_s']:.4f}s -> "
        f"packed {deploy['packed_s']:.4f}s ({deploy['speedup']:.2f}x) | "
        f"predict[rows1] object {rows1['object_path_s'] * 1e3:.2f}ms -> "
        f"packed {rows1['packed_s'] * 1e3:.3f}ms ({rows1['speedup']:.0f}x) | "
        f"payload {packed_blob}/{object_blob} bytes "
        f"({report['pickle_payload_bytes']['ratio']:.2f}x)"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
