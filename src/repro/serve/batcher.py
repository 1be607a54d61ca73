"""Micro-batching for the online prediction path.

A packed prediction pays a fixed per-*call* cost — input checks,
traversal set-up, one dispatch per depth level, the accumulation kernel —
on top of its per-row work: on a 2-CPU box a GB-750×depth-10 predict of 8
rows takes about 4.4× one row (0.70 ms vs 0.16 ms), not 8×.  Under
concurrent load, a server that makes one predict call per request pays
that fixed cost for every request.  :class:`MicroBatcher` amortises it:
concurrent predict requests queue up, whatever is queued *right now* is
stacked into one matrix, run through **one** packed traversal, and sliced
back to the callers.

Batching is adaptive with zero added latency.  A request that finds the
batcher idle runs its batch on its own (submitting) thread — no hand-off
to another thread and no wake-up to wait for.  Requests that arrive while
a batch is in flight queue up, and the worker thread runs everything
queued as the next batch: every request that arrives during traversal
``k`` rides traversal ``k + 1``.  No timer, no artificial delay tick.  The
``_busy`` lock, held by whichever thread runs a batch, keeps one batch in
flight at a time.

The hard parity bar: a micro-batched prediction is **byte-identical** to
predicting that request alone.  This holds because every prediction path
behind it is row-independent — packed traversal routes each sample by its
own features, and the accumulation (one ``np.add.accumulate`` down the
tree axis, see :func:`repro.ml.packed.running_sums`) applies the same
float-op sequence to each sample's lane regardless of which other rows
share the batch (pinned by ``tests/serve/test_batcher.py``).

Failure containment: requests are shape/finiteness-validated *before* they
enter the queue, so one malformed request fails alone with a clean
``ValueError`` instead of poisoning a whole batch; if the model itself
raises mid-batch, every rider of that batch receives *its own* chained copy
of the error (concurrent re-raises of one shared instance would clobber
each other's ``__traceback__``), the batch still counts into the volume
statistics, and the batcher keeps serving.
"""

from __future__ import annotations

import copy
import queue
import threading
import time
from typing import Any, Callable, Optional

import numpy as np

from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry

__all__ = ["BatcherClosedError", "MicroBatcher"]


class BatcherClosedError(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` once the batcher is closed."""


class _Pending:
    """One queued request: its rows, and a slot the batch runner fills.

    The thread that runs the batch stamps ``t_start``/``t_done`` (batch
    pickup and batch completion) so the *submitter* thread — the one
    holding the request's trace span — can attribute queue wait and
    traversal time to the right hops without any cross-thread context
    propagation.
    """

    __slots__ = ("X", "result", "error", "done", "t_enqueue", "t_start", "t_done")

    def __init__(self, X: np.ndarray) -> None:
        self.X = X
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.done = threading.Event()
        self.t_enqueue = 0.0
        self.t_start = 0.0
        self.t_done = 0.0


class MicroBatcher:
    """Coalesce concurrent predict calls into one batched model call.

    Parameters
    ----------
    predict_fn:
        ``(n, n_features) float64 -> (n,) float64``; must be row-independent
        (every repro prediction path is — see the module docstring).
    n_features:
        Width requests are validated against before queueing.
    max_batch_rows:
        Cap on rows per model call.  A drain stops adding requests once the
        cap is reached; an oversized single request still runs alone (it is
        one caller's batch, not a coalition).
    """

    def __init__(
        self,
        predict_fn: Callable[[np.ndarray], np.ndarray],
        *,
        n_features: int,
        max_batch_rows: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        model: str = "",
    ) -> None:
        if max_batch_rows < 1:
            raise ValueError("max_batch_rows must be >= 1.")
        self._predict = predict_fn
        self.n_features = int(n_features)
        self.max_batch_rows = int(max_batch_rows)
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        # Held by whichever thread runs a batch: at most one in flight.
        self._busy = threading.Lock()
        # Set whenever the worker may have queued requests to run.
        self._wake = threading.Event()
        # Guards the closed-flag/enqueue pair: once the flag is set no
        # request can slip into the queue, so the worker's final drain
        # can never strand a submitter on done.wait().
        self._close_lock = threading.Lock()
        # Guards compound counter updates so stats() reads one consistent
        # batch's worth, exactly as before the typed-registry migration.
        self._stats_lock = threading.Lock()
        # PR 10: counters live on a typed metrics registry — the server
        # passes its own (labelled by model) so the telemetry opcode sees
        # them; a standalone batcher gets a private one.  stats() reads
        # these instruments directly.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        labels = {"model": model} if model else {}
        self._c_requests = self.metrics.counter("batch.requests", **labels)
        self._c_rows = self.metrics.counter("batch.rows", **labels)
        self._c_batches = self.metrics.counter("batch.batches", **labels)
        self._c_errors = self.metrics.counter("batch.errors", **labels)
        self._g_pending = self.metrics.gauge("batch.pending", **labels)
        self._g_batched_max = self.metrics.gauge("batch.batched_requests_max", **labels)
        self._h_queue_wait = self.metrics.histogram(
            "batch.queue_wait_seconds", **labels
        )
        self._h_traverse = self.metrics.histogram("batch.traverse_seconds", **labels)
        self._closed = False
        self._worker = threading.Thread(
            target=self._serve, name="micro-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ client

    def submit(self, X: np.ndarray) -> np.ndarray:
        """Predict rows of ``X``, riding whatever batch forms; blocking.

        Raises ``ValueError`` for malformed input (validated before
        queueing, so bad requests never poison a batch),
        :class:`BatcherClosedError` once the batcher is closed, and
        re-raises whatever the model raised for the batch this request rode.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"Expected shape (n, {self.n_features}), got {X.shape}."
            )
        if X.shape[0] == 0:
            raise ValueError("Empty input array.")
        if not np.all(np.isfinite(X)):
            raise ValueError("Input contains NaN or infinity.")
        pending = _Pending(X)
        with self._close_lock:
            if self._closed:
                raise BatcherClosedError("MicroBatcher is closed.")
            with self._stats_lock:
                self._g_pending.inc()
            pending.t_enqueue = time.perf_counter()
            self._queue.put(pending)
        if self._busy.acquire(blocking=False):
            # Idle: run the batch right here instead of handing off to the
            # worker and waiting for it to wake.
            try:
                self._drain()
            finally:
                self._busy.release()
        else:
            # A batch is in flight: the worker runs this request with
            # everything else queued behind that batch.
            self._wake.set()
        pending.done.wait()
        # Hop attribution happens here, in the submitter thread — the one
        # that owns the request's trace context; whichever thread ran the
        # batch only stamped the pickup/completion times.
        queue_wait = max(0.0, pending.t_start - pending.t_enqueue)
        traverse = max(0.0, pending.t_done - pending.t_start)
        self._h_queue_wait.observe(queue_wait)
        self._h_traverse.observe(traverse)
        obs_trace.annotate("queue_wait", queue_wait)
        obs_trace.annotate("traverse", traverse)
        if pending.error is not None:
            raise pending.error
        return pending.result

    def close(self) -> None:
        """Stop the worker after it drains the queue (idempotent)."""
        with self._close_lock:
            self._closed = True
        self._wake.set()
        self._worker.join(timeout=5.0)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ worker

    def _serve(self) -> None:
        while True:
            self._wake.wait()
            self._wake.clear()
            # Read the flag before draining: once it is set nothing more is
            # enqueued, so this drain is the last one anybody needs.
            closed = self._closed
            while not self._queue.empty():
                with self._busy:
                    self._drain()
            if closed:
                return

    def _drain(self) -> None:
        """Run what is queued *now* as one batch; the caller holds ``_busy``.

        Everything that arrived while the previous batch was traversing
        rides this one, up to ``max_batch_rows`` (a lone oversized request
        still runs).
        """
        batch: list = []
        rows = 0
        while rows < self.max_batch_rows:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            batch.append(pending)
            rows += pending.X.shape[0]
        if batch:
            self._run_batch(batch)

    def _run_batch(self, batch: list) -> None:
        t_start = time.perf_counter()
        try:
            if len(batch) == 1:
                results = [self._predict(batch[0].X)]
            else:
                stacked = np.vstack([p.X for p in batch])
                y = self._predict(stacked)
                bounds = np.cumsum([0] + [p.X.shape[0] for p in batch])
                results = [y[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        except BaseException as exc:  # the whole batch shares the model error
            self._count_batch(batch, errored=True)
            t_done = time.perf_counter()
            for pending in batch:
                # Each rider re-raises its own copy: N submitter threads
                # raising one shared instance concurrently would clobber
                # each other's __traceback__ mid-flight.
                pending.t_start = t_start
                pending.t_done = t_done
                pending.error = self._rider_error(exc)
                pending.done.set()
            return
        self._count_batch(batch, errored=False)
        t_done = time.perf_counter()
        for pending, result in zip(batch, results):
            pending.t_start = t_start
            pending.t_done = t_done
            pending.result = result
            pending.done.set()

    def _count_batch(self, batch: list, *, errored: bool) -> None:
        with self._stats_lock:
            if errored:
                # An errored batch is still served traffic: count it into
                # the volume counters so stats() reports what actually ran.
                self._c_errors.inc(len(batch))
            self._c_requests.inc(len(batch))
            self._c_rows.inc(sum(p.X.shape[0] for p in batch))
            self._c_batches.inc()
            if len(batch) > self._g_batched_max.value:
                self._g_batched_max.set(len(batch))
            self._g_pending.dec(len(batch))

    @staticmethod
    def _rider_error(exc: BaseException) -> BaseException:
        """A per-rider copy of the batch error, chained to the original.

        ``copy.copy`` round-trips the exception through its own pickle-style
        reduction; anything that refuses (exotic __init__ signatures) is
        wrapped instead.  Either way the original — with its traceback —
        hangs off ``__cause__``.
        """
        try:
            clone = copy.copy(exc)
            if type(clone) is not type(exc):  # paranoid: copy() lied
                raise TypeError
        except Exception:
            clone = RuntimeError(f"batch prediction failed: {exc!r}")
        clone.__cause__ = exc
        return clone

    # ------------------------------------------------------------------- stats

    def stats(self) -> dict[str, Any]:
        with self._stats_lock:
            requests = self._c_requests.value
            batches = self._c_batches.value
            return {
                "requests": requests,
                "rows": self._c_rows.value,
                "batches": batches,
                "errors": self._c_errors.value,
                "batched_requests_max": int(self._g_batched_max.value),
                # Queue-depth gauge: requests submitted but not yet answered.
                "pending": int(self._g_pending.value),
                "requests_per_batch_mean": (
                    requests / batches if batches else 0.0
                ),
            }
