"""Tests for the micro-batcher (``repro.serve.batcher``).

The headline contract: a micro-batched prediction is byte-identical to
predicting that request alone, for any interleaving of concurrent
requests; a malformed request fails alone; a model error fails its batch
and nothing else.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.serve.batcher import MicroBatcher


class CountingPredict:
    """Wrap a predict fn, counting calls and rows (thread-safe enough: the
    batcher serialises all calls through one worker)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.rows = 0

    def __call__(self, X):
        self.calls += 1
        self.rows += X.shape[0]
        return self.fn(X)


@pytest.fixture()
def predict(tiny_advisor):
    return CountingPredict(tiny_advisor.estimator.predict)


class TestParity:
    def test_single_request_matches_direct_call(self, predict, probe_X, tiny_advisor):
        with MicroBatcher(predict, n_features=4) as batcher:
            got = batcher.submit(probe_X)
        assert np.array_equal(got, tiny_advisor.estimator.predict(probe_X))

    def test_concurrent_single_rows_are_byte_identical(
        self, predict, probe_X, tiny_advisor
    ):
        local = tiny_advisor.estimator.predict(probe_X)
        results = {}
        with MicroBatcher(predict, n_features=4) as batcher:
            def worker(i):
                out = []
                for j in range(i, len(probe_X), 4):
                    out.append((j, batcher.submit(probe_X[j:j + 1])[0]))
                results[i] = out

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for out in results.values():
            for j, y in out:
                assert y == local[j]

    def test_coalesced_batch_is_byte_identical(self, tiny_advisor, probe_X):
        """Force a known coalition: requests queued while the worker is busy
        ride one batch, and each answer still equals the lone-request one."""
        local = tiny_advisor.estimator.predict(probe_X)
        release = threading.Event()
        first_entered = threading.Event()

        def gated_predict(X):
            first_entered.set()
            release.wait(timeout=10.0)
            return tiny_advisor.estimator.predict(X)

        batcher = MicroBatcher(gated_predict, n_features=4)
        try:
            results = [None] * 6

            def submit(i):
                results[i] = batcher.submit(probe_X[i:i + 1])[0]

            threads = [threading.Thread(target=submit, args=(0,))]
            threads[0].start()
            assert first_entered.wait(timeout=10.0)
            # These five arrive while request 0 is mid-traversal: they must
            # coalesce into the next batch.
            for i in range(1, 6):
                threads.append(threading.Thread(target=submit, args=(i,)))
                threads[-1].start()
            while batcher._queue.qsize() < 5:  # noqa: SLF001 - deterministic gate
                pass
            release.set()
            for t in threads:
                t.join(timeout=10.0)
            stats = batcher.stats()
            assert stats["requests"] == 6
            assert stats["batches"] == 2
            assert stats["batched_requests_max"] == 5
            for i in range(6):
                assert results[i] == local[i]
        finally:
            release.set()
            batcher.close()


class TestCallerThread:
    def test_lone_request_runs_on_the_submitting_thread(self, tiny_advisor, probe_X):
        """An idle batcher runs the batch right on the caller's thread: no
        hand-off to the worker, no wake-up to wait for."""
        ran_on = []

        def predict(X):
            ran_on.append(threading.get_ident())
            return tiny_advisor.estimator.predict(X)

        with MicroBatcher(predict, n_features=4) as batcher:
            got = batcher.submit(probe_X[:1])
            assert batcher.stats()["batches"] == 1
        assert ran_on == [threading.get_ident()]
        assert np.array_equal(got, tiny_advisor.estimator.predict(probe_X[:1]))

    def test_close_answers_requests_queued_behind_a_batch(self, tiny_advisor, probe_X):
        """close() while a batch is in flight: the requests queued behind it
        still get their answers, then the worker exits."""
        local = tiny_advisor.estimator.predict(probe_X)
        release = threading.Event()
        first_entered = threading.Event()

        def gated_predict(X):
            first_entered.set()
            release.wait(timeout=10.0)
            return tiny_advisor.estimator.predict(X)

        batcher = MicroBatcher(gated_predict, n_features=4)
        results = [None] * 4

        def submit(i):
            results[i] = batcher.submit(probe_X[i:i + 1])[0]

        threads = [threading.Thread(target=submit, args=(0,))]
        threads[0].start()
        try:
            assert first_entered.wait(timeout=10.0)
            for i in range(1, 4):
                threads.append(threading.Thread(target=submit, args=(i,)))
                threads[-1].start()
            deadline = time.monotonic() + 10.0
            while batcher._queue.qsize() < 3 and time.monotonic() < deadline:  # noqa: SLF001
                pass
            assert batcher._queue.qsize() == 3  # noqa: SLF001 - deterministic gate
            closer = threading.Thread(target=batcher.close)
            closer.start()
            release.set()
            closer.join(timeout=10.0)
            for t in threads:
                t.join(timeout=10.0)
            assert not closer.is_alive()
            assert not any(t.is_alive() for t in threads)
        finally:
            release.set()
            batcher.close()
        assert not batcher._worker.is_alive()  # noqa: SLF001
        assert results == [local[i] for i in range(4)]
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(probe_X[:1])


class TestStress:
    def test_fast_switching_submitters_lose_no_request(self, tiny_advisor, probe_X):
        """More submitters than cores, a tiny switch interval and a 3-row
        cap (so drains leave work behind): every request is answered once,
        byte-identical, whichever thread ran its batch."""
        local = tiny_advisor.estimator.predict(probe_X)
        n_threads, per_thread = 12, 100
        answers = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MicroBatcher(
                tiny_advisor.estimator.predict, n_features=4, max_batch_rows=3
            ) as batcher:
                def submit(i):
                    for r in range(per_thread):
                        j = (i + r) % len(probe_X)
                        answers[(i, r)] = (j, batcher.submit(probe_X[j:j + 1])[0])

                threads = [
                    threading.Thread(target=submit, args=(i,)) for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in threads)
                stats = batcher.stats()
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == n_threads * per_thread
        assert all(y == local[j] for j, y in answers.values())
        assert stats["requests"] == n_threads * per_thread
        assert stats["pending"] == 0


class TestValidation:
    def test_bad_requests_fail_alone_before_the_queue(self, predict):
        with MicroBatcher(predict, n_features=4) as batcher:
            with pytest.raises(ValueError, match="Expected shape"):
                batcher.submit(np.zeros((2, 3)))
            with pytest.raises(ValueError, match="Empty input"):
                batcher.submit(np.zeros((0, 4)))
            with pytest.raises(ValueError, match="NaN"):
                batcher.submit(np.array([[1.0, 2.0, np.nan, 4.0]]))
            with pytest.raises(ValueError):
                batcher.submit(np.zeros(4))  # 1-D
        assert predict.calls == 0  # nothing malformed ever reached the model

    def test_model_error_hits_every_rider_and_worker_survives(self, tiny_advisor, probe_X):
        fail = threading.Event()

        def flaky_predict(X):
            if fail.is_set():
                raise RuntimeError("model exploded")
            return tiny_advisor.estimator.predict(X)

        with MicroBatcher(flaky_predict, n_features=4) as batcher:
            fail.set()
            with pytest.raises(RuntimeError, match="model exploded"):
                batcher.submit(probe_X[:2])
            fail.clear()
            # The worker is still alive and serving.
            got = batcher.submit(probe_X[:2])
            assert np.array_equal(got, tiny_advisor.estimator.predict(probe_X[:2]))
            assert batcher.stats()["errors"] == 1

    def test_each_rider_gets_its_own_chained_error_copy(self, tiny_advisor, probe_X):
        """N riders of a failed batch must each re-raise a distinct exception
        instance (concurrent raises of one shared instance clobber each
        other's __traceback__), chained to the one model error."""
        release = threading.Event()
        first_entered = threading.Event()

        def gated_boom(X):
            first_entered.set()
            release.wait(timeout=10.0)
            raise RuntimeError("model exploded")

        batcher = MicroBatcher(gated_boom, n_features=4)
        try:
            caught = [None] * 4

            def submit(i):
                try:
                    batcher.submit(probe_X[i:i + 1])
                except RuntimeError as exc:
                    caught[i] = exc

            threads = [threading.Thread(target=submit, args=(0,))]
            threads[0].start()
            assert first_entered.wait(timeout=10.0)
            for i in range(1, 4):
                threads.append(threading.Thread(target=submit, args=(i,)))
                threads[-1].start()
            while batcher._queue.qsize() < 3:  # noqa: SLF001 - deterministic gate
                pass
            release.set()
            for t in threads:
                t.join(timeout=10.0)
        finally:
            release.set()
            batcher.close()
        assert all(isinstance(exc, RuntimeError) for exc in caught)
        assert "model exploded" in str(caught[0])
        # Distinct instances per rider; riders of the same batch (1-3 all
        # coalesced behind the gated request 0) chain to one shared
        # original, which carries the worker-side traceback.
        assert len({id(exc) for exc in caught}) == 4
        assert all(exc.__cause__ is not None for exc in caught)
        assert caught[1].__cause__ is caught[2].__cause__ is caught[3].__cause__

    def test_errored_batches_count_into_volume_stats(self, probe_X):
        def boom(X):
            raise RuntimeError("model exploded")

        with MicroBatcher(boom, n_features=4) as batcher:
            for _ in range(2):
                with pytest.raises(RuntimeError, match="model exploded"):
                    batcher.submit(probe_X[:3])
            stats = batcher.stats()
        assert stats["errors"] == 2
        # The failed traffic still ran: stats() must report it.
        assert stats["requests"] == 2
        assert stats["rows"] == 6
        assert stats["batches"] == 2

    def test_submit_after_close_raises(self, predict, probe_X):
        batcher = MicroBatcher(predict, n_features=4)
        batcher.close()
        batcher.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(probe_X[:1])

    def test_oversized_single_request_still_runs_alone(self, predict, probe_X, tiny_advisor):
        with MicroBatcher(predict, n_features=4, max_batch_rows=4) as batcher:
            got = batcher.submit(probe_X)  # 16 rows > cap of 4
        assert np.array_equal(got, tiny_advisor.estimator.predict(probe_X))

    def test_stats_are_coherent(self, predict, probe_X):
        with MicroBatcher(predict, n_features=4) as batcher:
            batcher.submit(probe_X[:3])
            batcher.submit(probe_X[:1])
        stats = batcher.stats()
        assert stats["requests"] == 2
        assert stats["rows"] == 4
        assert stats["batches"] >= 1
        assert stats["requests_per_batch_mean"] == pytest.approx(
            stats["requests"] / stats["batches"]
        )
