"""Unit tests for the shared resilience engine (ISSUE 9).

RetryPolicy/RetryState and HealthTracker are pure state machines — no
sockets, no sleeps — so everything here runs on a fake clock and a
seeded RNG and asserts exact, reproducible behaviour: the delay ladder,
budget/deadline exhaustion, circuit trip/half-open/close transitions,
the single-probe claim, and the shed-vs-dead rule (overloads never
trip).
"""

from __future__ import annotations

import random

import pytest

from repro.parallel.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    RETRY_SEED_ENV,
    HealthTracker,
    RetryPolicy,
    RetryState,
    policy_rng,
)


class FakeClock:
    """An injectable monotonic clock tests advance by hand."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ---------------------------------------------------------------- policy_rng


def test_policy_rng_explicit_seed_is_deterministic():
    a = [policy_rng("abc").random() for _ in range(5)]
    b = [policy_rng("abc").random() for _ in range(5)]
    assert a == b


def test_policy_rng_stringifies_seeds():
    # 7 and "7" must draw the same sequence (CLI flags arrive as strings).
    assert policy_rng(7).random() == policy_rng("7").random()


def test_policy_rng_env_fallback(monkeypatch):
    monkeypatch.setenv(RETRY_SEED_ENV, "env-seed")
    from_env = policy_rng().random()
    explicit = policy_rng("env-seed").random()
    assert from_env == explicit
    # An explicit seed wins over the environment.
    assert policy_rng("other").random() != explicit


# --------------------------------------------------------------- RetryPolicy


def test_delay_ladder_without_jitter():
    policy = RetryPolicy(base_delay=0.5, max_delay=4.0, multiplier=2.0, jitter=0.0)
    assert [policy.delay(n) for n in (1, 2, 3, 4, 5)] == [
        0.5,
        1.0,
        2.0,
        4.0,
        4.0,  # capped at max_delay
    ]


def test_delay_jitter_range_and_determinism():
    policy = RetryPolicy(base_delay=1.0, max_delay=8.0, jitter=0.5)
    rng = policy_rng("jitter")
    delays = [policy.delay(1, rng) for _ in range(200)]
    # Equal jitter: every draw lives in [raw/2, raw].
    assert all(0.5 <= d <= 1.0 for d in delays)
    assert min(delays) < 0.6 and max(delays) > 0.9  # actually spread out
    # Same seed, same sequence.
    rng2 = policy_rng("jitter")
    assert delays == [policy.delay(1, rng2) for _ in range(200)]


def test_delay_without_rng_is_raw():
    policy = RetryPolicy(base_delay=2.0, jitter=0.5)
    assert policy.delay(1) == 2.0


def test_retry_budget_exhaustion():
    policy = RetryPolicy(retries=2, base_delay=0.1, jitter=0.0)
    state = policy.start()
    assert state.note_failure() == pytest.approx(0.1)
    assert state.note_failure() == pytest.approx(0.2)
    assert state.note_failure() is None  # budget of 2 retries spent
    assert state.exhausted


def test_zero_retries_fails_immediately():
    state = RetryPolicy(retries=0).start()
    assert state.note_failure() is None


def test_deadline_clips_delay_and_exhausts():
    clock = FakeClock()
    policy = RetryPolicy(
        retries=None, base_delay=10.0, max_delay=10.0, jitter=0.0, deadline=12.0
    )
    state = policy.start(clock=clock)
    # 10s raw delay fits inside the 12s deadline untouched.
    assert state.note_failure() == pytest.approx(10.0)
    clock.advance(10.0)
    # Only 2s of deadline left: the 10s delay is clipped to it.
    assert state.note_failure() == pytest.approx(2.0)
    clock.advance(2.0)
    assert state.note_failure() is None  # deadline spent
    assert state.exhausted


def test_unbounded_retries_without_deadline_never_exhaust():
    policy = RetryPolicy(retries=None, base_delay=0.01, jitter=0.0)
    state = policy.start()
    for _ in range(50):
        assert state.note_failure() is not None
    assert not state.exhausted


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=2.0, max_delay=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(deadline=0.0)
    with pytest.raises(ValueError):
        RetryPolicy().delay(0)


def test_retry_sequences_replay_under_seed():
    policy = RetryPolicy(retries=5, base_delay=0.5, jitter=0.5)

    def sequence(seed):
        state = policy.start(policy_rng(seed))
        out = []
        while True:
            d = state.note_failure()
            if d is None:
                return out
            out.append(d)

    assert sequence("run-1") == sequence("run-1")
    assert sequence("run-1") != sequence("run-2")


# ------------------------------------------------------------- HealthTracker


def make_tracker(clock, *, base=1.0):
    """A tracker with jitter-free doubling cooldowns for exact assertions."""
    return HealthTracker(
        cooldown=RetryPolicy(
            retries=None, base_delay=base, max_delay=64.0, jitter=0.0
        ),
        rng=random.Random(0),
        clock=clock,
    )


def test_first_failure_trips_circuit():
    clock = FakeClock()
    tracker = make_tracker(clock)
    assert tracker.state("a") == CLOSED
    assert tracker.routable("a")
    tracker.record_failure("a")
    assert tracker.state("a") == OPEN
    assert not tracker.routable("a")
    assert tracker.open_remaining("a") == pytest.approx(1.0)


def test_cooldown_expiry_goes_half_open_single_probe():
    clock = FakeClock()
    tracker = make_tracker(clock)
    tracker.record_failure("a")
    # Inside the window: no probes, not routable.
    assert not tracker.claim_probe("a")
    clock.advance(1.01)
    assert tracker.state("a") == HALF_OPEN
    assert not tracker.routable("a")  # half-open is still out of routing
    # Exactly one caller wins the trial request.
    assert tracker.claim_probe("a")
    assert not tracker.claim_probe("a")


def test_probe_success_closes_and_resets_trips():
    clock = FakeClock()
    tracker = make_tracker(clock)
    tracker.record_failure("a")
    clock.advance(1.01)
    assert tracker.claim_probe("a")
    tracker.record_success("a")
    assert tracker.state("a") == CLOSED
    assert tracker.routable("a")
    # Consecutive-trip count reset: the next trip starts back at base.
    tracker.record_failure("a")
    assert tracker.open_remaining("a") == pytest.approx(1.0)


def test_probe_failure_doubles_the_window():
    clock = FakeClock()
    tracker = make_tracker(clock)
    tracker.record_failure("a")  # trip 1: 1s window
    clock.advance(1.01)
    assert tracker.claim_probe("a")
    tracker.record_failure("a")  # probe failed: trip 2
    assert tracker.state("a") == OPEN
    assert tracker.open_remaining("a") == pytest.approx(2.0)
    clock.advance(2.01)
    assert tracker.claim_probe("a")
    tracker.record_failure("a")  # trip 3
    assert tracker.open_remaining("a") == pytest.approx(4.0)


def test_overloads_never_trip():
    clock = FakeClock()
    tracker = make_tracker(clock)
    for _ in range(100):
        tracker.record_overload("a")
    # Shed-vs-dead: a shedding replica is a healthy replica.
    assert tracker.state("a") == CLOSED
    assert tracker.routable("a")
    assert tracker.snapshot()["a"]["overloads"] == 100


def test_stale_probe_claim_releases():
    clock = FakeClock()
    tracker = make_tracker(clock)
    tracker.record_failure("a")
    clock.advance(1.01)
    assert tracker.claim_probe("a")
    # The prober vanished; after the stale window another caller may try.
    clock.advance(61.0)
    assert tracker.claim_probe("a")


def test_snapshot_reports_operator_fields():
    clock = FakeClock()
    tracker = make_tracker(clock)
    tracker.record_failure("a")
    clock.advance(0.5)
    tracker.record_success("b")
    snap = tracker.snapshot()
    assert snap["a"]["state"] == OPEN
    assert snap["a"]["failures"] == 1
    assert snap["a"]["trips"] == 1
    assert snap["a"]["last_failure_age_s"] == pytest.approx(0.5)
    assert snap["a"]["last_success_age_s"] is None
    assert snap["a"]["open_remaining_s"] == pytest.approx(0.5)
    assert snap["b"]["state"] == CLOSED
    assert snap["b"]["successes"] == 1
    assert snap["b"]["open_remaining_s"] == 0.0


def test_retry_state_is_importable_and_documented_loop_works():
    # The canonical loop from the RetryState docstring, end to end.
    policy = RetryPolicy(retries=3, base_delay=0.0, jitter=0.0)
    state: RetryState = policy.start()
    attempts = 0
    while True:
        attempts += 1
        if attempts >= 3:  # "op" succeeds on the third try
            break
        assert state.note_failure() is not None
    assert attempts == 3
