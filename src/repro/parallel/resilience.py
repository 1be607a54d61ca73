"""Shared resilience policies for every wire client (ISSUE 9).

PRs 3/5/7/8 each grew an ad-hoc failure path: the memo client did
one-reconnect-then-fixed-backoff, the serve client did doubling backoff
plus a single ring pass, and the cluster worker had its own reconnect
window.  This module unifies them behind two small, deterministic-under-
seed primitives:

* :class:`RetryPolicy` — capped jittered exponential backoff with a
  per-operation retry budget and an optional overall deadline.  A policy
  is immutable and shareable; each operation derives a private
  :class:`RetryState` (``policy.start()``) whose ``note_failure()``
  returns either the next jittered delay or ``None`` when the budget or
  deadline is spent.
* :class:`HealthTracker` — a per-endpoint closed / open / half-open
  circuit that opens on a recorded failure.  Overloads are counted
  separately and **never** trip the circuit: a shedding replica is a
  healthy replica (the shed-vs-dead distinction).  Open circuits cool
  down for a jittered, per-consecutive-trip doubling window, then admit
  exactly one half-open probe; a probe success closes the circuit, a
  probe failure re-opens it with a doubled window.

Determinism: all jitter is drawn from a ``random.Random`` owned by the
caller.  Seed it explicitly (``retry_seed=``), or set
``REPRO_RETRY_SEED`` in the environment, and every retry sequence —
delays, cooldowns, probe timings — replays identically.  Unseeded, the
RNG uses OS entropy as usual.

Nothing here sleeps or touches sockets; callers own their clocks and
waits, which keeps the engine trivially testable with a fake clock.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.obs import trace as obs_trace

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "HealthTracker",
    "RETRY_SEED_ENV",
    "RetryPolicy",
    "RetryState",
    "policy_rng",
]

RETRY_SEED_ENV = "REPRO_RETRY_SEED"

#: Circuit states (string-valued so they serialise straight into stats).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Safety valve: a half-open probe claim that never reported back (the
#: prober crashed between claim and request) releases after this long so
#: the endpoint cannot stay unprobeable forever.
_PROBE_STALE_S = 60.0


def policy_rng(seed: object = None) -> random.Random:
    """A jitter RNG, deterministic under a seed.

    An explicit ``seed`` wins; otherwise ``REPRO_RETRY_SEED`` from the
    environment; otherwise OS entropy.  Seeds are stringified first so
    ``7`` and ``"7"`` draw the same sequence.
    """
    if seed is None:
        raw = os.environ.get(RETRY_SEED_ENV, "").strip()
        if raw:
            seed = raw
    if seed is None:
        return random.Random()
    return random.Random(str(seed))


@dataclass(frozen=True)
class RetryPolicy:
    """Capped jittered exponential backoff with a budget and a deadline.

    ``retries`` is the number of *additional* attempts after the first
    failure (``None`` = unbounded, rely on ``deadline``).  The raw delay
    before retry *n* (1-based) is ``min(max_delay, base_delay *
    multiplier ** (n - 1))``; equal jitter then scales it by a uniform
    draw from ``[1 - jitter, 1]``, so ``jitter=0.5`` yields delays in
    ``[raw / 2, raw]`` and ``jitter=0`` is fully deterministic without a
    seed.  ``deadline`` bounds the whole operation: once it has elapsed
    (measured from ``start()``), ``note_failure()`` returns ``None``
    regardless of remaining budget, and any delay is clipped to the time
    remaining.
    """

    retries: Optional[int] = 2
    base_delay: float = 0.5
    max_delay: float = 30.0
    multiplier: float = 2.0
    jitter: float = 0.5
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.retries is not None and self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay {self.max_delay} < base_delay {self.base_delay}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")

    def delay(self, failures: int, rng: Optional[random.Random] = None) -> float:
        """The jittered delay after the ``failures``-th failure (1-based)."""
        if failures < 1:
            raise ValueError(f"failures must be >= 1, got {failures}")
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (failures - 1))
        if rng is None or self.jitter <= 0.0:
            return raw
        return raw * (1.0 - self.jitter * rng.random())

    def start(
        self,
        rng: Optional[random.Random] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "RetryState":
        """Begin one operation: a private failure counter and deadline."""
        return RetryState(self, rng=rng, clock=clock)


class RetryState:
    """Per-operation retry bookkeeping derived from a :class:`RetryPolicy`.

    The canonical loop::

        state = policy.start(rng)
        while True:
            try:
                return op()
            except RetryableError:
                delay = state.note_failure()
                if delay is None:
                    raise          # budget or deadline spent
                time.sleep(delay)
    """

    def __init__(
        self,
        policy: RetryPolicy,
        rng: Optional[random.Random] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy
        self._rng = rng
        self._clock = clock
        self.failures = 0
        self.started = clock()

    def note_failure(self) -> Optional[float]:
        """Record a failure; return the delay before the next attempt.

        Returns ``None`` once the retry budget or the overall deadline is
        spent — the caller must stop retrying and surface the error.
        """
        self.failures += 1
        policy = self.policy
        if policy.retries is not None and self.failures > policy.retries:
            return None
        delay = policy.delay(self.failures, self._rng)
        if policy.deadline is not None:
            remaining = policy.deadline - (self._clock() - self.started)
            if remaining <= 0.0:
                return None
            delay = min(delay, remaining)
        # Every wire client funnels its retry sleeps through here, so this
        # one annotation charges backoff time to the live trace span for
        # all of them (serve client, memo client, cluster worker redial).
        obs_trace.annotate("backoff_sleep", delay)
        return delay

    @property
    def exhausted(self) -> bool:
        policy = self.policy
        if policy.retries is not None and self.failures > policy.retries:
            return True
        if policy.deadline is not None:
            return self._clock() - self.started >= policy.deadline
        return False


@dataclass
class _Endpoint:
    state: str = CLOSED
    trips: int = 0  # consecutive trips since the last close
    open_until: float = 0.0
    probing: bool = False
    probe_at: float = 0.0
    successes: int = 0
    failures: int = 0
    overloads: int = 0
    trips_total: int = 0
    last_failure: Optional[float] = None
    last_success: Optional[float] = None
    last_overload: Optional[float] = None


class HealthTracker:
    """Per-endpoint closed/open/half-open circuit.

    * ``record_failure`` **opens** a closed or half-open circuit for a
      jittered cooldown drawn from the ``cooldown`` policy at the
      endpoint's consecutive-trip count — so back-to-back trips double
      the window — matching the fail-fast contract the serve/memo tests
      pin.  On an open circuit it only counts.
    * ``record_success`` **closes** a half-open (or open) circuit and
      resets the consecutive-trip count.
    * ``record_overload`` only counts: shedding is healthy behaviour and
      must never take a replica out of routing.
    * After the cooldown the circuit is **half-open**: ``routable()``
      stays ``False`` (it is routed to again only on probe success) but
      ``claim_probe()`` grants exactly one caller the trial request.

    All methods are thread-safe; the clock is injectable for tests.
    """

    def __init__(
        self,
        *,
        cooldown: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.cooldown = cooldown or RetryPolicy(
            retries=None, base_delay=0.5, max_delay=30.0, jitter=0.5
        )
        self._rng = rng if rng is not None else policy_rng()
        self._clock = clock
        self._lock = threading.Lock()
        self._endpoints: Dict[str, _Endpoint] = {}

    # -- internals ---------------------------------------------------

    def _get(self, name: str) -> _Endpoint:
        ep = self._endpoints.get(name)
        if ep is None:
            ep = self._endpoints[name] = _Endpoint()
        return ep

    def _refresh(self, ep: _Endpoint, now: float) -> None:
        if ep.state == OPEN and now >= ep.open_until:
            ep.state = HALF_OPEN
            ep.probing = False

    def _trip(self, ep: _Endpoint, now: float) -> None:
        ep.trips += 1
        ep.trips_total += 1
        ep.state = OPEN
        ep.probing = False
        ep.open_until = now + self.cooldown.delay(ep.trips, self._rng)

    # -- recording ---------------------------------------------------

    def record_success(self, name: str) -> None:
        with self._lock:
            now = self._clock()
            ep = self._get(name)
            self._refresh(ep, now)
            ep.successes += 1
            ep.last_success = now
            if ep.state != CLOSED:
                ep.state = CLOSED
                ep.trips = 0
                ep.probing = False

    def record_failure(self, name: str) -> None:
        with self._lock:
            now = self._clock()
            ep = self._get(name)
            self._refresh(ep, now)
            ep.failures += 1
            ep.last_failure = now
            if ep.state != OPEN:
                self._trip(ep, now)

    def record_overload(self, name: str) -> None:
        with self._lock:
            ep = self._get(name)
            ep.overloads += 1
            ep.last_overload = self._clock()

    # -- querying ----------------------------------------------------

    def state(self, name: str) -> str:
        with self._lock:
            ep = self._get(name)
            self._refresh(ep, self._clock())
            return ep.state

    def routable(self, name: str) -> bool:
        """True when requests may be routed to the endpoint (closed)."""
        return self.state(name) == CLOSED

    def claim_probe(self, name: str) -> bool:
        """Claim the single half-open trial request for ``name``.

        Returns ``True`` for exactly one caller per half-open window; the
        claim releases when the probe's outcome is recorded (or after
        ``_PROBE_STALE_S`` if the prober vanished).
        """
        with self._lock:
            now = self._clock()
            ep = self._get(name)
            self._refresh(ep, now)
            if ep.state != HALF_OPEN:
                return False
            if ep.probing and now - ep.probe_at < _PROBE_STALE_S:
                return False
            ep.probing = True
            ep.probe_at = now
            return True

    def open_remaining(self, name: str) -> float:
        """Seconds of cooldown left (0.0 unless the circuit is open)."""
        with self._lock:
            ep = self._get(name)
            now = self._clock()
            self._refresh(ep, now)
            if ep.state != OPEN:
                return 0.0
            return max(0.0, ep.open_until - now)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Operator-facing view: circuit state, counters, failure ages."""
        with self._lock:
            now = self._clock()
            out: Dict[str, Dict[str, object]] = {}
            for name, ep in self._endpoints.items():
                self._refresh(ep, now)
                out[name] = {
                    "state": ep.state,
                    "successes": ep.successes,
                    "failures": ep.failures,
                    "overloads": ep.overloads,
                    "trips": ep.trips_total,
                    "last_failure_age_s": (
                        None
                        if ep.last_failure is None
                        else round(now - ep.last_failure, 3)
                    ),
                    "last_success_age_s": (
                        None
                        if ep.last_success is None
                        else round(now - ep.last_success, 3)
                    ),
                    "open_remaining_s": (
                        round(max(0.0, ep.open_until - now), 3)
                        if ep.state == OPEN
                        else 0.0
                    ),
                }
            return out
