"""repro.serve — online inference: hot fitted models behind a socket.

The serving layer (PR 5) closes the gap between the batch world (fit,
sweep, exit) and the ROADMAP's north star of serving heavy query traffic:
a fitted model is published once to a content-addressed
:class:`ModelRegistry`, warm-loaded by a :class:`ServeServer` that keeps
its packed arenas hot, and queried by many concurrent
:class:`ServeClient` users whose predict requests the
:class:`MicroBatcher` coalesces into single packed traversals.

The fleet layer (PR 8) scales that out: one server hosts *many* models
(request aliases route through the registry, LRU-capped residents, each
replica holding its own copy of every model it serves), bounds overload
with request-level admission control (shed requests fail with the
retryable ``overloaded`` flavour, :class:`ServeOverloadedError`), and the
client hashes requests across several replicas with deterministic
failover — a dead replica degrades capacity, not availability.

The two load-bearing contracts (see ROADMAP "serve fleet contract"):

* **Parity** — a served, micro-batched, concurrently-issued, fleet-routed
  prediction is byte-identical to calling the fitted model locally, one
  request at a time — regardless of which replica answered.
* **Clean failure** — a dead server, truncated/oversized frame or
  malformed request yields a clean error (``ServeError`` /
  ``ServeUnavailableError`` / ``ServeOverloadedError``) after bounded
  retries, with back-off and failover — never a hang, never a crash, and
  nothing a client sends can kill the server.

Operational front ends: ``repro-chem serve`` and ``repro-chem query``.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.client import (
    ServeClient,
    ServeError,
    ServeOverloadedError,
    ServeUnavailableError,
    parse_serve_url,
)
from repro.serve.registry import REGISTRY_FORMAT_VERSION, ModelRegistry, warm_model
from repro.serve.server import SERVE_PROTOCOL_VERSION, SERVE_URL_SCHEME, ServeServer

__all__ = [
    "MicroBatcher",
    "ModelRegistry",
    "ServeClient",
    "ServeError",
    "ServeOverloadedError",
    "ServeServer",
    "ServeUnavailableError",
    "SERVE_PROTOCOL_VERSION",
    "SERVE_URL_SCHEME",
    "REGISTRY_FORMAT_VERSION",
    "parse_serve_url",
    "warm_model",
]
