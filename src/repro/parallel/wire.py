"""Shared length-prefixed binary framing for repro's TCP services.

The memo service (:mod:`repro.parallel.service`, PR 3) and the online
inference service (:mod:`repro.serve`, PR 5) speak the same wire substrate:
every frame is a 4-byte big-endian payload length followed by the payload;
requests start with a 1-byte opcode, responses with a 1-byte status byte.
Strings inside a frame are ``!H`` length-prefixed.  Frames above
:data:`MAX_FRAME` (1 GiB) are rejected outright — a garbled length prefix
must read as a protocol error, never as a multi-gigabyte allocation.

This module is the single source of truth for that contract, on both
ends of the socket.  The frame read/write helpers and the size guard live
here.  So does the server half: :class:`FrameService`, a
``ThreadingTCPServer`` that tracks open connections so shutdown severs them
like a real process kill, plus the request-loop handler; the memo server,
the serve server and the cluster dispatcher all run on it.  The client half
is :class:`FrameConnection`: the dial, the lazy caps probe, the trace-context
envelope, the round trip with its wait hop, and teardown.  ``RemoteMemoStore``,
``ServeClient``, ``ClusterWorker`` and the one-shot observer dials
(:func:`fetch_telemetry`, ``dispatcher_status``) all talk through it.
Anything protocol-*semantic* — opcodes, status bytes, body encodings,
failure policies — stays with each service and each client.

Two robustness guards protect the thread-per-connection model itself:

* **Per-connection timeouts** (:data:`DEFAULT_TIMEOUT`): a client that
  connects and goes silent, or sends a partial frame and stalls, used to
  park its handler thread in ``read_exact`` forever — threads accumulated
  without bound.  Every handler socket now carries a timeout; an idle or
  mid-frame stall closes the connection and reclaims the thread.  Healthy
  long-lived clients are unaffected: a :class:`FrameConnection` whose
  server hung up fails that round trip and redials on the next.  The memo
  and serve clients spend their one retry on it; the cluster worker
  redials and registers again on its next poll.
* **Admission control** (:data:`DEFAULT_MAX_CONNECTIONS`): past the cap,
  new connections are shed (accepted and immediately closed) instead of
  spawning yet another handler thread, so overload degrades by refusing
  work rather than by queueing threads unboundedly.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
import time
from typing import Any, Optional

from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MAX_FRAME",
    "LEN",
    "STR_LEN",
    "DEFAULT_TIMEOUT",
    "DEFAULT_MAX_CONNECTIONS",
    "CONTEXT_MARKER",
    "OP_CAPS",
    "OP_TELEMETRY",
    "TELEMETRY_SCHEMA_VERSION",
    "WIRE_CAPS",
    "ProtocolError",
    "byte_tag",
    "pack_str",
    "unpack_str",
    "read_exact",
    "read_frame",
    "write_frame",
    "wrap_context",
    "split_context",
    "negotiate_caps",
    "fetch_telemetry",
    "parse_hostport_url",
    "FrameConnection",
    "FrameService",
]

#: Upper bound on a single frame (request or response), shared by every
#: framed service.  A corrupt length prefix reads as garbage, not as a giant
#: allocation.
MAX_FRAME = 1 << 30

#: Frame length prefix: 4-byte big-endian unsigned.
LEN = struct.Struct("!I")

#: In-frame string length prefix: 2-byte big-endian unsigned.
STR_LEN = struct.Struct("!H")

#: Default per-connection socket timeout (seconds).  A connection that goes
#: this long without completing a read — silent client, partial frame, held
#: socket — is closed and its handler thread reclaimed.  Generous enough
#: that no healthy request/response exchange ever trips it; idle persistent
#: clients simply reconnect on their next operation.
DEFAULT_TIMEOUT = 300.0

#: Default cap on concurrently open client connections.  Arrivals past the
#: cap are shed (accepted and closed immediately) instead of growing the
#: handler-thread population unboundedly.
DEFAULT_MAX_CONNECTIONS = 128

#: First byte of a context-wrapped request frame.  Every service opcode is
#: printable ASCII, so NUL is unambiguous: a wrapped frame is
#: ``b"\\x00" + pack_str(context_json) + real_payload``.  Old peers that
#: receive one (they never should — clients only wrap after a successful
#: capability probe) answer their usual unknown-opcode error frame.
CONTEXT_MARKER = b"\x00"

#: Generic capability-probe opcode, handled by :class:`FrameService` itself
#: before service dispatch.  Old peers answer it with a clean error frame —
#: which *is* the negotiation: a non-``+`` status means "no extensions".
OP_CAPS = b"\x01"

#: Generic telemetry opcode: a versioned JSON snapshot of the service's
#: metrics registry, legacy stats and recent spans (:meth:`FrameService.telemetry`).
OP_TELEMETRY = b"\x02"

#: Version stamped into telemetry snapshots and capability documents.
TELEMETRY_SCHEMA_VERSION = 1

#: Wire extensions this build speaks.
WIRE_CAPS = ("context", "telemetry")


class ProtocolError(Exception):
    """A malformed frame or field; the connection/operation is abandoned."""


def parse_hostport_url(url: str, scheme: str) -> tuple[str, int]:
    """``<scheme>host:port`` -> ``(host, port)``; raises ``ValueError`` on junk.

    A malformed URL is a configuration typo and must fail loudly — unlike
    runtime protocol failures, which each service degrades per its own
    failure contract.
    """
    if not url.startswith(scheme):
        raise ValueError(f"URL must start with {scheme!r}: {url!r}")
    rest = url[len(scheme):].rstrip("/")
    host, sep, port_s = rest.rpartition(":")
    if not sep or not host or not port_s.isdigit():
        raise ValueError(f"URL must be {scheme}host:port, got {url!r}")
    port = int(port_s)
    if not 0 < port < 65536:
        raise ValueError(f"URL port out of range: {url!r}")
    return host, port


# ------------------------------------------------------------- frame helpers


def byte_tag(frame: bytes) -> str:
    """A frame's leading opcode/status byte as a plain span-tag string.

    ``b"+"`` tags as ``"+"`` (not the Python repr ``"b'+'"``); a non-ASCII
    byte keeps a readable escape (``"\\xff"``).
    """
    return frame[:1].decode("ascii", "backslashreplace")


def pack_str(value: str) -> bytes:
    """Encode a ``!H`` length-prefixed UTF-8 string field."""
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError("string field too long")
    return STR_LEN.pack(len(raw)) + raw


def unpack_str(payload: bytes, offset: int) -> tuple[str, int]:
    """Decode a string field at ``offset``; returns ``(value, next_offset)``."""
    end = offset + STR_LEN.size
    if end > len(payload):
        raise ProtocolError("truncated string field")
    (length,) = STR_LEN.unpack_from(payload, offset)
    if end + length > len(payload):
        raise ProtocolError("truncated string field")
    return payload[end:end + length].decode("utf-8"), end + length


def read_exact(rfile, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise; a short read is a dead peer."""
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = rfile.read(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(rfile) -> bytes:
    """Read one length-prefixed frame, enforcing the :data:`MAX_FRAME` guard."""
    header = read_exact(rfile, LEN.size)
    (length,) = LEN.unpack(header)
    if length == 0 or length > MAX_FRAME:
        raise ProtocolError(f"invalid frame length {length}")
    return read_exact(rfile, length)


def write_frame(wfile, payload: bytes) -> None:
    """Write one length-prefixed frame and flush it."""
    wfile.write(LEN.pack(len(payload)) + payload)
    wfile.flush()


# --------------------------------------------------------- context envelope


def wrap_context(payload: bytes, context: Optional[str]) -> bytes:
    """Wrap a request payload in the optional trace-context envelope.

    ``None`` (tracing off, no live span, or a peer without the
    ``context`` capability) returns the payload untouched — the wrapped
    and unwrapped forms differ only when there is a context to carry.
    """
    if context is None:
        return payload
    return CONTEXT_MARKER + pack_str(context) + payload


def split_context(frame: bytes) -> tuple[Optional[str], bytes]:
    """Peel the context envelope off an inbound frame, if present.

    Returns ``(context_json_or_None, real_payload)``.  A frame that does
    not start with :data:`CONTEXT_MARKER` is returned unchanged; a
    truncated envelope raises :class:`ProtocolError`.
    """
    if not frame.startswith(CONTEXT_MARKER):
        return None, frame
    context, offset = unpack_str(frame, 1)
    return context, frame[offset:]


def negotiate_caps(rfile, wfile) -> frozenset:
    """Probe a connected peer's wire extensions over an open connection.

    Sends :data:`OP_CAPS` and reads one response.  A peer from before
    this protocol answers with its unknown-opcode error frame (any
    non-``+`` status), which decodes as "no extensions" — that round trip
    *is* the version negotiation, so mixed fleets keep working.  Raises
    ``OSError``/:class:`ProtocolError` only for transport-level failures,
    exactly like any other request on the connection.
    """
    write_frame(wfile, OP_CAPS)
    response = read_frame(rfile)
    if response[:1] != b"+":
        return frozenset()
    try:
        doc = json.loads(response[1:])
    except ValueError:
        return frozenset()
    caps = doc.get("caps") if isinstance(doc, dict) else None
    if not isinstance(caps, list):
        return frozenset()
    return frozenset(str(cap) for cap in caps)


def fetch_telemetry(host: str, port: int, *, timeout: float = 5.0) -> dict[str, Any]:
    """One-shot telemetry scrape from any framed repro service.

    Dials ``host:port``, sends :data:`OP_TELEMETRY` and returns the
    versioned snapshot dict.  Raises ``OSError`` when nothing answers and
    :class:`ProtocolError` when the peer refuses the opcode (an old build)
    or returns junk — callers map both onto clean non-zero exits.
    """
    with FrameConnection(host, port, timeout=timeout) as conn:
        response = conn.request(OP_TELEMETRY)
    if response[:1] != b"+":
        raise ProtocolError(
            "peer refused telemetry (pre-observability build?): "
            f"{response[1:].decode('utf-8', 'replace')!r}"
        )
    try:
        doc = json.loads(response[1:])
    except ValueError:
        raise ProtocolError("telemetry response is not JSON") from None
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ProtocolError("telemetry response is not a snapshot document")
    return doc


# ------------------------------------------------------------------- client


class FrameConnection:
    """One client connection to a framed repro service, dialled lazily.

    Owns the transport every wire client shares: the dial, the buffered
    reader and writer, one round trip per :meth:`request`, and teardown.
    ``timeout`` bounds the connect and every read.  A failed round trip
    closes the connection, so the next request redials.  What a failure
    means stays the caller's policy, and so does locking: this class is
    not thread-safe.

    ``scheme`` (``"memo://"``, ``"serve://"``, ``"cluster://"``) makes the
    connection traced.  Under a live span a request then probes the peer's
    caps once per connection, rides the context envelope if the peer
    speaks it, and on success records its write-to-read wait as the
    scheme's hop (``memo_wait``, ``serve_wait``, ``cluster_wait``).  With
    tracing off, or no live span, there is no probe and the payload goes
    out bare.  The
    extension opcodes :data:`OP_CAPS` and :data:`OP_TELEMETRY` always go
    out bare, because a peer answers a wrapped one as an unknown opcode.
    A connection without a scheme (the one-shot observer dials) sends
    every frame bare and records no hop.
    """

    def __init__(
        self, host: str, port: int, *, timeout: float, scheme: Optional[str] = None
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._hop = f"{scheme.split(':', 1)[0]}_wait" if scheme else None
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._wfile = None
        #: Wire extensions of the connected peer; ``None`` until probed on
        #: this connection.
        self.caps: Optional[frozenset] = None

    def request(self, payload: bytes) -> bytes:
        """Send one request frame (dialling first if needed); return the response.

        Raises ``OSError`` or :class:`ProtocolError`, after closing the
        connection, when the dial or the round trip fails.
        """
        traced = self._hop is not None and payload[:1] not in (OP_CAPS, OP_TELEMETRY)
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                self._rfile = self._sock.makefile("rb")
                self._wfile = self._sock.makefile("wb")
            context = obs_trace.wire_context() if traced else None
            if context is not None:
                if self.caps is None:
                    self.caps = negotiate_caps(self._rfile, self._wfile)
                if "context" in self.caps:
                    payload = wrap_context(payload, context)
            t0 = time.perf_counter()
            write_frame(self._wfile, payload)
            response = read_frame(self._rfile)
        except (OSError, ProtocolError):
            self.close()
            raise
        if traced:
            obs_trace.annotate(self._hop, time.perf_counter() - t0)
        return response

    def close(self) -> None:
        """Drop the connection (idempotent); the next request redials."""
        for closer in (self._rfile, self._wfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._sock = self._rfile = self._wfile = None
        self.caps = None

    def __enter__(self) -> "FrameConnection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ------------------------------------------------------------------- server


class _FrameRequestHandler(socketserver.StreamRequestHandler):
    """One client connection: a loop of request/response frames.

    Frame semantics are delegated to the owning :class:`FrameService`:
    ``_handle_frame`` maps a request frame to a full response frame
    (status byte + body) and must not raise for request-level errors —
    an exception that escapes it is answered with the service's
    ``_internal_error_frame`` so one bad request never kills the server.

    The connection socket carries the service's per-connection timeout, so
    a silent client or a stalled partial frame surfaces as ``socket.timeout``
    (an ``OSError``) out of ``read_exact`` and the handler returns — the
    connection closes and the thread is reclaimed instead of parking in a
    blocking read forever.
    """

    def setup(self) -> None:
        # StreamRequestHandler applies self.timeout to the connection in its
        # own setup(); routing the service's knob through it puts the whole
        # request loop — header, partial payload, idle gaps — under one
        # deadline per blocking read.
        self.timeout = self.server.frame_service.timeout
        super().setup()

    def handle(self) -> None:  # pragma: no cover - exercised via FrameService
        service: "FrameService" = self.server.frame_service
        while True:
            try:
                request = read_frame(self.rfile)
            except (OSError, ProtocolError):
                return  # EOF, reset, timeout or garbage: drop the connection
            try:
                response = service._respond(request)
            except Exception:
                response = service._internal_error_frame()
            try:
                write_frame(self.wfile, response)
            except OSError:
                return


class _TrackingTCPServer(socketserver.ThreadingTCPServer):
    """Threading TCP server that can sever every open client connection.

    Handler threads otherwise outlive ``shutdown()`` and keep serving their
    connected client; severing makes an orderly shutdown indistinguishable
    from a process kill — exactly the failure clients promise to tolerate.

    ``max_connections`` is the admission guard: once that many connections
    are open, new arrivals are shed — closed immediately, without spawning
    a handler thread — so overload cannot grow the thread population
    unboundedly.  Shed clients see a clean EOF and apply their usual
    reconnect/degrade contract.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        *args: Any,
        max_connections: Optional[int] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._max_connections = max_connections
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self.connections_shed = 0

    def process_request(self, request: socket.socket, client_address: Any) -> None:
        with self._connections_lock:
            if (
                self._max_connections is not None
                and len(self._connections) >= self._max_connections
            ):
                self.connections_shed += 1
                shed = True
            else:
                self._connections.add(request)
                shed = False
        if shed:
            self._send_shed_frame(request)
            super().shutdown_request(request)
            return
        super().process_request(request, client_address)

    def _send_shed_frame(self, request: socket.socket) -> None:
        """Best-effort goodbye frame for a shed connection.

        Services that define a shed-response frame get to tell the client
        *why* it was refused (so the client can distinguish "overloaded,
        retry elsewhere" from a dead peer) instead of a bare EOF.  One
        frame fits the kernel's send buffer, so this never blocks the
        accept loop; any failure falls back to the plain close.
        """
        frame = self.frame_service._shed_frame()
        if frame is None:
            return
        try:
            request.settimeout(1.0)
            request.sendall(LEN.pack(len(frame)) + frame)
        except OSError:
            pass

    def shutdown_request(self, request: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_all_connections(self) -> None:
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass


class FrameService:
    """Lifecycle scaffolding for a thread-per-connection framed TCP service.

    Subclasses implement :meth:`_dispatch` (request -> status byte and
    body), or override :meth:`_handle_frame` to build whole response
    frames, and set :attr:`scheme` so :attr:`url` renders the right URL
    flavour.  ``port=0`` binds an ephemeral port (see :attr:`port`/:attr:`url`
    for the actual address) — what in-process tests use.

    ``timeout`` is the per-connection socket timeout (``None``/``<= 0``
    disables it): a connection that stalls a read that long — silent
    client, partial frame, held socket — is closed and its handler thread
    reclaimed.  ``max_connections`` caps concurrently open connections;
    arrivals past the cap are shed instead of queueing threads unboundedly
    (``None``/``<= 0`` removes the cap).
    """

    #: URL scheme rendered by :attr:`url` (e.g. ``"memo://"``).
    scheme = "tcp://"

    #: Whether this service speaks the PR 10 wire extensions (context
    #: envelope, CAPS/TELEMETRY opcodes).  Tests flip it off to emulate a
    #: pre-observability peer: every extension frame then falls through to
    #: the service's own dispatch and earns its historical error response.
    wire_extensions = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: Optional[float] = DEFAULT_TIMEOUT,
        max_connections: Optional[int] = DEFAULT_MAX_CONNECTIONS,
    ) -> None:
        self.timeout = float(timeout) if timeout and timeout > 0 else None
        self.max_connections = (
            int(max_connections) if max_connections and max_connections > 0 else None
        )
        self._tcp = _TrackingTCPServer(
            (host, port), _FrameRequestHandler, max_connections=self.max_connections
        )
        self._tcp.frame_service = self
        self._thread: Optional[threading.Thread] = None
        self._started = False
        #: Typed instrument home for this service instance; subclasses
        #: hang their own counters/histograms off it and the telemetry
        #: opcode snapshots it.  A subclass that created its registry
        #: before calling up (to instrument pre-bind construction work)
        #: keeps it.
        if not isinstance(getattr(self, "metrics", None), MetricsRegistry):
            self.metrics = MetricsRegistry()
        self._frames_total = self.metrics.counter("wire.frames")
        self._frame_seconds = self.metrics.histogram("wire.frame_seconds")
        self._started_monotonic = time.monotonic()

    # ------------------------------------------------------------- lifecycle

    @property
    def host(self) -> str:
        return self._tcp.server_address[0]

    @property
    def port(self) -> int:
        return self._tcp.server_address[1]

    @property
    def url(self) -> str:
        return f"{self.scheme}{self.host}:{self.port}"

    @property
    def open_connections(self) -> int:
        """Currently open client connections."""
        with self._tcp._connections_lock:
            return len(self._tcp._connections)

    @property
    def connections_shed(self) -> int:
        """Connections refused by the admission guard since startup."""
        return self._tcp.connections_shed

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (or interrupt)."""
        self._started = True
        self._tcp.serve_forever(poll_interval=0.1)

    def start(self) -> "FrameService":
        """Serve on a daemon background thread (in-process test mode)."""
        self._started = True
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=type(self).__name__.lower(),
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving and sever every client connection (idempotent).

        Severing in-flight connections is deliberate: it makes an orderly
        shutdown indistinguishable from a process kill, which is exactly
        the failure clients promise to tolerate.
        """
        if self._started:
            self._started = False
            self._tcp.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._tcp.close_all_connections()
        self._tcp.server_close()

    def __enter__(self) -> "FrameService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -------------------------------------------------------------- dispatch

    def _respond(self, request: bytes) -> bytes:
        """Generic wire-extension layer wrapped around :meth:`_handle_frame`.

        Handles the CAPS/TELEMETRY opcodes, peels the optional trace
        context off the frame, and — when a context arrived or tracing is
        on in this process — records a server-side span around the
        service dispatch.  With :attr:`wire_extensions` off (or for plain
        unwrapped frames with tracing off) this is byte-for-byte the old
        behaviour: the raw request goes straight to the service.
        """
        if not self.wire_extensions:
            return self._handle_frame(request)
        op = request[:1]
        if op == OP_CAPS:
            return b"+" + json.dumps(self._caps_doc(), sort_keys=True).encode("utf-8")
        if op == OP_TELEMETRY:
            doc = json.dumps(self.telemetry(), sort_keys=True, default=str)
            return b"+" + doc.encode("utf-8")
        try:
            context, payload = split_context(request)
        except ProtocolError:
            # A truncated envelope cannot be attributed: let the service
            # answer the raw frame with its own malformed-request error.
            context, payload = None, request
        self._frames_total.inc()
        parent = obs_trace.parent_from_wire(context)
        if (
            parent is None
            and not obs_trace.tracing_enabled()
            and not self._force_frame_spans()
        ):
            t0 = time.perf_counter()
            response = self._handle_frame(payload)
            self._frame_seconds.observe(time.perf_counter() - t0)
            return response
        with obs_trace.span(
            f"{self._span_service()}.frame",
            parent=parent,
            force=True,
            tags={"service": type(self).__name__, "op": self._op_label(payload)},
        ) as frame_span:
            t0 = time.perf_counter()
            response = self._handle_frame(payload)
            self._frame_seconds.observe(time.perf_counter() - t0)
            frame_span.set_tag("status", byte_tag(response))
        self._on_frame_span(frame_span)
        return response

    def _span_service(self) -> str:
        """Short span-name prefix derived from the URL scheme."""
        return self.scheme.split(":", 1)[0] or "wire"

    def _op_label(self, payload: bytes) -> str:
        """Human-readable opcode label for span tags and slow-request lines.

        Services that know their opcode names override this (e.g. the
        serve protocol maps ``b"p"`` to ``"predict"``).
        """
        return byte_tag(payload)

    def _caps_doc(self) -> dict[str, Any]:
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "service": type(self).__name__,
            "caps": list(WIRE_CAPS),
        }

    def telemetry(self) -> dict[str, Any]:
        """The versioned observability snapshot served by :data:`OP_TELEMETRY`.

        One document, JSON-able, same shape for every framed service:
        metrics registry snapshot, the service's legacy ``stats()`` view,
        and the newest spans from this process's ring.
        """
        try:
            stats = self._telemetry_stats()
        except Exception:
            stats = {}
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "service": type(self).__name__,
            "url": self.url,
            "caps": list(WIRE_CAPS),
            "uptime_s": time.monotonic() - self._started_monotonic,
            "connections": {
                "open": self.open_connections,
                "shed": self.connections_shed,
            },
            "metrics": self.metrics.snapshot(),
            "stats": stats,
            "spans": obs_trace.recent_spans(limit=100),
        }

    def _telemetry_stats(self) -> dict[str, Any]:
        """The legacy stats view embedded in telemetry (override to adjust)."""
        stats = getattr(self, "stats", None)
        if callable(stats):
            return stats()
        return {}

    def _force_frame_spans(self) -> bool:
        """Record frame spans even with tracing globally off (override).

        The serve server's ``--slow-ms`` knob needs per-frame spans to
        measure against without requiring tracing to be enabled.
        """
        return False

    def _on_frame_span(self, frame_span: Any) -> None:
        """Hook called after a traced frame finishes (slow-log lives here)."""

    def _handle_frame(self, request: bytes) -> bytes:
        """Map one request frame to one response frame (status + body).

        The default wraps :meth:`_dispatch`: a :class:`ProtocolError`
        answers ``!malformed request``, any other exception the
        :meth:`_internal_error_frame`.
        """
        try:
            status, body = self._dispatch(request)
        except ProtocolError:
            return b"!malformed request"
        except Exception:
            return self._internal_error_frame()
        return status + body

    def _dispatch(self, request: bytes) -> tuple[bytes, bytes]:
        """Map one request to ``(status, body)``; ``ProtocolError`` if malformed."""
        raise NotImplementedError

    def _internal_error_frame(self) -> bytes:
        """Response frame sent when :meth:`_handle_frame` raises."""
        return b"!internal error"

    def _shed_frame(self) -> Optional[bytes]:
        """Response frame written (best-effort) to a shed connection.

        ``None`` (the default) keeps the historical bare-EOF shed; services
        that want shed clients to see a distinct, retryable refusal return
        a full response frame (status byte + body) here.
        """
        return None
