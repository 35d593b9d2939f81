"""The asyncio HTTP serving frontier over a :class:`~repro.gateway.ModelGateway`.

:class:`ModelServer` is the network front door of the reproduction stack:

* ``POST /routes/<route>/predict`` — single (``{"sequence": [...]}``) or
  batched (``{"sequences": [[...], ...]}``) prediction with optional
  per-request routing ``key``/``keys`` and version pinning, strict
  named-field validation (a malformed or unknown field gets a 400 naming
  it, never a traceback).  A single body is served as a batch of one;
  only the response shape differs;
* ``GET /healthz`` — the gateway's ``health_snapshot()`` plus server-level
  counters, as JSON;
* ``GET /metrics`` — the same state flattened to the text exposition format
  (:func:`repro.observability.render_metrics_text`);
* ``POST /admin/routes/<route>/{deploy,swap,rollback,retire,policy}`` —
  the control plane, guarded by a bearer-style ``x-admin-token`` header;
* ``GET/POST /admin/routes/<route>/evaluate`` — the eval gate
  (:mod:`repro.eval`): POST replays a golden set through the gateway and
  stores a deterministic promote/hold/rollback verdict (optionally acting on
  it with ``apply``); GET returns the stored verdict.

Production concerns the gateway cannot provide alone live here:
**admission control** (a bounded in-flight window; excess prediction
requests are shed immediately with 429 instead of queueing without bound),
per-connection **keep-alive and pipelining** (requests are handled strictly
in order per connection), request **size limits** (431/413), and **graceful
drain** — ``request_stop()`` stops accepting connections, lets every
in-flight request finish, then closes the gateway (and, when owned, the
underlying ``PredictionService``).

The event loop never runs model code: predictions are handed to a bounded
thread pool, whose width matches the admission window so accepted requests
start immediately instead of queueing behind each other.

The connection loop, size limits, response mapping, drain, admin-token
check and thread lifecycle are :class:`HTTPFrontEnd`, which
:class:`ModelServer`, the cluster balancer and the cluster supervisor's
control server all run on; each keeps only its own dispatch.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import hmac
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.eval.canary import evaluate_route
from repro.eval.golden import load_golden_set
from repro.eval.policy import EvalPolicy
from repro.gateway.gateway import ModelGateway
from repro.gateway.policies import (
    ABSplit,
    Canary,
    Ensemble,
    Shadow,
    TrafficPolicy,
    derive_request_key,
)
from repro.observability import CounterSet, Histogram, render_metrics_text
from repro.server.protocol import (
    HTTPError,
    HTTPRequest,
    json_response,
    read_request,
    render_response,
)
from repro.trace import (
    TRACE_HEADER,
    Trace,
    TraceStore,
    Tracer,
    activate,
    parse_trace_header,
)

logger = logging.getLogger(__name__)

#: The trace a dispatch began for the request currently being answered,
#: read back by ``HTTPFrontEnd._respond`` to echo ``X-Repro-Trace`` on the
#: response.  Task-local (each connection is one asyncio task), reset per
#: request.
_RESPONSE_TRACE: contextvars.ContextVar[Trace | None] = contextvars.ContextVar(
    "repro_server_response_trace", default=None
)

#: JSON policy specs accepted by the ``policy`` admin endpoint, by ``kind``.
_POLICY_BUILDERS: dict[str, Callable[[dict], TrafficPolicy]] = {
    "ab_split": lambda spec: ABSplit(
        variants=spec["variants"], salt=spec.get("salt", "")
    ),
    "canary": lambda spec: Canary(
        candidate=spec["candidate"],
        fraction=spec["fraction"],
        stable=spec.get("stable"),
        salt=spec.get("salt", ""),
    ),
    "shadow": lambda spec: Shadow(
        candidate=spec["candidate"], primary=spec.get("primary")
    ),
    "ensemble": lambda spec: Ensemble(
        members=spec["members"],
        method=spec.get("method", "mean"),
        weights=spec.get("weights"),
    ),
}


def policy_from_spec(spec: Mapping) -> TrafficPolicy | None:
    """Build a traffic policy from its JSON description.

    ``{"kind": "active"}`` returns ``None`` (meaning: clear back to the
    default active-version policy); unknown kinds and malformed specs raise
    :class:`HTTPError` 400 naming the offending field.
    """
    if not isinstance(spec, Mapping):
        raise HTTPError(400, "bad_field", "'policy' must be a JSON object", field="policy")
    kind = spec.get("kind")
    if kind == "active":
        return None
    builder = _POLICY_BUILDERS.get(kind)
    if builder is None:
        known = sorted(_POLICY_BUILDERS) + ["active"]
        raise HTTPError(
            400, "bad_field", f"unknown policy kind {kind!r}; known: {known}",
            field="policy.kind",
        )
    try:
        return builder(dict(spec))
    except KeyError as exc:
        raise HTTPError(
            400, "bad_field", f"policy kind {kind!r} requires field {exc.args[0]!r}",
            field=f"policy.{exc.args[0]}",
        ) from None
    except (TypeError, ValueError) as exc:
        raise HTTPError(400, "bad_field", str(exc), field="policy") from None


class _Connection:
    """Book-keeping for one live client connection."""

    __slots__ = ("writer", "busy", "task")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.busy = False
        self.task: asyncio.Task | None = None


@dataclass(frozen=True)
class RawBody:
    """A response body sent as-is under its own content type (a relayed answer)."""

    body: bytes
    content_type: str


class ServerHandle:
    """Control handle for a front end running in a background thread."""

    def __init__(self, server: "HTTPFrontEnd", thread: threading.Thread) -> None:
        self.server = server
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def control_port(self) -> int | None:
        return self.server.control_port

    def stop(self, timeout: float = 120.0) -> None:
        """Request a graceful drain and wait for the serving thread to exit."""
        self.server.request_stop()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(f"{type(self.server).__name__} did not drain within {timeout}s")


class HTTPFrontEnd:
    """The asyncio HTTP/1.1 front end every server of the stack runs on.

    It owns what a keep-alive server repeats: listeners, reading each
    request within the size limits, answering a framing error and closing,
    one mapping from a dispatch result or exception to response bytes,
    in-order (pipelined) writes, the graceful drain, the admin-token check
    and the background-thread lifecycle.  A subclass supplies ``_open``
    (bind listeners with :meth:`_listen`, start what else it runs),
    ``_dispatch`` (a request to ``(status, payload)``) and ``_close`` (tear
    down after the drain).  A payload is JSON, a ``str`` (sent as
    ``text/plain``) or a :class:`RawBody`.

    The loop calls ``read_request`` and ``json_response`` through this
    module's globals, so a benchmark can time parsing and serialization by
    replacing them here.
    """

    #: Request size limits (431 / 413).
    max_header_bytes = 16384
    max_body_bytes = 1048576
    #: Seconds the drain waits for connections busy with a request.
    drain_timeout = 30.0
    #: Shared secret for admin endpoints; ``None`` disables them (403).
    admin_token: str | None = None
    control_port: int | None = None
    handle_class = ServerHandle

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        #: connections / http_requests / errors:<status>; subclasses add theirs.
        self.counters = CounterSet()
        self._draining = False
        self._connections: set[_Connection] = set()
        self._listeners: list[asyncio.base_events.Server] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        raise NotImplementedError

    async def _dispatch(self, request: HTTPRequest):
        raise NotImplementedError

    async def _close(self) -> None:
        pass

    async def serve(self, ready: Callable[[], None] | None = None) -> None:
        """Open, serve until :meth:`request_stop`, then drain gracefully."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self._open()
            if ready is not None:
                ready()
            await self._stop_event.wait()
        finally:
            await self._drain()

    def request_stop(self) -> None:
        """Thread-safe: begin the graceful drain (idempotent)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            pass  # loop already closed — the server is gone

    def start_in_thread(self, *, timeout: float = 300.0) -> ServerHandle:
        """Run :meth:`serve` on a background thread; returns once serving."""
        ready = threading.Event()
        failures: list[BaseException] = []

        def runner() -> None:
            try:
                asyncio.run(self.serve(ready=ready.set))
            except BaseException as exc:  # surfaced to the starter below
                failures.append(exc)
            finally:
                ready.set()

        name = f"repro-{type(self).__name__}"
        thread = threading.Thread(target=runner, name=name, daemon=True)
        thread.start()
        if not ready.wait(timeout):
            self.request_stop()
            raise TimeoutError(f"{type(self).__name__} failed to start within {timeout}s")
        if failures:
            raise failures[0]
        return self.handle_class(self, thread)

    async def _listen(
        self, port: int = 0, sock: socket.socket | None = None
    ) -> tuple[str, int]:
        """Serve the connection loop on *sock* or ``host:port``; returns the
        bound address."""
        limit = max(self.max_header_bytes, 65536)
        if sock is not None:
            listener = await asyncio.start_server(
                self._handle_connection, sock=sock, limit=limit
            )
        else:
            listener = await asyncio.start_server(
                self._handle_connection, host=self.host, port=port, limit=limit
            )
        self._listeners.append(listener)
        return listener.sockets[0].getsockname()[:2]

    async def _drain(self) -> None:
        """Stop accepting, let busy connections answer, then :meth:`_close`."""
        self._draining = True
        for listener in self._listeners:
            listener.close()
            await listener.wait_closed()
        # Idle keep-alive connections are parked in a read; closing the
        # transport wakes them into a clean EOF exit.  Busy connections
        # finish their current request (the handler loop then exits on the
        # draining flag) — accepted work is never dropped.
        for connection in list(self._connections):
            if not connection.busy:
                connection.writer.close()
        pending = [c.task for c in self._connections if c.task is not None]
        if pending:
            await asyncio.wait(pending, timeout=self.drain_timeout)
        await self._close()
        logger.info(
            "%s drained (%s connections at shutdown)", type(self).__name__, len(pending)
        )

    # ------------------------------------------------------------------
    # connection handling (keep-alive + pipelining)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer)
        connection.task = asyncio.current_task()
        self._connections.add(connection)
        self.counters.increment("connections")
        try:
            while True:
                try:
                    request = await read_request(
                        reader,
                        max_header_bytes=self.max_header_bytes,
                        max_body_bytes=self.max_body_bytes,
                    )
                except HTTPError as exc:
                    # Framing is unreliable after a malformed head: answer
                    # and close instead of resynchronizing.
                    self.counters.increment("http_requests")
                    await _send(writer, self._render(exc.status, exc.payload(), False))
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break  # peer vanished mid-request
                if request is None:
                    break  # clean close between requests
                connection.busy = True
                try:
                    response = await self._respond(request)
                finally:
                    connection.busy = False
                if not await _send(writer, response):
                    break
                if self._draining or not request.keep_alive:
                    break
        finally:
            self._connections.discard(connection)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _respond(self, request: HTTPRequest) -> bytes:
        self.counters.increment("http_requests")
        keep_alive = request.keep_alive and not self._draining
        trace_token = _RESPONSE_TRACE.set(None)
        try:
            try:
                status, payload = await self._dispatch(request)
            except HTTPError as exc:
                status, payload = exc.status, exc.payload()
            except Exception as exc:  # never a traceback on the wire
                # (CancelledError is a BaseException and deliberately propagates:
                # a cancelled connection task must not fabricate a 500.)
                logger.exception("unhandled error serving %s %s", request.method, request.path)
                status = 500
                payload = {
                    "error": {
                        "code": "internal_error",
                        "message": f"{type(exc).__name__} while serving the request",
                    }
                }
            trace = _RESPONSE_TRACE.get()
        finally:
            _RESPONSE_TRACE.reset(trace_token)
        return self._render(status, payload, keep_alive, trace)

    def _render(
        self, status: int, payload, keep_alive: bool, trace: Trace | None = None
    ) -> bytes:
        if status >= 400:
            self.counters.increment(f"errors:{status}")
        extra_headers = {TRACE_HEADER: trace.trace_id} if trace is not None else None
        if isinstance(payload, RawBody):
            body, content_type = payload.body, payload.content_type
        elif isinstance(payload, str):  # pre-rendered plain text (``/metrics``)
            body, content_type = payload.encode("utf-8"), "text/plain; charset=utf-8"
        else:
            return json_response(
                status, payload, keep_alive=keep_alive, extra_headers=extra_headers
            )
        return render_response(
            status,
            body,
            content_type=content_type,
            keep_alive=keep_alive,
            extra_headers=extra_headers,
        )

    @staticmethod
    def _echo_trace(trace: Trace) -> None:
        """Echo *trace*'s id in the ``X-Repro-Trace`` header of this response."""
        _RESPONSE_TRACE.set(trace)

    def _require_admin(self, request: HTTPRequest) -> None:
        if self.admin_token is None:
            raise HTTPError(
                403, "admin_disabled",
                "admin endpoints are disabled (server started without an admin token)",
            )
        presented = request.headers.get("x-admin-token") or ""
        if not hmac.compare_digest(
            presented.encode("utf-8"), self.admin_token.encode("utf-8")
        ):
            raise HTTPError(401, "unauthorized", "missing or invalid x-admin-token header")


async def _send(writer: asyncio.StreamWriter, response: bytes) -> bool:
    """Write one response; ``False`` when the peer has gone."""
    try:
        writer.write(response)
        await writer.drain()
    except ConnectionError:
        return False
    return True


class ModelServer(HTTPFrontEnd):
    """Serve a :class:`~repro.gateway.ModelGateway` over HTTP/1.1.

    Args:
        gateway: The gateway fronted by this server.
        host / port: Bind address; ``port=0`` binds an ephemeral port (the
            bound port is published on :attr:`port` once serving).
        sock: Pre-bound listening socket to serve on instead of binding
            ``host:port`` — how a :mod:`repro.cluster` supervisor hands a
            worker its share of a ``SO_REUSEPORT`` port.  The server takes
            ownership; :attr:`host`/:attr:`port` are read back from it.
        control_port: When not ``None``, additionally serve the same
            endpoints on a private ``host:control_port`` listener (``0``
            binds an ephemeral port, published on :attr:`control_port`).
            Workers behind a shared port stay individually addressable
            through it for health checks and admin fan-out.
        worker_id: Fleet index reported in the ``server`` stats block of
            ``/healthz`` and ``/metrics`` (``None`` outside a fleet).
        admin_token: Shared secret for the ``/admin`` control plane; ``None``
            disables admin endpoints entirely (403).
        max_inflight: Admission window — prediction requests beyond this
            many concurrently in flight are shed with a fast 429.
        max_batch_items: Upper bound on ``sequences`` per batched request.
        max_body_bytes / max_header_bytes: Request size limits (413 / 431).
        drain_timeout: Seconds the drain waits for in-flight connections.
        owns_gateway: Close the gateway at the end of the drain (the
            gateway's own ``owns_service`` flag then decides whether the
            shared ``PredictionService`` is torn down with it).
        trace_sample: Head-sampling rate for request tracing in ``[0, 1]``;
            ``None`` disables tracing entirely (requests then pay only a
            single ``is None`` check).  Slow and error traces are kept at
            100% regardless of the rate (tail sampling).
        trace_slow_ms: Latency threshold (milliseconds) above which a trace
            is always kept.
        trace_seed: Seed for deterministic trace ids and the head-sampling
            hash — a seeded loadgen scenario reproduces the same trace set.
        trace_capacity: Ring-buffer size of the in-process trace store
            behind ``GET /debug/traces``.
    """

    def __init__(
        self,
        gateway: ModelGateway,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        sock: socket.socket | None = None,
        control_port: int | None = None,
        worker_id: int | None = None,
        admin_token: str | None = None,
        max_inflight: int = 64,
        max_batch_items: int = 256,
        max_body_bytes: int = 1048576,
        max_header_bytes: int = 16384,
        drain_timeout: float = 30.0,
        owns_gateway: bool = True,
        trace_sample: float | None = 1.0,
        trace_slow_ms: float = 250.0,
        trace_seed: int = 0,
        trace_capacity: int = 256,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_batch_items < 1:
            raise ValueError(f"max_batch_items must be >= 1, got {max_batch_items}")
        super().__init__(host, port)
        self.gateway = gateway
        self.control_port = control_port
        self.worker_id = worker_id
        self.admin_token = admin_token
        self.max_inflight = max_inflight
        self.max_batch_items = max_batch_items
        self.max_body_bytes = max_body_bytes
        self.max_header_bytes = max_header_bytes
        self.drain_timeout = drain_timeout
        self.owns_gateway = owns_gateway

        #: Request tracing: deterministic ids + head sampling (tracer) and
        #: bounded retention with tail sampling for slow/error traces (store).
        self.tracer = Tracer(
            seed=trace_seed,
            sample=trace_sample if trace_sample is not None else 0.0,
            slow_ms=trace_slow_ms,
            enabled=trace_sample is not None,
        )
        self.traces = TraceStore(trace_capacity, slow_ms=trace_slow_ms)

        # ``self.counters`` also counts predict_requests / predict_sequences /
        # shed here.

        #: Wall-clock latency of handled prediction requests (parse → response
        #: built), the server-side counterpart of a load generator's view.
        self.latency = Histogram()

        self._inflight = 0
        self._sock = sock
        # Pool width == admission window: every admitted request gets a
        # thread immediately, so queueing happens only at the 429 boundary.
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        if self._sock is not None:
            self.host, self.port = await self._listen(sock=self._sock)
        else:
            self.port = (await self._listen(self.port))[1]
        if self.control_port is not None:
            # A private per-process listener sharing the exact same handler:
            # the data port may be one SO_REUSEPORT socket among many, but
            # this address reaches *this* worker deterministically.
            self.control_port = (await self._listen(self.control_port))[1]
        logger.info("repro.server listening on %s:%d", self.host, self.port)

    async def _close(self) -> None:
        self._executor.shutdown(wait=True)
        if self.owns_gateway:
            await asyncio.to_thread(self.gateway.close)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, request: HTTPRequest):
        segments = request.segments
        if segments == ("healthz",):
            self._require_method(request, "GET")
            return 200, self._health_payload()
        if segments == ("metrics",):
            self._require_method(request, "GET")
            return 200, render_metrics_text(
                self._metrics_payload(), exemplars=self._latency_exemplars()
            )
        if segments == ("debug", "traces"):
            self._require_method(request, "GET")
            return 200, {"traces": self.traces.list(), "stats": self.traces.stats()}
        if len(segments) == 3 and segments[:2] == ("debug", "traces"):
            self._require_method(request, "GET")
            stored = self.traces.get(segments[2])
            if stored is None:
                raise HTTPError(
                    404, "unknown_trace",
                    f"no stored trace {segments[2]!r} (evicted, sampled out, or "
                    f"never seen)",
                )
            return 200, stored
        if len(segments) == 3 and segments[0] == "routes" and segments[2] == "predict":
            self._require_method(request, "POST")
            return await self._handle_predict(segments[1], request)
        if len(segments) == 4 and segments[:2] == ("admin", "routes"):
            # ``evaluate`` is dual-method: GET reads the stored verdict, POST
            # runs the gate.  Every other admin action mutates and is POST-only.
            if segments[3] == "evaluate":
                if request.method not in ("GET", "POST"):
                    raise HTTPError(
                        405, "method_not_allowed",
                        f"{request.path} only accepts GET or POST, got {request.method}",
                    )
            else:
                self._require_method(request, "POST")
            # Off the event loop: deploy loads bundle arrays from disk, eval
            # replays a golden set through the gateway, and registry mutations
            # take the registry lock — none may stall concurrently-served
            # predictions.
            return await asyncio.get_running_loop().run_in_executor(
                self._executor,
                functools.partial(self._handle_admin, segments[2], segments[3], request),
            )
        raise HTTPError(404, "not_found", f"no endpoint at {request.path!r}")

    @staticmethod
    def _require_method(request: HTTPRequest, method: str) -> None:
        if request.method != method:
            raise HTTPError(
                405, "method_not_allowed",
                f"{request.path} only accepts {method}, got {request.method}",
            )

    # ------------------------------------------------------------------
    # observability endpoints
    # ------------------------------------------------------------------
    def _server_stats(self) -> dict:
        counters = self.counters.as_dict()
        stats: dict = {}
        if self.worker_id is not None:
            stats["worker_id"] = self.worker_id
        return stats | {
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "draining": self._draining,
            "open_connections": len(self._connections),
            "counters": counters,
            "latency": self.latency.snapshot(),
        }

    def _health_payload(self) -> dict:
        snapshot = self.gateway.health_snapshot()
        snapshot["server"] = self._server_stats()
        if self.tracer.enabled:
            snapshot["trace"] = self.traces.stats()
        return snapshot

    def _latency_exemplars(self) -> dict[str, str] | None:
        """Attach the slowest kept trace id to the server latency lines."""
        trace_id = self.traces.exemplar()
        if trace_id is None:
            return None
        return {
            f"repro_server_latency_{suffix}": trace_id
            for suffix in ("p50_ms", "p95_ms", "p99_ms", "max_ms")
        }

    def _metrics_payload(self) -> dict:
        snapshot = self.gateway.health_snapshot()
        return {
            "healthy": snapshot["status"] == "ok",
            "routes": snapshot["routes"],
            "service": snapshot["service"],
            "server": self._server_stats(),
        }

    # ------------------------------------------------------------------
    # prediction data plane
    # ------------------------------------------------------------------
    @staticmethod
    def _string_items(value, field: str) -> tuple[str, ...]:
        if not isinstance(value, list):
            raise HTTPError(
                400, "bad_field",
                f"'{field}' must be a list of strings, got {type(value).__name__}",
                field=field,
            )
        if not value:
            raise HTTPError(
                400, "bad_field", f"'{field}' must not be empty", field=field
            )
        for index, item in enumerate(value):
            if not isinstance(item, str):
                raise HTTPError(
                    400, "bad_field",
                    f"'{field}[{index}]' must be a string, got {type(item).__name__}",
                    field=f"{field}[{index}]",
                )
        return tuple(value)

    def _optional_string(self, payload: dict, field: str) -> str | None:
        value = payload.get(field)
        if value is not None and not isinstance(value, str):
            raise HTTPError(
                400, "bad_field",
                f"'{field}' must be a string, got {type(value).__name__}",
                field=field,
            )
        return value

    #: Body fields each kind of predict request accepts.
    _PREDICT_FIELDS = {
        "sequence": frozenset({"sequence", "key", "version"}),
        "sequences": frozenset({"sequences", "keys", "version"}),
    }

    def _parse_predict(self, request: HTTPRequest) -> dict:
        """Validate a predict body and normalize it to a batch.

        A single body (``sequence``/``key``) becomes a batch of one
        (``sequences``/``keys``) with ``single`` set; ``single`` only picks
        the response shape and the root span's attributes.
        """
        payload = request.json()
        if not isinstance(payload, dict):
            raise HTTPError(
                400, "bad_body",
                f"request body must be a JSON object, got {type(payload).__name__}",
                field="body",
            )
        single = "sequence" in payload
        if single == ("sequences" in payload):
            raise HTTPError(
                400, "bad_body",
                "request body must contain exactly one of 'sequence' or 'sequences'",
                field="sequence",
            )
        allowed = self._PREDICT_FIELDS["sequence" if single else "sequences"]
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise HTTPError(
                400, "bad_field",
                f"unknown field {unknown[0]!r}; this body allows {sorted(allowed)}",
                field=unknown[0],
            )
        parsed: dict = {
            "single": single,
            "version": self._optional_string(payload, "version"),
        }
        if single:
            parsed["sequences"] = [self._string_items(payload["sequence"], "sequence")]
            key = self._optional_string(payload, "key")
            parsed["keys"] = [key] if key is not None else None
            return parsed
        sequences = payload["sequences"]
        if not isinstance(sequences, list):
            raise HTTPError(
                400, "bad_field",
                f"'sequences' must be a list of lists, got {type(sequences).__name__}",
                field="sequences",
            )
        if not sequences:
            raise HTTPError(
                400, "bad_field", "'sequences' must not be empty", field="sequences"
            )
        if len(sequences) > self.max_batch_items:
            raise HTTPError(
                413, "batch_too_large",
                f"batch of {len(sequences)} sequences exceeds the "
                f"{self.max_batch_items}-item limit",
                field="sequences",
            )
        parsed["sequences"] = [
            self._string_items(item, f"sequences[{index}]")
            for index, item in enumerate(sequences)
        ]
        keys = payload.get("keys")
        if keys is not None:
            keys = list(self._string_items(keys, "keys"))
            if len(keys) != len(sequences):
                raise HTTPError(
                    400, "bad_field",
                    f"got {len(keys)} keys for {len(sequences)} sequences",
                    field="keys",
                )
        parsed["keys"] = keys
        return parsed

    def _begin_trace(
        self, route: str, request: HTTPRequest, parsed: dict
    ) -> tuple[Trace | None, "object | None"]:
        """Start (or adopt) the trace for a predict request.

        Returns ``(trace, root_span)``; ``(None, None)`` when tracing is
        disabled — the entire per-request tracing cost then collapses to
        this one check.
        """
        if not self.tracer.enabled:
            return None, None
        keys = parsed["keys"]
        key = keys[0] if keys else derive_request_key(parsed["sequences"][0])
        trace = None
        parent_id = None
        header = request.headers.get(TRACE_HEADER.lower())
        if header:
            upstream = parse_trace_header(header)
            if upstream is not None:
                trace_id, sampled, parent_id = upstream
                trace = self.tracer.adopt(trace_id, key, sampled=sampled)
        if trace is None:
            trace = self.tracer.begin(key)
        attrs: dict = {"route": route}
        if self.worker_id is not None:
            attrs["worker_id"] = self.worker_id
        if parsed["single"]:
            # The original payload rides on the root span so an exported
            # trace can be replayed as a loadgen workload.
            attrs["sequence"] = list(parsed["sequences"][0])
        else:
            attrs["batch"] = len(parsed["sequences"])
        root = trace.start_span("server.request", parent=parent_id, attrs=attrs)
        self._echo_trace(trace)
        return trace, root

    async def _handle_predict(self, route: str, request: HTTPRequest):
        parsed = self._parse_predict(request)
        trace, root = self._begin_trace(route, request, parsed)
        try:
            return await self._predict_admitted(route, parsed, trace, root)
        except HTTPError as exc:
            if trace is not None:
                trace.error = True
                root.attrs["status"] = exc.status
            raise
        finally:
            if trace is not None:
                trace.end_span(root)
                self.traces.offer(trace)

    async def _predict_admitted(
        self, route: str, parsed: dict, trace: Trace | None, root
    ):
        if self._inflight >= self.max_inflight:
            self.counters.increment("shed")
            if root is not None:
                root.attrs["shed"] = True
            raise HTTPError(
                429, "overloaded",
                f"admission window of {self.max_inflight} in-flight requests is "
                f"full; retry with backoff",
            )
        self._inflight += 1
        start = time.perf_counter()
        count = len(parsed["sequences"])
        try:
            call = functools.partial(
                self.gateway.predict_proba_batch,
                route,
                parsed["sequences"],
                keys=parsed["keys"],
                version=parsed["version"],
            )
            # run_in_executor does not carry contextvars into the pool
            # thread, so the call runs in a copy taken with the trace active.
            with activate(trace, root.span_id if root is not None else None):
                context = contextvars.copy_context()
            try:
                probabilities = await asyncio.get_running_loop().run_in_executor(
                    self._executor, context.run, call
                )
                label_space = self.gateway.registry.label_space(route)
            except KeyError as exc:
                raise HTTPError(404, "unknown_route", _key_error_message(exc)) from None
            except TimeoutError as exc:
                raise HTTPError(503, "prediction_timeout", str(exc)) from None
            except RuntimeError as exc:
                raise HTTPError(503, "unavailable", str(exc)) from None
            except ValueError as exc:
                raise HTTPError(400, "bad_request", str(exc)) from None
        finally:
            self._inflight -= 1
        self.counters.increment("predict_requests")
        self.counters.increment("predict_sequences", count)
        self.latency.record(time.perf_counter() - start, count=count)
        labels = [label_space[int(i)] for i in probabilities.argmax(axis=1)]
        rows = [[float(p) for p in row] for row in probabilities]
        if parsed["single"]:
            return 200, {"route": route, "label": labels[0], "probabilities": rows[0]}
        return 200, {
            "route": route,
            "count": count,
            "labels": labels,
            "probabilities": rows,
        }

    # ------------------------------------------------------------------
    # admin control plane
    # ------------------------------------------------------------------
    def _handle_admin(self, route: str, action: str, request: HTTPRequest):
        self._require_admin(request)
        payload = request.json() if request.body else {}
        if not isinstance(payload, dict):
            raise HTTPError(
                400, "bad_body",
                f"request body must be a JSON object, got {type(payload).__name__}",
                field="body",
            )
        try:
            if action == "deploy":
                version = self._required_string(payload, "version")
                path = self._required_string(payload, "path")
                deployment = self.gateway.deploy(
                    route, version, path,
                    activate=payload.get("activate"),
                    replace=bool(payload.get("replace", False)),
                )
                return 200, {
                    "route": route,
                    "version": deployment.version,
                    "active": self.gateway.registry.active_version(route),
                }
            if action == "swap":
                deployment = self.gateway.swap(route, self._required_string(payload, "version"))
                return 200, {"route": route, "active": deployment.version}
            if action == "rollback":
                deployment = self.gateway.rollback(route)
                return 200, {"route": route, "active": deployment.version}
            if action == "retire":
                version = self._required_string(payload, "version")
                self.gateway.retire(route, version)
                return 200, {
                    "route": route,
                    "retired": version,
                    "versions": list(self.gateway.registry.versions(route)),
                }
            if action == "policy":
                policy = policy_from_spec(payload.get("policy", payload))
                if policy is None:
                    self.gateway.clear_policy(route)
                else:
                    self.gateway.set_policy(route, policy)
                return 200, {
                    "route": route,
                    "policy": self.gateway.registry.policy(route).describe(),
                }
            if action == "evaluate":
                if request.method == "GET":
                    verdict = self.gateway.verdict(route)
                    if verdict is None:
                        raise HTTPError(
                            404, "no_verdict",
                            f"route {route!r} has no stored eval verdict; POST "
                            f"to this endpoint to run the gate",
                        )
                    return 200, {"route": route, "verdict": verdict}
                return self._handle_evaluate(route, payload)
        except HTTPError:
            raise
        except KeyError as exc:
            raise HTTPError(404, "not_found", _key_error_message(exc)) from None
        except (ValueError, RuntimeError, OSError) as exc:
            raise HTTPError(400, "bad_request", str(exc)) from None
        raise HTTPError(
            404, "not_found",
            f"unknown admin action {action!r}; known: deploy, swap, rollback, "
            f"retire, policy, evaluate",
        )

    def _handle_evaluate(self, route: str, payload: dict):
        """Run the eval gate (``repro.eval``) for a candidate version.

        Body fields: ``candidate`` (required), ``golden`` (required path to a
        golden-set JSONL on this host), ``baseline`` (default: the active
        version), ``policy`` (EvalPolicy field overrides), ``seed``
        (bootstrap seed, default 0), ``shadow`` (use live shadow counters,
        default true) and ``apply`` (act on the verdict: promote swaps the
        candidate active, rollback restores the previous version when the
        candidate is the active one).  The verdict is stored on the route
        and summarised in ``/healthz`` and ``/metrics``.
        """
        candidate = self._required_string(payload, "candidate")
        golden_path = self._required_string(payload, "golden")
        baseline = self._optional_string(payload, "baseline")
        seed = payload.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise HTTPError(
                400, "bad_field",
                f"'seed' must be an integer, got {type(seed).__name__}",
                field="seed",
            )
        policy = None
        if payload.get("policy") is not None:
            spec = payload["policy"]
            if not isinstance(spec, dict):
                raise HTTPError(
                    400, "bad_field",
                    f"'policy' must be a JSON object of EvalPolicy fields, "
                    f"got {type(spec).__name__}",
                    field="policy",
                )
            try:
                policy = EvalPolicy.from_dict(spec)
            except (TypeError, ValueError) as exc:
                raise HTTPError(400, "bad_field", str(exc), field="policy") from None
        try:
            golden = load_golden_set(golden_path)
        except FileNotFoundError:
            raise HTTPError(
                400, "bad_field",
                f"no golden set at {golden_path!r} on this host",
                field="golden",
            ) from None
        except ValueError as exc:
            raise HTTPError(400, "bad_field", str(exc), field="golden") from None
        _, verdict = evaluate_route(
            self.gateway,
            route,
            candidate,
            golden,
            baseline=baseline,
            policy=policy,
            seed=seed,
            use_shadow=bool(payload.get("shadow", True)),
        )
        self.gateway.record_verdict(route, verdict)
        applied = "none"
        if payload.get("apply"):
            if verdict.decision == "promote":
                if self.gateway.registry.active_version(route) != candidate:
                    self.gateway.swap(route, candidate)
                    applied = f"swapped active to {candidate}"
                else:
                    applied = f"{candidate} already active"
            elif verdict.decision == "rollback":
                if self.gateway.registry.active_version(route) == candidate:
                    restored = self.gateway.rollback(route)
                    applied = f"rolled back to {restored.version}"
                else:
                    applied = "none (candidate is not the active version)"
        return 200, {
            "route": route,
            "verdict": verdict.as_dict(),
            "applied": applied,
            "active": self.gateway.registry.active_version(route),
        }

    @staticmethod
    def _required_string(payload: dict, field: str) -> str:
        value = payload.get(field)
        if not isinstance(value, str) or not value:
            raise HTTPError(
                400, "bad_field",
                f"'{field}' must be a non-empty string", field=field,
            )
        return value


def _key_error_message(exc: KeyError) -> str:
    """KeyError args are the raw message for registry errors, a key otherwise."""
    if exc.args and isinstance(exc.args[0], str) and " " in exc.args[0]:
        return exc.args[0]
    return f"unknown name {exc.args[0]!r}" if exc.args else "unknown name"
