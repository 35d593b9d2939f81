"""Consistent-hash front balancer — the no-``SO_REUSEPORT`` fallback tier.

On platforms where the kernel cannot spread one listening port across
worker processes (``SO_REUSEPORT`` missing), :class:`ClusterBalancer`
provides the same contract in user space: one public address, N worker
back-ends, and **routing-key affinity** — a request carrying a routing
``key`` always lands on the same worker (while the member set is stable),
so per-worker result caches stay as hot as a single server's.

The balancer is a thin L7 relay on the shared HTTP front end
(:class:`repro.server.app.HTTPFrontEnd`, which reads each request off the
client connection): its dispatch parses the body once, picks a back-end on
the :class:`HashRing` (keyless requests round-robin), replays the request on a
pooled keep-alive back-end connection
(:class:`repro.loadgen.client.ConnectionPool` — which transparently
retries once when an idle pooled socket turns out to have been closed by a
draining worker), and relays the response.  Back-ends can be added and
removed live — how the supervisor rolls workers through restarts with the
balancer in front.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import logging
from bisect import bisect_right
from typing import Iterable

from repro.gateway.policies import derive_request_key as _derive_request_key
from repro.loadgen.client import ConnectionPool
from repro.server.app import HTTPFrontEnd, RawBody
from repro.server.protocol import HTTPError, HTTPRequest
from repro.trace import TRACE_HEADER, TraceStore, Tracer, format_trace_header

logger = logging.getLogger(__name__)

#: Headers never replayed to a back-end (re-framed per hop).
_HOP_HEADERS = frozenset({"host", "content-length", "connection", "transfer-encoding"})


def _point(data: bytes) -> int:
    """A stable 64-bit ring position (BLAKE2b, platform-independent)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class HashRing:
    """Consistent hashing with virtual nodes over named members.

    Each member owns ``replicas`` pseudo-random points on a 64-bit ring;
    :meth:`lookup` maps a key to the owner of the first point at or after
    the key's position.  Adding or removing one member remaps only the
    keys in that member's arcs (~1/N of the key space) — the property that
    keeps per-worker caches warm through fleet resizes.
    """

    def __init__(self, members: Iterable[str] = (), *, replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self._replicas = replicas
        self._members: set[str] = set()
        self._points: list[tuple[int, str]] = []
        for member in members:
            self.add(member)

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(sorted(self._members))

    def add(self, member: str) -> None:
        if member in self._members:
            return
        self._members.add(member)
        for replica in range(self._replicas):
            position = _point(f"{member}#{replica}".encode("utf-8"))
            self._points.append((position, member))
        self._points.sort()

    def remove(self, member: str) -> None:
        if member not in self._members:
            return
        self._members.discard(member)
        self._points = [p for p in self._points if p[1] != member]

    def lookup(self, key: str) -> str | None:
        """The member owning *key*; ``None`` when the ring is empty."""
        if not self._points:
            return None
        position = _point(key.encode("utf-8"))
        index = bisect_right(self._points, (position, ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


class ClusterBalancer(HTTPFrontEnd):
    """One public port relaying requests to a mutable set of back-ends."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 64,
        max_header_bytes: int = 16384,
        max_body_bytes: int = 1048576,
        trace_sample: float | None = 1.0,
        trace_slow_ms: float = 250.0,
        trace_seed: int = 0,
        trace_capacity: int = 256,
    ) -> None:
        super().__init__(host, port)
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        #: Tracing mirrors the worker servers: the balancer starts each
        #: cross-hop trace, injects the ``X-Repro-Trace`` header so the
        #: chosen worker adopts the same id, and keeps its own relay spans.
        self.tracer = Tracer(
            seed=trace_seed,
            sample=trace_sample if trace_sample is not None else 0.0,
            slow_ms=trace_slow_ms,
            enabled=trace_sample is not None,
        )
        self.traces = TraceStore(trace_capacity, slow_ms=trace_slow_ms)
        self.ring = HashRing(replicas=replicas)
        self._addresses: dict[str, tuple[str, int]] = {}
        self._pools: dict[str, ConnectionPool] = {}
        self._round_robin = itertools.count()

    # ------------------------------------------------------------------
    # membership (call from the serving loop / supervisor task)
    # ------------------------------------------------------------------
    def add_backend(self, name: str, host: str, port: int) -> None:
        self._addresses[name] = (host, port)
        self.ring.add(name)

    def remove_backend(self, name: str) -> None:
        """Drop *name* from routing; its pooled connections close."""
        self.ring.remove(name)
        self._addresses.pop(name, None)
        pool = self._pools.pop(name, None)
        if pool is not None:
            pool.close()

    @property
    def backends(self) -> tuple[str, ...]:
        return self.ring.members

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        self.port = (await self._listen(self.port))[1]
        logger.info("cluster balancer listening on %s:%d", self.host, self.port)

    async def _close(self) -> None:
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()

    # ------------------------------------------------------------------
    # relay
    # ------------------------------------------------------------------
    async def _dispatch(self, request: HTTPRequest):
        """Relay *request* to a back-end; the answer is the back-end's response."""
        members = self.ring.members
        if not members:
            raise HTTPError(503, "no_backends", "no workers are available")
        payload = request.json() if request.body else None
        key = _routing_key(payload)
        if key is not None:
            backend = self.ring.lookup(key)
        else:
            backend = members[next(self._round_robin) % len(members)]
        host, port = self._addresses[backend]
        pool = self._pools.get(backend)
        if pool is None:
            pool = self._pools[backend] = ConnectionPool(host, port)
        headers = {
            name: value
            for name, value in request.headers.items()
            if name not in _HOP_HEADERS
        }
        segments = request.segments
        trace = span = None
        if (
            self.tracer.enabled
            and len(segments) == 3
            and segments[0] == "routes"
            and segments[2] == "predict"
        ):
            trace = self.tracer.begin(_trace_key(payload, key))
            if trace is not None:
                span = trace.start_span(
                    "balancer.relay",
                    attrs={"backend": backend, "route": segments[1]},
                )
                # The worker adopts this id, so one trace stitches the
                # balancer hop to the worker's server/gateway/service spans.
                headers[TRACE_HEADER] = format_trace_header(trace, parent=span.span_id)
        try:
            response = await pool.request(request.method, request.path, payload, headers)
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            if trace is not None:
                trace.error = True
                span.attrs["error"] = type(exc).__name__
                trace.end_span(span)
                self.traces.offer(trace)
            raise HTTPError(
                502, "bad_backend", f"worker {backend} failed: {type(exc).__name__}"
            ) from None
        if trace is not None:
            if response.status >= 400:
                trace.error = True
                span.attrs["status"] = response.status
            trace.end_span(span)
            self.traces.offer(trace)
            self._echo_trace(trace)
        content_type = response.headers.get("content-type", "application/json")
        return response.status, RawBody(response.body, content_type)


def _routing_key(payload) -> str | None:
    """The affinity key of a parsed body: ``key``, or the first of ``keys``."""
    if not isinstance(payload, dict):
        return None
    key = payload.get("key")
    if isinstance(key, str):
        return key
    keys = payload.get("keys")
    if isinstance(keys, list) and keys and isinstance(keys[0], str):
        return keys[0]
    return None


def _trace_key(payload, key: str | None) -> str:
    """The key a trace id is derived from: the routing *key* when present,
    else the content-derived key of the (first) sequence — the same
    derivation the worker gateway uses, so ids stay deterministic for a
    seeded scenario."""
    if key is not None:
        return key
    if isinstance(payload, dict):
        for field in ("sequence", "sequences"):
            value = payload.get(field)
            if isinstance(value, list) and value:
                item = value[0] if field == "sequences" else value
                if isinstance(item, list):
                    return _derive_request_key(str(token) for token in item)
                return _derive_request_key(str(token) for token in value)
    return ""
