"""Execute a :class:`~repro.loadgen.workload.Workload` and report what happened.

Two execution disciplines, the textbook pair for serving systems:

* **open-loop** (:func:`run_open_loop`) — requests are issued at the
  workload's seeded arrival times regardless of completions, the honest way
  to measure latency under a target offered load (closed-loop clients
  self-throttle and hide queueing);
* **closed-loop** (:func:`run_closed_loop`) — a fixed number of workers
  each keep exactly one request outstanding, the right tool for measuring
  sustainable throughput.

Targets abstract *what* is being driven: :class:`HTTPTarget` speaks to a
live ``repro.server`` over real sockets (keep-alive connection pool),
:class:`GatewayTarget` calls a :class:`~repro.gateway.ModelGateway`
in-process — the no-network baseline that isolates HTTP overhead.

Every run produces a :class:`LoadReport` — throughput, p50/p95/p99 latency,
error and shed counts — whose ``save()`` emits the JSON artifact the
``BENCH_*.json`` perf trajectory is built from.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.gateway.gateway import ModelGateway
from repro.loadgen.client import ConnectionPool
from repro.loadgen.workload import Workload
from repro.trace import TRACE_HEADER

#: Outcome kinds recorded per request.
OK, SHED, ERROR = "ok", "shed", "error"


class GatewayTarget:
    """Drive a :class:`ModelGateway` directly (no network, no HTTP parse)."""

    def __init__(self, gateway: ModelGateway, route: str) -> None:
        self.gateway = gateway
        self.route = route

    async def predict(
        self, sequence: tuple[str, ...], key: str
    ) -> tuple[str, str | None]:
        try:
            await asyncio.to_thread(
                self.gateway.predict_proba, self.route, sequence, key=key
            )
            return OK, None
        except Exception:
            return ERROR, None

    async def aclose(self) -> None:  # nothing to tear down; symmetry with HTTP
        return None


class HTTPTarget:
    """Drive a live ``repro.server`` over keep-alive HTTP connections.

    Connection-level failures are retried **once** on a fresh socket before
    counting as an error.  The pool already re-sends transparently when an
    *idle pooled* socket turns out to have been closed by the server; the
    extra retry here also covers a reset on a fresh connection — the
    accept-queue race against a worker draining out of a shared
    ``SO_REUSEPORT`` port during a rolling restart.  Predictions are
    idempotent and read-only, so one re-send is always safe.
    """

    #: Transport-level failures eligible for the single re-send.
    _RETRYABLE = (ConnectionError, asyncio.IncompleteReadError, OSError)

    def __init__(self, host: str, port: int, route: str) -> None:
        self.host = host
        self.port = port
        self.route = route
        self._pool: ConnectionPool | None = None
        #: Connection-level failures transparently retried (observability).
        self.retries = 0

    @property
    def path(self) -> str:
        return f"/routes/{self.route}/predict"

    async def predict(
        self, sequence: tuple[str, ...], key: str
    ) -> tuple[str, str | None]:
        if self._pool is None:
            self._pool = ConnectionPool(self.host, self.port)
        payload = {"sequence": list(sequence), "key": key}
        try:
            response = await self._pool.request("POST", self.path, payload)
        except self._RETRYABLE:
            self.retries += 1
            try:
                response = await self._pool.request("POST", self.path, payload)
            except Exception:
                return ERROR, None
        except Exception:
            return ERROR, None
        # Servers with tracing enabled echo the trace id back; the report
        # surfaces the ids of the slowest requests so an operator can jump
        # from a latency number straight to ``/debug/traces/<id>``.
        trace_id = response.headers.get(TRACE_HEADER.lower())
        if response.status == 200:
            return OK, trace_id
        if response.status == 429:
            return SHED, trace_id
        return ERROR, trace_id

    async def aclose(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None


class MultiHTTPTarget:
    """Drive several servers as one fleet, striping requests by routing key.

    For benchmarking worker fleets without a front balancer: each request's
    key picks a member (stable BLAKE2b hash), so per-key affinity matches
    what a consistent-hash tier would do and every member sees a fair,
    deterministic share of the key space.
    """

    def __init__(self, addresses: Iterable[tuple[str, int]], route: str) -> None:
        self._targets = [HTTPTarget(host, port, route) for host, port in addresses]
        if not self._targets:
            raise ValueError("MultiHTTPTarget needs at least one address")
        self.route = route

    @property
    def retries(self) -> int:
        return sum(target.retries for target in self._targets)

    def _member(self, key: str) -> HTTPTarget:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return self._targets[int.from_bytes(digest, "big") % len(self._targets)]

    async def predict(
        self, sequence: tuple[str, ...], key: str
    ) -> tuple[str, str | None]:
        return await self._member(key).predict(sequence, key)

    async def aclose(self) -> None:
        for target in self._targets:
            await target.aclose()


@dataclass(frozen=True)
class LoadReport:
    """The measured result of one workload run (JSON-serializable)."""

    mode: str  # "open" | "closed"
    seed: int
    n_requests: int
    ok: int
    shed: int
    errors: int
    duration_seconds: float
    throughput_rps: float  # completed-OK requests per wall-clock second
    offered_rate_rps: float | None  # open-loop target rate, if any
    concurrency: int | None  # closed-loop worker count, if any
    latency: dict  # over OK requests: count/mean_ms/max_ms/p50_ms/p95_ms/p99_ms
    #: Trace ids of the slowest completed requests (slowest first), echoed by
    #: traced targets via the ``X-Repro-Trace`` response header — each id is
    #: retrievable from the server's ``/debug/traces/<id>`` plane.
    slow_traces: tuple[dict, ...] = ()

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "n_requests": self.n_requests,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "duration_seconds": self.duration_seconds,
            "throughput_rps": self.throughput_rps,
            "offered_rate_rps": self.offered_rate_rps,
            "concurrency": self.concurrency,
            "latency": dict(self.latency),
            "slow_traces": [dict(entry) for entry in self.slow_traces],
        }

    def save(self, path: str | Path) -> Path:
        """Write the report as pretty, key-sorted JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n")
        return path


def latency_summary(seconds: Iterable[float]) -> dict:
    """p50/p95/p99, mean and max (milliseconds) over a latency sample."""
    samples = np.asarray(list(seconds), dtype=np.float64)
    if samples.size == 0:
        return {
            "count": 0, "mean_ms": 0.0, "max_ms": 0.0,
            "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
        }
    return {
        "count": int(samples.size),
        "mean_ms": float(1000.0 * samples.mean()),
        "max_ms": float(1000.0 * samples.max()),
        "p50_ms": float(1000.0 * np.quantile(samples, 0.50)),
        "p95_ms": float(1000.0 * np.quantile(samples, 0.95)),
        "p99_ms": float(1000.0 * np.quantile(samples, 0.99)),
    }


#: How many of the slowest requests get their trace ids recorded.
SLOW_TRACE_COUNT = 5


def _slowest_traces(
    outcomes: list[tuple[str, float, str | None]], limit: int = SLOW_TRACE_COUNT
) -> tuple[dict, ...]:
    """The *limit* slowest completed requests that carried a trace id."""
    traced = [
        (seconds, kind, trace_id)
        for kind, seconds, trace_id in outcomes
        if trace_id is not None
    ]
    traced.sort(key=lambda item: item[0], reverse=True)
    return tuple(
        {
            "trace_id": trace_id,
            "latency_ms": round(seconds * 1000.0, 3),
            "outcome": kind,
        }
        for seconds, kind, trace_id in traced[:limit]
    )


def _build_report(
    workload: Workload,
    outcomes: list[tuple[str, float, str | None]],
    duration: float,
    *,
    mode: str,
    concurrency: int | None,
) -> LoadReport:
    ok_latencies = [seconds for kind, seconds, _ in outcomes if kind == OK]
    ok = len(ok_latencies)
    shed = sum(1 for kind, _, _ in outcomes if kind == SHED)
    errors = sum(1 for kind, _, _ in outcomes if kind == ERROR)
    return LoadReport(
        mode=mode,
        seed=workload.seed,
        n_requests=len(workload),
        ok=ok,
        shed=shed,
        errors=errors,
        duration_seconds=float(duration),
        throughput_rps=float(ok / duration) if duration > 0 else 0.0,
        offered_rate_rps=workload.rate,
        concurrency=concurrency,
        latency=latency_summary(ok_latencies),
        slow_traces=_slowest_traces(outcomes),
    )


async def _timed_predict(
    target, request, due: float | None = None
) -> tuple[str, float, str | None]:
    """One request's outcome and latency, timed from *due* when given (the
    ``perf_counter`` instant an open-loop schedule meant to send it)."""
    start = time.perf_counter() if due is None else due
    trace_id: str | None = None
    try:
        result = await target.predict(request.sequence, request.key)
        # Built-in targets return ``(kind, trace_id)``; a bare outcome string
        # (custom / legacy targets) is accepted too and simply carries no id.
        if isinstance(result, tuple):
            kind, trace_id = result
        else:
            kind = result
    except Exception:
        kind = ERROR
    return kind, time.perf_counter() - start, trace_id


async def _open_loop(target, workload: Workload) -> LoadReport:
    # Each request is timed from when it was due, not from when its task
    # ran: a stall that delays later sends shows up in their latency.
    start = time.perf_counter()
    tasks: list[asyncio.Task] = []
    try:
        for request in workload.requests:
            due = start + request.arrival
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(_timed_predict(target, request, due)))
        outcomes = list(await asyncio.gather(*tasks))
        duration = time.perf_counter() - start
    finally:
        await target.aclose()
    return _build_report(workload, outcomes, duration, mode="open", concurrency=None)


async def _closed_loop(target, workload: Workload, concurrency: int) -> LoadReport:
    loop = asyncio.get_running_loop()
    iterator = iter(workload.requests)
    outcomes: list[tuple[str, float, str | None]] = []

    async def worker() -> None:
        for request in iterator:  # shared iterator: each request issued once
            outcomes.append(await _timed_predict(target, request))

    start = loop.time()
    try:
        await asyncio.gather(*(worker() for _ in range(concurrency)))
        duration = loop.time() - start
    finally:
        await target.aclose()
    return _build_report(workload, outcomes, duration, mode="closed", concurrency=concurrency)


def run_open_loop(target, workload: Workload) -> LoadReport:
    """Replay *workload* open-loop (requests fired at their arrival times).

    The workload must have been built with a ``rate`` (an arrival process);
    every scheduled request is issued and awaited — nothing is dropped by
    the generator itself, so ``ok + shed + errors == n_requests`` always
    holds and any loss is attributable to the target.
    """
    if workload.rate is None:
        raise ValueError("open-loop runs need a workload built with rate=...")
    return asyncio.run(_open_loop(target, workload))


def run_closed_loop(target, workload: Workload, *, concurrency: int = 4) -> LoadReport:
    """Replay *workload* closed-loop with *concurrency* one-outstanding workers."""
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    return asyncio.run(_closed_loop(target, workload, concurrency))
