"""Trace/Span model, deterministic ids, and context propagation.

The module is deliberately dependency-free (stdlib only) and sits *below*
every serving layer: ``repro.server``, ``repro.gateway``, ``repro.serving``
and ``repro.cluster`` all import it, never the other way around.

Id derivation
-------------
``trace_id = blake2b("{seed}|{key}|{n}", digest_size=16, person=worker)``
where ``n`` is a per-key monotonic counter and ``worker`` is the fleet
worker id (empty outside a fleet, which is BLAKE2b's all-zero default).
128 bits, hex-encoded, fully determined by the tracer seed, the worker and
the order of requests per key — replaying a seeded loadgen scenario yields
byte-identical trace ids.  Fleet workers share one seed and count keys
independently, so the worker personalisation is what keeps two workers
from minting one id for two different requests.  The head-sampling verdict
hashes only ``(seed, key)``, so every request of a given key is sampled (or
not) consistently on every worker, and changing the sample *rate* never
re-shuffles which keys are chosen first.

Propagation
-----------
In-process context rides a :data:`contextvars.ContextVar` holding
``(trace, parent_span_id)``.  ``asyncio``'s ``run_in_executor`` does **not**
propagate contextvars into pool threads, so the server copies the context
inside :func:`activate` and runs the pool call in that copy.  Across the
network, a client may send
``X-Repro-Trace: <id>;sampled=<0|1>;parent=<span>`` and the server adopts it
with :meth:`Tracer.adopt`.
"""

from __future__ import annotations

import contextvars
import hashlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Request/response header carrying trace context across process hops.
TRACE_HEADER = "X-Repro-Trace"

_KEY_SEPARATOR = "\x1f"

#: Active trace context: ``(trace, parent_span_id)`` or ``None``.
_ACTIVE: contextvars.ContextVar[tuple["Trace", str | None] | None] = (
    contextvars.ContextVar("repro_trace_active", default=None)
)

#: Per-key counter dicts are cleared past this size so a long-lived tracer
#: under an adversarial key stream cannot grow without bound.  The clear is
#: deterministic (purely a function of the request history), preserving the
#: replayability contract, and bumps the tracer's generation so restarted
#: counters never mint an id a previous generation already issued.
_MAX_TRACKED_KEYS = 65536


def _bucket(key: str, salt: str) -> float:
    """Deterministic bucket in ``[0, 1)`` — same construction as the
    gateway's ``request_bucket``, duplicated here so ``repro.trace`` stays
    dependency-free below the gateway layer."""
    payload = f"{salt}{_KEY_SEPARATOR}{key}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass
class Span:
    """One timed operation inside a trace.

    ``start_ms`` is relative to the trace's own clock origin (monotonic, no
    wall time); ``duration_ms`` is ``None`` while the span is open.
    """

    span_id: str
    name: str
    parent_id: str | None = None
    start_ms: float = 0.0
    duration_ms: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "parent_id": self.parent_id,
            "start_ms": round(self.start_ms, 4),
            "duration_ms": None
            if self.duration_ms is None
            else round(self.duration_ms, 4),
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        return cls(
            span_id=str(payload["span_id"]),
            name=str(payload["name"]),
            parent_id=payload.get("parent_id"),
            start_ms=float(payload.get("start_ms", 0.0)),
            duration_ms=(
                None
                if payload.get("duration_ms") is None
                else float(payload["duration_ms"])
            ),
            attrs=dict(payload.get("attrs", {})),
        )


class Trace:
    """A deterministic 128-bit id plus an ordered list of spans.

    Span append is guarded by a lock — the server root span on the event
    loop and the executor thread running the gateway call both contribute
    spans to the same trace object.
    """

    __slots__ = (
        "trace_id",
        "key",
        "sampled",
        "error",
        "spans",
        "_t0",
        "_lock",
        "_span_seq",
    )

    def __init__(self, trace_id: str, key: str, *, sampled: bool) -> None:
        self.trace_id = trace_id
        self.key = key
        self.sampled = sampled
        self.error = False
        self.spans: list[Span] = []
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._span_seq = 0

    # ------------------------------------------------------------------
    # span lifecycle

    def _elapsed_ms(self) -> float:
        return (time.perf_counter() - self._t0) * 1000.0

    def start_span(
        self,
        name: str,
        *,
        parent: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Open a span; ``parent=None`` falls back to the ambient span."""
        if parent is None:
            parent = current_span_id()
        with self._lock:
            self._span_seq += 1
            span = Span(
                span_id=f"s{self._span_seq}",
                name=name,
                parent_id=parent,
                start_ms=self._elapsed_ms(),
                attrs=dict(attrs or {}),
            )
            self.spans.append(span)
        return span

    def end_span(self, span: Span) -> None:
        if span.duration_ms is None:
            span.duration_ms = self._elapsed_ms() - span.start_ms

    def add_span(
        self,
        name: str,
        *,
        start_ms: float,
        duration_ms: float,
        parent: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Record an already-measured interval on the trace clock as a closed
        span."""
        with self._lock:
            self._span_seq += 1
            span = Span(
                span_id=f"s{self._span_seq}",
                name=name,
                parent_id=parent,
                start_ms=start_ms,
                duration_ms=duration_ms,
                attrs=dict(attrs or {}),
            )
            self.spans.append(span)
        return span

    def add_stamped_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Record the interval between two ``time.perf_counter()`` stamps
        (e.g. the service's per-request stage stamps, set on the batch
        thread) as a closed span on this trace's clock."""
        return self.add_span(
            name,
            start_ms=(start - self._t0) * 1000.0,
            duration_ms=(end - start) * 1000.0,
            parent=parent,
            attrs=attrs,
        )

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Iterator[Span]:
        """Context manager: open a span, activate it as the ambient parent,
        close it on exit; an escaping exception marks span + trace errored."""
        sp = self.start_span(name, parent=parent, attrs=attrs)
        token = _ACTIVE.set((self, sp.span_id))
        try:
            yield sp
        except BaseException:
            sp.attrs["error"] = True
            self.error = True
            raise
        finally:
            _ACTIVE.reset(token)
            self.end_span(sp)

    # ------------------------------------------------------------------
    # inspection / serialization

    @property
    def root(self) -> Span | None:
        for span in self.spans:
            if span.parent_id is None:
                return span
        return self.spans[0] if self.spans else None

    @property
    def duration_ms(self) -> float:
        """End of the latest closed span (spans all share one clock origin)."""
        latest = 0.0
        with self._lock:
            for span in self.spans:
                if span.duration_ms is not None:
                    latest = max(latest, span.start_ms + span.duration_ms)
        return latest

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            spans = [span.to_dict() for span in self.spans]
        return {
            "trace_id": self.trace_id,
            "key": self.key,
            "sampled": self.sampled,
            "error": self.error,
            "duration_ms": round(self.duration_ms, 4),
            "spans": spans,
        }


class Tracer:
    """Creates traces with deterministic ids and head-sampling verdicts.

    ``sample`` is the head-sampling rate in ``[0, 1]``; ``slow_ms`` is the
    tail-sampling latency threshold used by the :class:`TraceStore` this
    tracer feeds.  A tracer constructed with ``enabled=False`` returns
    ``None`` from :meth:`begin` — the entire instrumentation surface then
    degrades to a single ``is None`` check per request.  ``worker_id``
    personalises the ids of one fleet worker (see the module docstring);
    ``None`` mints the ids of a lone server.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        sample: float = 1.0,
        slow_ms: float = 250.0,
        enabled: bool = True,
        worker_id: int | None = None,
    ) -> None:
        self._person = b"" if worker_id is None else str(int(worker_id)).encode("ascii")
        if len(self._person) > hashlib.blake2b.PERSON_SIZE:
            raise ValueError(f"worker_id {worker_id} is too long to personalise trace ids")
        self.seed = int(seed)
        self.sample = min(1.0, max(0.0, float(sample)))
        self.slow_ms = float(slow_ms)
        self.enabled = bool(enabled)
        self._salt = f"trace:{self.seed}"
        self._key_counts: dict[str, int] = {}
        self._generation = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def head_sampled(self, key: str) -> bool:
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        return _bucket(key, self._salt) < self.sample

    def trace_id_for(self, key: str) -> str:
        """Deterministic 128-bit id: BLAKE2b over seed, key, per-key count.

        The worker id is the BLAKE2b personalisation and the counter
        generation its salt.  Generation 0 is the all-zero default salt, so
        ids minted before the first counter clear are unchanged; later
        generations hash under a different salt, which a key containing the
        separator cannot forge the way it could a payload suffix.
        """
        with self._lock:
            if len(self._key_counts) > _MAX_TRACKED_KEYS:
                self._key_counts.clear()
                self._generation += 1
            count = self._key_counts.get(key, 0)
            self._key_counts[key] = count + 1
            generation = self._generation
        payload = f"{self.seed}{_KEY_SEPARATOR}{key}{_KEY_SEPARATOR}{count}"
        return hashlib.blake2b(
            payload.encode("utf-8"),
            digest_size=16,
            salt=generation.to_bytes(16, "little"),
            person=self._person,
        ).hexdigest()

    def begin(self, key: str, *, sampled: bool | None = None) -> Trace | None:
        """Start a trace for a request key, or ``None`` when disabled."""
        if not self.enabled:
            return None
        if sampled is None:
            sampled = self.head_sampled(key)
        return Trace(self.trace_id_for(key), key, sampled=sampled)

    def adopt(
        self, trace_id: str, key: str, *, sampled: bool
    ) -> Trace | None:
        """Continue a trace whose id a client sent in ``X-Repro-Trace``."""
        if not self.enabled:
            return None
        return Trace(trace_id, key, sampled=sampled)


# ----------------------------------------------------------------------
# ambient context helpers


def current_trace() -> Trace | None:
    active = _ACTIVE.get()
    return active[0] if active is not None else None


def current_span_id() -> str | None:
    active = _ACTIVE.get()
    return active[1] if active is not None else None


@contextmanager
def activate(trace: Trace | None, parent: str | None = None) -> Iterator[None]:
    """Make ``trace`` the ambient trace for the enclosed block (no-op when
    ``trace`` is ``None``, so call sites never branch)."""
    if trace is None:
        yield
        return
    token = _ACTIVE.set((trace, parent))
    try:
        yield
    finally:
        _ACTIVE.reset(token)


# ----------------------------------------------------------------------
# header propagation


def format_trace_header(trace: Trace, *, parent: str | None = None) -> str:
    """Render the ``X-Repro-Trace`` value for a downstream hop."""
    value = f"{trace.trace_id};sampled={1 if trace.sampled else 0}"
    if parent:
        value += f";parent={parent}"
    return value


def parse_trace_header(value: str) -> tuple[str, bool, str | None] | None:
    """Parse an ``X-Repro-Trace`` value → ``(trace_id, sampled, parent)``.

    Returns ``None`` for malformed values — a bad header must never take
    down the request it rides on.
    """
    if not value:
        return None
    parts = [part.strip() for part in value.split(";")]
    trace_id = parts[0]
    if not trace_id or not all(c in "0123456789abcdef" for c in trace_id):
        return None
    sampled = False
    parent: str | None = None
    for part in parts[1:]:
        if part.startswith("sampled="):
            sampled = part[len("sampled=") :] == "1"
        elif part.startswith("parent="):
            parent = part[len("parent=") :] or None
    return trace_id, sampled, parent
