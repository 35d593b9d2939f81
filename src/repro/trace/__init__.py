"""repro.trace — dependency-free request tracing for the serving stack.

A :class:`Trace` carries a deterministic 128-bit id and an ordered list of
:class:`Span` records (name, parent, monotonic start/duration, structured
attributes).  Context propagates in-process through a ``contextvars`` variable
and across a client → server network hop through the ``X-Repro-Trace``
header, so a client's own id stitches to the server/gateway/service spans.

Design constraints (see docs/architecture.md, "Request tracing"):

* **Deterministic** — trace ids derive from ``(seed, request key, per-key
  counter)`` via BLAKE2b, personalised by the fleet worker id; head
  sampling hashes the request key.  No wall-clock and no ``os.urandom``
  anywhere in the id path, so a seeded loadgen scenario reproduces the
  same sampled trace set run after run.
* **Off the critical path** — a disabled tracer returns ``None`` from
  ``begin()``; sampled-out requests still get an id (so the response header
  and exemplars work) but every span helper degrades to a no-op.
* **Tail sampling** — the bounded :class:`TraceStore` always keeps slow and
  error traces regardless of the head-sampling verdict.
"""

from repro.trace.export import (
    load_traces_jsonl,
    save_traces_jsonl,
    workload_from_traces,
)
from repro.trace.store import TraceStore
from repro.trace.tracing import (
    TRACE_HEADER,
    Span,
    Trace,
    Tracer,
    activate,
    current_span_id,
    current_trace,
    parse_trace_header,
)

__all__ = [
    "TRACE_HEADER",
    "Span",
    "Trace",
    "TraceStore",
    "Tracer",
    "activate",
    "current_span_id",
    "current_trace",
    "load_traces_jsonl",
    "parse_trace_header",
    "save_traces_jsonl",
    "workload_from_traces",
]
