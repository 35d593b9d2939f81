"""Bounded in-memory trace retention with head + tail sampling.

The store is offered every finished trace.  It keeps a trace when *any* of
three verdicts fires:

* **head** — the trace's deterministic key-hash sampling verdict
  (``trace.sampled``, decided before the request ran);
* **slow** — end-to-end duration at or above the tail-sampling threshold;
* **error** — the trace was marked errored (HTTP 4xx/5xx, shed, exception).

Slow and error traces are therefore captured at 100% regardless of the head
sample rate.  Retention is a ring buffer: the newest ``capacity`` kept
traces survive, oldest evicted first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.trace.tracing import Trace


class TraceStore:
    """Ring buffer of kept traces, indexed by trace id.

    Thread-safe; serving threads offer, the debug endpoint reads.
    """

    def __init__(self, capacity: int = 256, *, slow_ms: float = 250.0) -> None:
        if capacity < 1:
            raise ValueError("TraceStore capacity must be >= 1")
        self.capacity = int(capacity)
        self.slow_ms = float(slow_ms)
        self._traces: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._lock = threading.Lock()
        self._offered = 0
        self._kept_head = 0
        self._kept_slow = 0
        self._kept_error = 0
        self._dropped = 0
        #: id of the slowest kept trace — the /metrics latency exemplar.
        self._exemplar_id: str | None = None
        self._exemplar_ms = -1.0

    # ------------------------------------------------------------------

    def offer(self, trace: Trace | None) -> bool:
        """Consider a finished trace for retention; True iff it was kept."""
        if trace is None:
            return False
        duration_ms = trace.duration_ms
        slow = duration_ms >= self.slow_ms
        keep = trace.sampled or slow or trace.error
        with self._lock:
            self._offered += 1
            if not keep:
                self._dropped += 1
                return False
            if trace.sampled:
                self._kept_head += 1
            if slow:
                self._kept_slow += 1
            if trace.error:
                self._kept_error += 1
            payload = trace.to_dict()
            payload["slow"] = slow
            self._traces[trace.trace_id] = payload
            self._traces.move_to_end(trace.trace_id)
            while len(self._traces) > self.capacity:
                evicted_id, _ = self._traces.popitem(last=False)
                if evicted_id == self._exemplar_id:
                    self._exemplar_id = None
                    self._exemplar_ms = -1.0
            if duration_ms > self._exemplar_ms and trace.trace_id in self._traces:
                self._exemplar_id = trace.trace_id
                self._exemplar_ms = duration_ms
        return True

    # ------------------------------------------------------------------

    def get(self, trace_id: str) -> dict[str, Any] | None:
        with self._lock:
            payload = self._traces.get(trace_id)
            return dict(payload) if payload is not None else None

    def list(self, limit: int = 50) -> list[dict[str, Any]]:
        """Newest-first summaries (id, key, duration, flags, span count)."""
        with self._lock:
            items = list(self._traces.values())
        summaries = []
        for payload in reversed(items[-limit:] if limit else items):
            summaries.append(
                {
                    "trace_id": payload.get("trace_id"),
                    "key": payload.get("key"),
                    "duration_ms": payload.get("duration_ms"),
                    "sampled": payload.get("sampled", False),
                    "slow": payload.get("slow", False),
                    "error": payload.get("error", False),
                    "spans": len(payload.get("spans", ())),
                }
            )
        return summaries

    def dump(self) -> list[dict[str, Any]]:
        """Full kept traces, oldest first (the JSONL export order)."""
        with self._lock:
            return [dict(payload) for payload in self._traces.values()]

    def exemplar(self) -> str | None:
        """Trace id of the slowest currently-kept trace, if any."""
        with self._lock:
            return self._exemplar_id

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "offered": self._offered,
                "kept": len(self._traces),
                "kept_head": self._kept_head,
                "kept_slow": self._kept_slow,
                "kept_error": self._kept_error,
                "dropped": self._dropped,
                "capacity": self.capacity,
                "slow_ms": self.slow_ms,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)
