"""Per-layer self times of traced requests, along the path that blocks them.

Input: the spans written by ``traced_server.py`` and the client's record
of each request.  A request's blocking path is

    generator lag -> parse -> server self -> trace begin/offer
    -> gateway self -> service self (queue wait) -> featurize -> encode
    -> model pass -> serialize

where a layer's self time is its span minus the part its children cover.
The model-layer spans a micro-batched request waited on ran on the batch
worker thread; they are found as the latest batch that both started and
ended inside the request's service span.  What the spans do not cover
(socket transport, event-loop scheduling) is reported as unattributed.

Both processes read ``time.perf_counter``, which is the system-wide
monotonic clock on Linux, so client and server times are comparable.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from stats import self_time

#: Spans of the model layers, in the order a batch runs them.
COMPUTE = ("featurize", "encode", "model")

#: Blocking-path components, in path order.
PATH = (
    "loadgen.late",
    "server.parse",
    "server.self",
    "trace",
    "gateway.self",
    "service.self",
    "featurize",
    "encode",
    "model",
    "server.serialize",
)


def _worker_batches(spans: Iterable[tuple]) -> list[list[tuple]]:
    """Group untraced compute spans into batches, one per featurize call."""
    by_thread: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        by_thread[span[4]].append(span)
    batches: list[list[tuple]] = []
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda span: span[1])
        current: list[tuple] | None = None
        for span in thread_spans:
            if span[0] == "featurize" or current is None:
                current = []
                batches.append(current)
            current.append(span)
    batches.sort(key=lambda batch: batch[-1][2])
    return batches


def _waited_batch(batches: list[list[tuple]], start: float, end: float) -> list[tuple]:
    """The latest batch that ran entirely inside ``[start, end]``."""
    chosen: list[tuple] = []
    for batch in batches:
        if batch[-1][2] > end:
            break
        if batch[0][1] >= start:
            chosen = batch
    return chosen


def blocking_paths(spans: Sequence[Sequence], requests: Sequence) -> list[dict[str, float]]:
    """One ``{component: ms, "latency": ms}`` dict per request with complete spans.

    *requests* are ``loadgen.Sent`` records; a request is kept when the
    server returned a trace id and the handler, gateway and service spans of
    that id were all recorded.
    """
    keyed: dict[str, dict[str, list[tuple]]] = defaultdict(lambda: defaultdict(list))
    untraced_compute = []
    for span in spans:
        span = tuple(span)
        if span[3] is None:
            if span[0] in COMPUTE:
                untraced_compute.append(span)
        else:
            keyed[span[3]][span[0]].append(span)
    batches = _worker_batches(untraced_compute)

    def interval(span: tuple) -> tuple[float, float]:
        return span[1], span[2]

    def total_ms(items: Iterable[tuple]) -> float:
        return sum(span[2] - span[1] for span in items) * 1000.0

    paths = []
    for request in requests:
        own = keyed.get(request.trace_id) if request.trace_id else None
        if not own or not all(own.get(name) for name in ("server.handler", "gateway", "service")):
            continue
        handler, gateway, service = (
            own["server.handler"][0], own["gateway"][0], own["service"][0]
        )
        trace_spans = own.get("trace.begin", []) + own.get("trace.offer", [])
        compute = [span for name in COMPUTE for span in own.get(name, [])]
        if not compute:
            compute = _waited_batch(batches, service[1], service[2])
        path = {
            "loadgen.late": request.late_ms,
            "server.parse": total_ms(own.get("server.parse", [])),
            "server.self": self_time(
                interval(handler), [interval(gateway)] + [interval(s) for s in trace_spans]
            ) * 1000.0,
            "trace": total_ms(trace_spans),
            "gateway.self": self_time(interval(gateway), [interval(service)]) * 1000.0,
            "service.self": self_time(
                interval(service), [interval(span) for span in compute]
            ) * 1000.0,
            "server.serialize": total_ms(own.get("server.serialize", [])),
            "latency": request.latency_ms,
        }
        for name in COMPUTE:
            path[name] = total_ms(span for span in compute if span[0] == name)
        paths.append(path)
    return paths


def per_item_ms(spans: Sequence[Sequence], window: tuple[float, float]) -> dict[str, tuple[float, int, int]]:
    """``{layer: (ms, items, calls)}`` of the compute spans that started in *window*."""
    totals: dict[str, list] = {name: [0.0, 0, 0] for name in COMPUTE}
    for name, start, end, _trace, _thread, items in spans:
        if name in totals and window[0] <= start <= window[1]:
            totals[name][0] += (end - start) * 1000.0
            totals[name][1] += items
            totals[name][2] += 1
    return {name: tuple(value) for name, value in totals.items()}
