"""Run ``repro-serve`` with benchmark-owned spans around each layer's functions.

Usage (``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_server.py SPAN_FILE -- <repro-serve arguments>

The launcher wraps the public entry point of every layer a predict request
crosses, then runs the unchanged ``repro.server.cli.main``.  Spans stay in
memory and are written to *SPAN_FILE* as JSON once the server has drained.
Each span is ``[name, start, end, trace_id, thread, items]``; times are
``perf_counter`` seconds.  ``trace_id`` ties a span to its request (the id
the server echoes in ``X-Repro-Trace``); spans of the micro-batch worker
thread serve several requests and carry ``null``.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys
import threading
from time import perf_counter as now

#: The request being answered on this connection task (a one-key dict whose
#: trace id is filled in when the server begins the request's trace).
_REQUEST: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)


class SpanRecorder:
    """Append-only span list; ``list.append`` is atomic under the GIL."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def add(self, name: str, start: float, end: float, owner, items: int = 0) -> None:
        self.spans.append((name, start, end, owner, threading.get_ident(), items))

    def dump(self, path: str) -> None:
        rows = []
        for name, start, end, owner, thread, items in self.spans:
            # Loop-side spans belong to a request record; keep those of
            # predict requests only (the ones that began a trace).
            trace_id = owner.get("trace_id") if isinstance(owner, dict) else owner
            if isinstance(owner, dict) and trace_id is None:
                continue
            rows.append([name, start, end, trace_id, thread, items])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


def _ambient_trace_id() -> str | None:
    from repro.trace import current_trace

    trace = current_trace()
    return trace.trace_id if trace is not None else None


def install(recorder: SpanRecorder) -> None:
    """Wrap the layer functions in place; call before the server is built."""
    from repro.gateway.gateway import ModelGateway
    from repro.models.base import CuisineModel
    from repro.models.registry import _FACTORIES
    from repro.server import app
    from repro.serving.featurizer import BatchFeaturizer, PrecomputedTfidfEncoder
    from repro.serving.service import PredictionService
    from repro.trace import TraceStore, Tracer

    read_request = app.read_request

    async def traced_read_request(reader, **kwargs):
        # Wait for the first byte outside the span: an idle keep-alive
        # connection parked in a read is not parse time.
        if not reader._buffer and not reader.at_eof():
            await reader._wait_for_data("read_request")
        start = now()
        request = await read_request(reader, **kwargs)
        record = {"trace_id": None}
        _REQUEST.set(record)
        recorder.add("server.parse", start, now(), record)
        return request

    app.read_request = traced_read_request

    json_response = app.json_response

    def traced_json_response(*args, **kwargs):
        start = now()
        try:
            return json_response(*args, **kwargs)
        finally:
            recorder.add("server.serialize", start, now(), _REQUEST.get())

    app.json_response = traced_json_response

    handle_predict = app.ModelServer._handle_predict

    async def traced_handle_predict(self, route, request):
        start = now()
        try:
            return await handle_predict(self, route, request)
        finally:
            recorder.add("server.handler", start, now(), _REQUEST.get())

    app.ModelServer._handle_predict = traced_handle_predict

    begin = Tracer.begin

    def traced_begin(self, key, **kwargs):
        start = now()
        trace = begin(self, key, **kwargs)
        record = _REQUEST.get()
        if record is not None and trace is not None:
            record["trace_id"] = trace.trace_id
        recorder.add("trace.begin", start, now(), record)
        return trace

    Tracer.begin = traced_begin

    offer = TraceStore.offer

    def traced_offer(self, trace):
        start = now()
        try:
            return offer(self, trace)
        finally:
            recorder.add("trace.offer", start, now(), _REQUEST.get())

    TraceStore.offer = traced_offer

    def wrap(owner, attribute: str, name: str, items=None) -> None:
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = now()
            result = original(*args, **kwargs)
            count = items(args, result) if items is not None else 0
            recorder.add(name, start, now(), _ambient_trace_id(), count)
            return result

        setattr(owner, attribute, wrapper)

    wrap(ModelGateway, "predict_proba", "gateway")
    wrap(ModelGateway, "predict_proba_batch", "gateway")
    wrap(PredictionService, "predict_proba", "service")
    wrap(PredictionService, "predict_proba_batch", "service")
    wrap(BatchFeaturizer, "batch_tokens", "featurize", lambda args, _: len(args[1]))
    wrap(PrecomputedTfidfEncoder, "encode", "encode", lambda args, _: len(args[1]))

    # The model pass is whichever of predict_proba_tokens / _features the
    # service calls; only the outermost call on a thread is a span.
    in_model = threading.local()

    def wrap_model(owner, attribute: str) -> None:
        original = vars(owner)[attribute]

        @functools.wraps(original)
        def wrapper(self, features):
            if getattr(in_model, "active", False):
                return original(self, features)
            in_model.active = True
            start = now()
            try:
                result = original(self, features)
            finally:
                in_model.active = False
            recorder.add("model", start, now(), _ambient_trace_id(), len(result))
            return result

        setattr(owner, attribute, wrapper)

    wrap_model(CuisineModel, "predict_proba_tokens")
    model_classes = {
        cls
        for factory in _FACTORIES.values()
        for cls in getattr(factory, "__mro__", ())
        if "predict_proba_features" in vars(cls) and cls is not CuisineModel
    }
    for cls in model_classes:
        wrap_model(cls, "predict_proba_features")

    deploy = ModelGateway.deploy

    def traced_deploy(self, *args, **kwargs):
        start = now()
        try:
            return deploy(self, *args, **kwargs)
        finally:
            recorder.add("setup.bundle_load", start, now(), None)

    ModelGateway.deploy = traced_deploy


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    span_file, serve_args = argv[0], argv[2:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.server import cli

    try:
        return cli.main(serve_args)
    finally:
        recorder.dump(span_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
