"""The asyncio HTTP serving frontier — the network front door of the stack.

``repro.server`` fronts a :class:`~repro.gateway.ModelGateway` with a
dependency-free HTTP/1.1 server built directly on :mod:`asyncio` streams:

* :mod:`repro.server.protocol` — wire-level request parsing / response
  rendering with bounded header and body sizes, keep-alive and pipelining
  semantics, and structured :class:`HTTPError` payloads;
* :mod:`repro.server.app` — :class:`ModelServer`: JSON predict endpoints
  (single + batch with per-request routing keys), ``/healthz`` and a flat
  text ``/metrics`` export, a token-guarded ``/admin`` control plane
  (deploy / swap / rollback / retire / set-policy), bounded-concurrency
  admission control with fast 429 shedding, and graceful drain — on
  :class:`~repro.server.app.HTTPFrontEnd`, the connection loop and
  lifecycle the cluster supervisor runs on too;
* :mod:`repro.server.cli` — the ``repro-serve`` console entry point.

The sibling :mod:`repro.loadgen` package generates seeded traffic against
this server (or directly against a gateway) and reports throughput /
latency quantiles.
"""

from repro.server.app import ModelServer, ServerHandle, policy_from_spec
from repro.server.protocol import (
    HTTPError,
    HTTPRequest,
    json_response,
    read_request,
    render_response,
)

__all__ = [
    "HTTPError",
    "HTTPRequest",
    "ModelServer",
    "ServerHandle",
    "json_response",
    "policy_from_spec",
    "read_request",
    "render_response",
]
