"""Versioned multi-model deployment gateway over the serving layer.

The gateway is the subsystem between "a bundle on disk" and live traffic:

* :mod:`repro.gateway.registry` — :class:`DeploymentRegistry`: versioned
  deployments per named route, atomic hot-swap / rollback with in-flight
  requests pinned to the version they resolved;
* :mod:`repro.gateway.policies` — deterministic traffic policies (hash-based
  A/B split, canary-by-fraction, shadow mirroring, ensembles), all keyed by
  BLAKE2b buckets so routing is identical across processes and runs;
* :mod:`repro.gateway.ensemble` — label-space alignment and bitwise-
  reproducible probability combination (mean / weighted / majority);
* :mod:`repro.gateway.gateway` — :class:`ModelGateway`, the front door tying
  the above into ``predict`` / ``predict_proba`` / batch calls plus
  ``health_snapshot()``.
"""

from repro.gateway.ensemble import align_to_label_space, combine_probabilities
from repro.gateway.gateway import ModelGateway
from repro.gateway.policies import (
    ABSplit,
    ActiveVersion,
    Canary,
    Ensemble,
    RouteView,
    RoutingDecision,
    Shadow,
    TrafficPolicy,
    derive_request_key,
    request_bucket,
)
from repro.gateway.registry import (
    Deployment,
    DeploymentRegistry,
    RouteSnapshot,
    service_model_name,
)
from repro.observability import CounterSet, RouteMetrics

__all__ = [
    "ABSplit",
    "ActiveVersion",
    "Canary",
    "CounterSet",
    "Deployment",
    "DeploymentRegistry",
    "Ensemble",
    "ModelGateway",
    "RouteMetrics",
    "RouteSnapshot",
    "RouteView",
    "RoutingDecision",
    "Shadow",
    "TrafficPolicy",
    "align_to_label_space",
    "combine_probabilities",
    "derive_request_key",
    "request_bucket",
    "service_model_name",
]
