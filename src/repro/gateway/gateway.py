"""The deployment gateway: the single front door for multi-model traffic.

:class:`ModelGateway` composes the pieces of this package into the request
path clients actually call:

1. the :class:`~repro.gateway.registry.DeploymentRegistry` hands out one
   atomic :class:`~repro.gateway.registry.RouteSnapshot` per request —
   active pointer, policy, metrics and deployment table captured under a
   single lock acquisition;
2. the snapshot's :class:`~repro.gateway.policies.TrafficPolicy` turns the
   request key into a :class:`~repro.gateway.policies.RoutingDecision`;
3. the decision resolves against the *same snapshot*, pinning the request
   to a :class:`~repro.gateway.registry.Deployment` — no interleaving of
   swap/retire can redirect or strand it — and the underlying
   :class:`~repro.serving.PredictionService` does the batched, cached
   inference;
4. shadow traffic is handed to a small background executor (never blocking
   the primary response) which records label agreement with the primary;
5. ensemble routes fan the request across members and combine their
   label-space-aligned outputs (:mod:`repro.gateway.ensemble`);
6. every route records requests / errors / per-variant counts / shadow
   agreement and a latency histogram through :mod:`repro.observability`,
   aggregated by :meth:`ModelGateway.health_snapshot`.

Responses are always probability vectors over the **route's** label space
(identical label spaces pass through bit-for-bit).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.gateway.ensemble import align_to_label_space, combine_probabilities
from repro.gateway.policies import (
    Ensemble,
    RoutingDecision,
    TrafficPolicy,
    derive_request_key,
)
from repro.gateway.registry import Deployment, DeploymentRegistry, RouteSnapshot
from repro.models.base import CuisineModel
from repro.observability import process_stats
from repro.serving.bundle import ModelBundle
from repro.serving.service import PredictionService
from repro.trace import activate, current_trace


class ModelGateway:
    """Route requests across versioned deployments with live traffic control.

    Args:
        registry: The deployment registry to route over; a private one (with
            a private :class:`PredictionService`) is created by default.
        shadow_workers: Threads mirroring shadow traffic off the critical
            path.
        owns_service: Whether :meth:`close` tears down the underlying
            :class:`PredictionService`.  Defaults to owning it exactly when
            the gateway created its own registry — an injected registry's
            service may be shared with other components and is left running.
            Pass ``True`` to make the gateway the service's terminal owner
            even over an injected registry (e.g. a ``repro.server`` drain),
            or ``False`` to keep a privately-created service alive past the
            gateway.
        **service_kwargs: Forwarded to the private registry (and through it
            to its service) when *registry* is ``None`` — including the
            registry-level ``mmap_bundles=True`` flag that memory-maps
            bundles deployed by path (one physical copy of the arrays shared
            across every process serving the bundle).
    """

    def __init__(
        self,
        registry: DeploymentRegistry | None = None,
        *,
        shadow_workers: int = 2,
        owns_service: bool | None = None,
        **service_kwargs,
    ) -> None:
        if registry is not None and service_kwargs:
            raise ValueError("pass either a registry or service kwargs, not both")
        if shadow_workers < 1:
            raise ValueError(f"shadow_workers must be >= 1, got {shadow_workers}")
        #: Whether close() tears down the service; defaults to "created it".
        self._owns_service = owns_service if owns_service is not None else registry is None
        self.registry = registry if registry is not None else DeploymentRegistry(**service_kwargs)
        self._shadow_pool = ThreadPoolExecutor(
            max_workers=shadow_workers, thread_name_prefix="gateway-shadow"
        )
        self._shadow_lock = threading.Lock()
        self._shadow_futures: set = set()
        self._closed = False

    @property
    def service(self) -> PredictionService:
        return self.registry.service

    # ------------------------------------------------------------------
    # control plane (thin delegation to the registry)
    # ------------------------------------------------------------------
    def deploy(
        self,
        route: str,
        version: str,
        model: CuisineModel | ModelBundle | str | Path,
        **kwargs,
    ) -> Deployment:
        return self.registry.deploy(route, version, model, **kwargs)

    def deploy_export_dir(
        self, export_dir: str | Path, version: str, routes: Sequence[str] | None = None, **kwargs
    ) -> dict[str, Deployment]:
        return self.registry.deploy_export_dir(export_dir, version, routes, **kwargs)

    def swap(self, route: str, version: str) -> Deployment:
        return self.registry.swap(route, version)

    def rollback(self, route: str) -> Deployment:
        return self.registry.rollback(route)

    def retire(self, route: str, version: str) -> None:
        self.registry.retire(route, version)

    def set_policy(self, route: str, policy: TrafficPolicy) -> None:
        self.registry.set_policy(route, policy)

    def clear_policy(self, route: str) -> None:
        self.registry.clear_policy(route)

    def record_verdict(self, route: str, verdict) -> None:
        """Store an eval-gate verdict (a ``repro.eval`` ``Verdict`` or dict).

        The stored form surfaces in :meth:`health_snapshot` (and so in
        ``stats()`` / ``/metrics``) as each route's compact ``eval`` summary.
        """
        payload = verdict.as_dict() if hasattr(verdict, "as_dict") else verdict
        self.registry.set_verdict(route, payload)

    def verdict(self, route: str) -> dict | None:
        return self.registry.verdict(route)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    # Shared with the serving layer so the two can never diverge; validating
    # here keeps routing (key derivation, grouping) over canonical tuples.
    _validated = staticmethod(PredictionService._validated)

    def predict_proba(
        self,
        route: str,
        sequence: Iterable[str],
        *,
        key: str | None = None,
        version: str | None = None,
    ) -> np.ndarray:
        """Probability vector over the route's label space for one request
        (a batch of one; see :meth:`predict_proba_batch`)."""
        keys = [key] if key is not None else None
        return self.predict_proba_batch(route, [sequence], keys=keys, version=version)[0]

    def predict(
        self,
        route: str,
        sequence: Iterable[str],
        *,
        key: str | None = None,
        version: str | None = None,
    ) -> str:
        """Predicted cuisine name (in the route's label space)."""
        keys = [key] if key is not None else None
        return self.predict_batch(route, [sequence], keys=keys, version=version)[0]

    def predict_proba_batch(
        self,
        route: str,
        sequences: Sequence[Iterable[str]],
        *,
        keys: Sequence[str] | None = None,
        version: str | None = None,
    ) -> np.ndarray:
        """Probability matrix for a batch, each request routed by its own key.

        Args:
            route: Route name.
            sequences: Raw recipe item sequences.
            keys: One request key per sequence, driving split/canary
                assignment; by default each key is derived from its sequence's
                content (identical sequences → identical variants, across
                processes).
            version: Bypass the policy and pin a specific deployed version
                (debugging / offline comparison).

        Requests landing on the same variant share one service call; shadow
        mirrors are likewise batched per shadow version.
        """
        start = time.perf_counter()
        validated = [self._validated(sequence) for sequence in sequences]
        snapshot = self.registry.route_snapshot(route)
        metrics = snapshot.metrics
        if not validated:
            return np.zeros((0, len(snapshot.label_space)))
        if keys is not None and len(keys) != len(validated):
            raise ValueError(
                f"got {len(keys)} keys for {len(validated)} sequences"
            )

        groups: dict[tuple, list[int]] = {}
        # Mirrors are grouped by the (shadow, primary) pair — not the shadow
        # alone — so agreement counters attribute to the exact version pair
        # each mirrored request resolved, even mid-hot-swap.
        shadow_groups: dict[tuple[str, str], list[int]] = {}
        for index, item in enumerate(validated):
            if version is not None:
                decision = RoutingDecision(primary=version)
            else:
                request_key = keys[index] if keys is not None else derive_request_key(item)
                decision = snapshot.policy.decide(request_key, snapshot.view)
            groups.setdefault((decision.primary, decision.ensemble), []).append(index)
            primary_variant = (
                decision.primary if decision.primary else "+".join(decision.ensemble)
            )
            for shadow in decision.shadows:
                shadow_groups.setdefault((shadow, primary_variant), []).append(index)

        results = np.zeros((len(validated), len(snapshot.label_space)))
        variant_counts: dict[str, int] = {}
        trace = current_trace()
        route_span = None
        if trace is not None:
            # The routing decision rides on the span: which policy fired,
            # whether the caller pinned a version, how many mirrors it
            # queued, and (below) the variants the requests resolved to.
            attrs = {
                "route": route,
                "policy": snapshot.policy.describe().get("kind", "active"),
                "batch": len(validated),
                "shadows": sum(len(indices) for indices in shadow_groups.values()),
            }
            if version is not None:
                attrs["pinned"] = version
            route_span = trace.start_span("gateway.route", attrs=attrs)
        try:
            with activate(trace, route_span.span_id if route_span else None):
                for (primary, ensemble), indices in groups.items():
                    group_sequences = [validated[i] for i in indices]
                    if ensemble:
                        matrix, variant = self._predict_ensemble(
                            snapshot, ensemble, group_sequences
                        )
                    else:
                        deployment = snapshot.deployment(primary)
                        variant = deployment.version
                        matrix = self.service.predict_proba_batch(
                            deployment.service_name, group_sequences
                        )
                        matrix = self._aligned(matrix, deployment, snapshot.label_space)
                    results[indices] = matrix
                    variant_counts[variant] = variant_counts.get(variant, 0) + len(indices)
            if route_span is not None:
                route_span.attrs["variants"] = dict(variant_counts)
        except BaseException:
            if trace is not None:
                trace.error = True
                route_span.attrs["error"] = True
            metrics.record_error(len(validated))
            raise
        finally:
            if trace is not None:
                trace.end_span(route_span)
        metrics.record_batch(variant_counts, time.perf_counter() - start)
        for (shadow, primary_variant), indices in shadow_groups.items():
            self._mirror(
                snapshot,
                shadow,
                [validated[i] for i in indices],
                results[indices],
                primary_variant,
            )
        return results

    def predict_batch(
        self,
        route: str,
        sequences: Sequence[Iterable[str]],
        *,
        keys: Sequence[str] | None = None,
        version: str | None = None,
    ) -> list[str]:
        """Predicted cuisine names for a batch of raw sequences."""
        probabilities = self.predict_proba_batch(route, sequences, keys=keys, version=version)
        route_space = self.registry.label_space(route)
        return [route_space[i] for i in probabilities.argmax(axis=1)]

    # ------------------------------------------------------------------
    # ensemble + alignment
    # ------------------------------------------------------------------
    @staticmethod
    def _aligned(
        matrix: np.ndarray, deployment: Deployment, route_space: tuple[str, ...]
    ) -> np.ndarray:
        return align_to_label_space(matrix, deployment.label_space, route_space)

    def _predict_ensemble(
        self,
        snapshot: RouteSnapshot,
        members: tuple[str, ...],
        sequences: Sequence[tuple[str, ...]],
    ) -> tuple[np.ndarray, str]:
        """Fan *sequences* across *members* and combine; returns (matrix, variant)."""
        method, weights = "mean", None
        if isinstance(snapshot.policy, Ensemble):
            method, weights = snapshot.policy.method, snapshot.policy.member_weights()
        aligned = []
        for member in members:
            deployment = snapshot.deployment(member)
            matrix = self.service.predict_proba_batch(deployment.service_name, sequences)
            aligned.append(self._aligned(matrix, deployment, snapshot.label_space))
        combined = combine_probabilities(aligned, method=method, weights=weights)
        return combined, "+".join(members)

    # ------------------------------------------------------------------
    # shadow traffic
    # ------------------------------------------------------------------
    def _mirror(
        self,
        snapshot: RouteSnapshot,
        shadow: str,
        sequences: Sequence[tuple[str, ...]],
        primary_probabilities: np.ndarray,
        primary_version: str,
    ) -> None:
        """Queue a shadow prediction; the caller's response is already final."""
        if self._closed:
            return
        try:
            future = self._shadow_pool.submit(
                self._run_shadow,
                snapshot,
                shadow,
                list(sequences),
                primary_probabilities.argmax(axis=1),
                primary_version,
            )
        except RuntimeError:
            # close() shut the executor down between the flag check and the
            # submit; mirrors are best-effort — the caller already has its
            # (successful) primary response.
            return
        with self._shadow_lock:
            self._shadow_futures.add(future)
        future.add_done_callback(self._discard_shadow_future)

    def _discard_shadow_future(self, future) -> None:
        with self._shadow_lock:
            self._shadow_futures.discard(future)

    def _run_shadow(
        self,
        snapshot: RouteSnapshot,
        shadow: str,
        sequences: list[tuple[str, ...]],
        primary_labels: np.ndarray,
        primary_version: str,
    ) -> None:
        metrics = snapshot.metrics
        try:
            # Resolved from the request's snapshot: the mirror is pinned to
            # the deployment table its primary saw, like any other request.
            deployment = snapshot.deployment(shadow)
            # Inline: the mirror's model pass runs on this shadow thread, so
            # it never queues on the batch worker ahead of primary traffic.
            matrix = self.service.predict_proba_batch(
                deployment.service_name, sequences, inline=True
            )
            shadow_labels = self._aligned(
                matrix, deployment, snapshot.label_space
            ).argmax(axis=1)
            matched = shadow_labels == primary_labels
            agreements = int(np.sum(matched))
            # Per-class attribution keyed by the *primary's* predicted label:
            # a regression confined to one cuisine shows up as a skewed
            # disagreement rate on that class even when the aggregate looks
            # healthy.
            by_class: dict[str, tuple[int, int]] = {}
            for index in np.unique(primary_labels):
                mask = primary_labels == index
                agree = int(np.sum(matched[mask]))
                by_class[snapshot.label_space[int(index)]] = (
                    agree,
                    int(np.sum(mask)) - agree,
                )
            metrics.record_shadow(
                shadow,
                agreements,
                len(sequences) - agreements,
                primary=primary_version,
                by_class=by_class,
            )
        except BaseException:
            metrics.record_shadow_error(len(sequences))

    def flush_shadows(self, timeout: float | None = 10.0) -> None:
        """Block until all queued shadow mirrors have completed."""
        with self._shadow_lock:
            pending = list(self._shadow_futures)
        if pending:
            wait(pending, timeout=timeout)

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    def health_snapshot(self) -> dict:
        """Aggregate health of every route plus the underlying service.

        ``status`` is ``"ok"`` with no recorded errors, ``"degraded"``
        otherwise; each route reports its deployment topology, policy,
        counters, shadow agreement and latency histogram.
        """
        described = self.registry.describe()
        routes = {}
        errors = 0
        for name, description in described.items():
            snapshot = self.registry.metrics(name).snapshot()
            errors += snapshot["errors"] + snapshot["shadow"]["errors"]
            routes[name] = {**description, **snapshot}
        return {
            "status": "ok" if errors == 0 else "degraded",
            "routes": routes,
            "service": self.service.stats(),
            "process": process_stats(),
        }

    def close(self) -> None:
        """Stop shadow mirroring; tear down the service only if owned.

        By default a gateway built over an injected registry leaves that
        registry's prediction service running — other components may share
        it — while the service of a privately-created registry is closed
        terminally.  The constructor's ``owns_service`` flag overrides either
        default.
        """
        self._closed = True
        self.flush_shadows()
        self._shadow_pool.shutdown(wait=True)
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "ModelGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
