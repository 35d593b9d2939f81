"""Versioned deployments over a :class:`~repro.serving.PredictionService`.

The registry is the control plane between bundles on disk and live traffic:

* a **deployment** is one fitted model pinned to ``(route, version)`` and
  registered in the underlying prediction service under the unambiguous name
  ``"<route>@<version>"``;
* a **route** is the stable name clients address (``"cuisine"``), holding any
  number of deployed versions, exactly one of which is *active*;
* :meth:`DeploymentRegistry.swap` atomically repoints the active version
  while requests are in flight — a request that already resolved its
  deployment keeps predicting against the version it started on (the old
  model stays registered, and the service's result cache is keyed by the
  versioned name, so retired versions can never leak probabilities into the
  new version's responses);
* :meth:`DeploymentRegistry.rollback` walks the swap history backwards.

Versions come from anywhere a fitted model does: in-process objects,
:class:`~repro.serving.ModelBundle` instances, bundle directories, or whole
export directories (one route per bundle, via
:func:`~repro.serving.bundle.discover_bundles`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.gateway.policies import ActiveVersion, RouteView, TrafficPolicy
from repro.models.base import CuisineModel
from repro.observability import RouteMetrics
from repro.serving.bundle import ModelBundle, discover_bundles
from repro.serving.service import PredictionService


def service_model_name(route: str, version: str) -> str:
    """The prediction-service registration name of a deployment."""
    return f"{route}@{version}"


@dataclass(frozen=True)
class Deployment:
    """One immutable ``(route, version)`` deployment.

    A resolved ``Deployment`` is what pins an in-flight request: it holds
    direct references to the model and its service name, so a concurrent
    swap cannot change what the request predicts against.
    """

    route: str
    version: str
    model: CuisineModel
    source: Path | None = None

    @property
    def service_name(self) -> str:
        return service_model_name(self.route, self.version)

    @property
    def label_space(self) -> tuple[str, ...]:
        return self.model.label_space


@dataclass(frozen=True)
class RouteSnapshot:
    """One atomically-taken picture of a route, pinning a whole request.

    Everything a request needs — the active pointer, the policy, the metrics
    sink, the label space and the deployment table — is captured under a
    single registry lock acquisition, so no interleaving of ``swap`` /
    ``retire`` / ``set_policy`` can make one request mix the state of two
    moments (e.g. decide on the old active version and then fail to resolve
    it because it was retired in between).
    """

    view: RouteView
    policy: TrafficPolicy
    metrics: RouteMetrics
    label_space: tuple[str, ...]
    deployments: Mapping[str, Deployment]

    def deployment(self, version: str | None = None) -> Deployment:
        """The deployment for *version* (default: the snapshot's active)."""
        target = version if version is not None else self.view.active
        if not target:
            raise RuntimeError(
                f"route {self.view.name!r} has no active version (every "
                f"deployment was dark); swap one in: {sorted(self.deployments)}"
            )
        try:
            return self.deployments[target]
        except KeyError:
            raise KeyError(
                f"no version {target!r} deployed on route {self.view.name!r}; "
                f"deployed: {sorted(self.deployments)}"
            ) from None


@dataclass
class _Route:
    name: str
    label_space: tuple[str, ...]
    deployments: dict[str, Deployment] = field(default_factory=dict)
    active: str = ""
    history: list[str] = field(default_factory=list)
    policy: TrafficPolicy = field(default_factory=ActiveVersion)
    metrics: RouteMetrics = field(default_factory=RouteMetrics)
    #: Latest eval-gate verdict (repro.eval), as its JSON-able dict.
    verdict: dict | None = None

    def view(self) -> RouteView:
        return RouteView(
            name=self.name,
            active=self.active,
            versions=tuple(sorted(self.deployments)),
        )


class DeploymentRegistry:
    """Routes, versions and the active pointers, over one prediction service.

    Args:
        service: The prediction service deployments are registered in; a
            private one is created by default (extra keyword arguments are
            forwarded to its constructor).
        mmap_bundles: Load bundles deployed by path memory-mapped (read-only
            arrays page-shared across processes serving the same bundle)
            instead of as private in-memory copies.  The cluster tier turns
            this on so N workers hold one physical copy of each bundle's
            arrays; predictions are bitwise-identical either way.
    """

    def __init__(
        self,
        service: PredictionService | None = None,
        *,
        mmap_bundles: bool = False,
        **service_kwargs,
    ) -> None:
        if service is not None and service_kwargs:
            raise ValueError("pass either a service or service kwargs, not both")
        self.service = service if service is not None else PredictionService(**service_kwargs)
        self.mmap_bundles = mmap_bundles
        self._lock = threading.RLock()
        self._routes: dict[str, _Route] = {}

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_names(route: str, version: str) -> None:
        if not route or "@" in route:
            raise ValueError(f"invalid route name {route!r} (non-empty, no '@')")
        if not version:
            raise ValueError("version must be a non-empty string")
        if ":" in version or "->" in version:
            # RouteMetrics keys shadow counters as "<primary>-><shadow>" and
            # "<shadow>:<label>" and splits them back apart.
            raise ValueError(f"invalid version name {version!r} (no ':' or '->')")

    def deploy(
        self,
        route: str,
        version: str,
        model: CuisineModel | ModelBundle | str | Path,
        *,
        activate: bool | None = None,
        replace: bool = False,
    ) -> Deployment:
        """Deploy *model* as ``route@version``.

        Args:
            route: Route name (created on first deployment; its label space
                is fixed to the first model's).
            version: Version name, unique within the route unless *replace*.
            model: A fitted model, a loaded :class:`ModelBundle`, or a bundle
                directory path to load.
            activate: Make this the route's active version.  Defaults to
                ``True`` for a route's first deployment, ``False`` afterwards
                (deploy dark, then :meth:`swap`).
            replace: Allow re-deploying an existing version in place.

        Returns:
            The immutable :class:`Deployment` record.
        """
        self._validate_names(route, version)
        if isinstance(model, (str, Path)):
            model = ModelBundle.load(model, mmap=self.mmap_bundles)
        source = None
        if isinstance(model, ModelBundle):
            source = model.path
            model = model.model
        with self._lock:
            state = self._routes.get(route)
            if state is None:
                state = _Route(name=route, label_space=model.label_space)
                self._routes[route] = state
                first = True
            else:
                first = False
            if version in state.deployments and not replace:
                raise ValueError(
                    f"version {version!r} is already deployed on route {route!r}; "
                    f"pass replace=True to re-deploy in place"
                )
            missing = sorted(set(model.label_space) - set(state.label_space))
            if missing:
                raise ValueError(
                    f"cannot deploy {route}@{version}: model labels {missing} are "
                    f"not in the route label space"
                )
            deployment = Deployment(route=route, version=version, model=model, source=source)
            state.deployments[version] = deployment
            self.service.add_model(model, name=deployment.service_name)
            if activate if activate is not None else first:
                if state.active and state.active != version:
                    state.history.append(state.active)
                state.active = version
            return deployment

    def deploy_export_dir(
        self,
        export_dir: str | Path,
        version: str,
        routes: Sequence[str] | None = None,
        *,
        activate: bool | None = None,
    ) -> dict[str, Deployment]:
        """Deploy every bundle under *export_dir* as ``<bundle name>@version``.

        Bundle discovery is deterministic (see
        :func:`~repro.serving.bundle.discover_bundles`); *routes* restricts
        deployment to a subset of bundle names.

        Returns:
            ``route -> Deployment`` for everything deployed.
        """
        available = discover_bundles(export_dir)
        if routes is not None:
            missing = sorted(set(routes) - set(available))
            if missing:
                raise KeyError(
                    f"no bundles for routes {missing} under {export_dir}; "
                    f"available: {sorted(available)}"
                )
            available = {name: available[name] for name in routes}
        return {
            name: self.deploy(
                name,
                version,
                ModelBundle.load(path, mmap=self.mmap_bundles),
                activate=activate,
            )
            for name, path in sorted(available.items())
        }

    # ------------------------------------------------------------------
    # swap / rollback / retire
    # ------------------------------------------------------------------
    def swap(self, route: str, version: str) -> Deployment:
        """Atomically make *version* the active version of *route*.

        Requests that resolve after the swap returns are served by
        *version*; requests already in flight finish on the version they
        resolved.  The previous active version stays deployed (and is pushed
        onto the rollback history).
        """
        with self._lock:
            state = self._require_route(route)
            if version not in state.deployments:
                raise KeyError(
                    f"cannot swap route {route!r} to unknown version {version!r}; "
                    f"deployed: {sorted(state.deployments)}"
                )
            if version != state.active:
                if state.active:  # a dark-deployed route has no active yet
                    state.history.append(state.active)
                state.active = version
            return state.deployments[version]

    def rollback(self, route: str) -> Deployment:
        """Swap *route* back to the version active before the last swap."""
        with self._lock:
            state = self._require_route(route)
            while state.history:
                previous = state.history.pop()
                if previous in state.deployments and previous != state.active:
                    state.active = previous
                    return state.deployments[previous]
            raise RuntimeError(f"route {route!r} has no swap history to roll back to")

    def retire(self, route: str, version: str) -> None:
        """Remove a non-active, unreferenced version from the route.

        The deployment is unregistered from the prediction service, which
        also drops its cached results.  In-flight requests pinned to it (a
        resolved :class:`Deployment` holds the model object) finish
        unaffected; *new* resolutions of the version fail.
        """
        with self._lock:
            state = self._require_route(route)
            if version not in state.deployments:
                raise KeyError(f"no version {version!r} deployed on route {route!r}")
            if version == state.active:
                raise ValueError(
                    f"cannot retire the active version {version!r} of route "
                    f"{route!r}; swap first"
                )
            if version in state.policy.versions_referenced():
                raise ValueError(
                    f"cannot retire {route}@{version}: referenced by the route's "
                    f"{state.policy.kind!r} policy"
                )
            deployment = state.deployments.pop(version)
            state.history = [v for v in state.history if v != version]
            self.service.remove_model(deployment.service_name)

    # ------------------------------------------------------------------
    # policies
    # ------------------------------------------------------------------
    def set_policy(self, route: str, policy: TrafficPolicy) -> None:
        """Attach a traffic policy to *route* (validating its versions)."""
        with self._lock:
            state = self._require_route(route)
            missing = sorted(set(policy.versions_referenced()) - set(state.deployments))
            if missing:
                raise KeyError(
                    f"policy references undeployed versions {missing} on route "
                    f"{route!r}; deployed: {sorted(state.deployments)}"
                )
            state.policy = policy

    def clear_policy(self, route: str) -> None:
        """Reset *route* to the default active-version policy."""
        with self._lock:
            self._require_route(route).policy = ActiveVersion()

    def policy(self, route: str) -> TrafficPolicy:
        with self._lock:
            return self._require_route(route).policy

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _require_route(self, route: str) -> _Route:
        try:
            return self._routes[route]
        except KeyError:
            raise KeyError(
                f"no route {route!r}; available: {sorted(self._routes)}"
            ) from None

    def routes(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._routes))

    def versions(self, route: str) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._require_route(route).deployments))

    def active_version(self, route: str) -> str:
        with self._lock:
            return self._require_route(route).active

    def label_space(self, route: str) -> tuple[str, ...]:
        with self._lock:
            return self._require_route(route).label_space

    def view(self, route: str) -> RouteView:
        with self._lock:
            return self._require_route(route).view()

    def metrics(self, route: str) -> RouteMetrics:
        with self._lock:
            return self._require_route(route).metrics

    # ------------------------------------------------------------------
    # eval verdicts
    # ------------------------------------------------------------------
    def set_verdict(self, route: str, verdict: Mapping) -> None:
        """Store the latest eval-gate verdict for *route* (JSON-able dict).

        The registry only *stores* verdicts — producing them is
        :mod:`repro.eval`'s job, and acting on them is the caller's.  The
        stored dict is what ``GET /admin/routes/<route>/evaluate`` returns
        and what :meth:`describe` summarises for ``stats()``/``/metrics``.
        """
        with self._lock:
            self._require_route(route).verdict = dict(verdict)

    def verdict(self, route: str) -> dict | None:
        """The latest stored verdict of *route*, or ``None``."""
        with self._lock:
            stored = self._require_route(route).verdict
            return dict(stored) if stored is not None else None

    def route_snapshot(self, route: str) -> RouteSnapshot:
        """An atomic :class:`RouteSnapshot` of *route* (the data-plane read).

        The gateway takes exactly one snapshot per request and both decides
        *and* resolves against it, so a concurrent swap + retire cannot
        strand a request between routing and resolution.
        """
        with self._lock:
            state = self._require_route(route)
            return RouteSnapshot(
                view=state.view(),
                policy=state.policy,
                metrics=state.metrics,
                label_space=state.label_space,
                deployments=dict(state.deployments),
            )

    def resolve(self, route: str, version: str | None = None) -> Deployment:
        """The deployment serving *route* (*version*, or the active one).

        The returned record is immutable and keeps the model referenced —
        resolving **pins** an in-flight request to this version regardless of
        concurrent swaps or retirements.
        """
        with self._lock:
            state = self._require_route(route)
            target = version if version is not None else state.active
            if not target:
                raise RuntimeError(
                    f"route {route!r} has no active version (every deployment "
                    f"was dark); swap one in: {sorted(state.deployments)}"
                )
            try:
                return state.deployments[target]
            except KeyError:
                raise KeyError(
                    f"no version {target!r} deployed on route {route!r}; "
                    f"deployed: {sorted(state.deployments)}"
                ) from None

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-able snapshot of every route's deployments and policy."""
        with self._lock:
            described = {}
            for name, state in sorted(self._routes.items()):
                entry = {
                    "active": state.active,
                    "versions": sorted(state.deployments),
                    "history": list(state.history),
                    "policy": state.policy.describe(),
                    "label_space_size": len(state.label_space),
                }
                if state.verdict is not None:
                    # Compact summary only: the full verdict (reasons, layer
                    # details, statistics) stays behind GET .../evaluate.
                    # ``code`` (-1 rollback / 0 hold / +1 promote) merges
                    # worst-of across a fleet (repro.cluster.metrics).
                    entry["eval"] = {
                        "candidate": state.verdict.get("candidate", ""),
                        "baseline": state.verdict.get("baseline", ""),
                        "decision": state.verdict.get("decision", ""),
                        "code": int(state.verdict.get("code", 0)),
                    }
                described[name] = entry
            return described
