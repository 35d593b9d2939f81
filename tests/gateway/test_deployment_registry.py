"""Tests for the deployment registry: deploy, swap, rollback, retire."""

import pytest

from repro.gateway import DeploymentRegistry, Shadow
from repro.gateway.registry import service_model_name


@pytest.fixture()
def registry(logreg_bundle, nb_bundle):
    registry = DeploymentRegistry()
    registry.deploy("cuisine", "v1", logreg_bundle)
    registry.deploy("cuisine", "v2", nb_bundle, activate=False)
    yield registry
    registry.service.close()


class TestDeploy:
    def test_first_deployment_activates(self, registry):
        assert registry.active_version("cuisine") == "v1"
        assert registry.versions("cuisine") == ("v1", "v2")
        assert registry.routes() == ("cuisine",)

    def test_models_registered_under_versioned_names(self, registry):
        assert set(registry.service.model_names()) == {"cuisine@v1", "cuisine@v2"}
        assert service_model_name("cuisine", "v1") == "cuisine@v1"

    def test_duplicate_version_rejected(self, registry, logreg_bundle):
        with pytest.raises(ValueError, match="already deployed"):
            registry.deploy("cuisine", "v1", logreg_bundle)
        registry.deploy("cuisine", "v1", logreg_bundle, replace=True)  # explicit ok

    def test_deploy_from_path(self, gateway_export_dir):
        registry = DeploymentRegistry()
        deployment = registry.deploy("r", "v1", gateway_export_dir / "logreg")
        assert deployment.source == gateway_export_dir / "logreg"
        assert deployment.model.name == "logreg"
        registry.service.close()

    def test_deploy_export_dir_one_route_per_bundle(self, gateway_export_dir):
        registry = DeploymentRegistry()
        deployments = registry.deploy_export_dir(gateway_export_dir, "v1")
        assert set(deployments) == {"logreg", "naive_bayes"}
        assert registry.active_version("logreg") == "v1"
        registry.service.close()

    def test_invalid_names_rejected(self, registry, logreg_bundle):
        with pytest.raises(ValueError, match="route"):
            registry.deploy("bad@route", "v1", logreg_bundle)
        with pytest.raises(ValueError, match="version"):
            registry.deploy("ok", "", logreg_bundle)

    @pytest.mark.parametrize("version", ["v2:rc1", "a->x", "x->b", "v:"])
    def test_versions_that_would_split_shadow_counters_rejected(
        self, registry, logreg_bundle, version
    ):
        # RouteMetrics keys shadow counters "<shadow>:<label>" and
        # "<primary>-><shadow>": such a name would be misattributed.
        with pytest.raises(ValueError, match="no ':' or '->'"):
            registry.deploy("cuisine", version, logreg_bundle, activate=False)
        assert version not in registry.versions("cuisine")

    def test_unknown_route_is_keyerror(self, registry):
        with pytest.raises(KeyError, match="no route"):
            registry.resolve("nowhere")

    def test_dark_first_deployment_has_clear_error(self, logreg_bundle):
        registry = DeploymentRegistry()
        registry.deploy("dark", "v1", logreg_bundle, activate=False)
        with pytest.raises(RuntimeError, match="no active version"):
            registry.resolve("dark")
        # Swapping a version in activates the route without polluting the
        # rollback history with the empty placeholder.
        registry.swap("dark", "v1")
        assert registry.resolve("dark").version == "v1"
        with pytest.raises(RuntimeError, match="no swap history"):
            registry.rollback("dark")
        registry.service.close()


class TestSwapRollback:
    def test_swap_moves_active(self, registry):
        registry.swap("cuisine", "v2")
        assert registry.active_version("cuisine") == "v2"
        assert registry.resolve("cuisine").version == "v2"

    def test_swap_to_unknown_version_rejected(self, registry):
        with pytest.raises(KeyError, match="unknown version"):
            registry.swap("cuisine", "v9")

    def test_rollback_walks_history(self, registry, logreg_bundle):
        registry.deploy("cuisine", "v3", logreg_bundle, activate=False)
        registry.swap("cuisine", "v2")
        registry.swap("cuisine", "v3")
        assert registry.rollback("cuisine").version == "v2"
        assert registry.rollback("cuisine").version == "v1"
        with pytest.raises(RuntimeError, match="no swap history"):
            registry.rollback("cuisine")

    def test_resolution_pins_despite_swap(self, registry):
        pinned = registry.resolve("cuisine")
        registry.swap("cuisine", "v2")
        assert pinned.version == "v1"
        assert pinned.model is registry.resolve("cuisine", "v1").model

    def test_snapshot_pins_across_swap_and_retire(self, registry):
        """A request's RouteSnapshot keeps resolving the versions it was
        taken with, even after the old active is swapped away and retired —
        the decide-then-resolve window can never strand a request."""
        snapshot = registry.route_snapshot("cuisine")
        registry.swap("cuisine", "v2")
        registry.retire("cuisine", "v1")
        pinned = snapshot.deployment()  # v1 was active when the snapshot was taken
        assert pinned.version == "v1"
        assert snapshot.view.active == "v1"
        # The registry itself has moved on.
        assert registry.active_version("cuisine") == "v2"
        assert registry.versions("cuisine") == ("v2",)


class TestRetire:
    def test_retire_removes_version_and_service_model(self, registry):
        registry.retire("cuisine", "v2")
        assert registry.versions("cuisine") == ("v1",)
        assert registry.service.model_names() == ("cuisine@v1",)
        with pytest.raises(KeyError, match="no version"):
            registry.resolve("cuisine", "v2")

    def test_active_version_cannot_be_retired(self, registry):
        with pytest.raises(ValueError, match="active"):
            registry.retire("cuisine", "v1")

    def test_policy_referenced_version_cannot_be_retired(self, registry):
        registry.set_policy("cuisine", Shadow(candidate="v2"))
        with pytest.raises(ValueError, match="referenced"):
            registry.retire("cuisine", "v2")
        registry.clear_policy("cuisine")
        registry.retire("cuisine", "v2")

    def test_retired_version_drops_out_of_rollback_history(self, registry):
        registry.swap("cuisine", "v2")
        registry.swap("cuisine", "v1")  # history: [v1, v2]
        registry.retire("cuisine", "v2")
        # v2 was pruned from the history; the remaining entry equals the
        # active version, so there is nothing to return to.
        with pytest.raises(RuntimeError, match="no swap history"):
            registry.rollback("cuisine")


class TestPolicyManagement:
    def test_policy_must_reference_deployed_versions(self, registry):
        with pytest.raises(KeyError, match="undeployed"):
            registry.set_policy("cuisine", Shadow(candidate="v9"))

    def test_describe_shape(self, registry):
        registry.set_policy("cuisine", Shadow(candidate="v2"))
        description = registry.describe()["cuisine"]
        assert description["active"] == "v1"
        assert description["versions"] == ["v1", "v2"]
        assert description["policy"]["kind"] == "shadow"

    def test_label_space_mismatch_rejected(self, registry, logreg_bundle):
        class Fake:
            label_space = ("NotACuisine",)

        with pytest.raises(ValueError, match="not in the route label space"):
            registry.deploy("cuisine", "v9", Fake())
