"""End-to-end gateway tests: routing, shadows, ensembles, observability."""

import numpy as np
import pytest

from repro.gateway import (
    ABSplit,
    Canary,
    DeploymentRegistry,
    Ensemble,
    ModelGateway,
    Shadow,
    align_to_label_space,
    combine_probabilities,
    derive_request_key,
)


@pytest.fixture()
def gateway(logreg_bundle, nb_bundle):
    """A gateway with one route and two deployed versions (v1 active)."""
    gateway = ModelGateway()
    gateway.deploy("cuisine", "v1", logreg_bundle)
    gateway.deploy("cuisine", "v2", nb_bundle, activate=False)
    with gateway:
        yield gateway


class TestBasicRouting:
    def test_predict_matches_direct_service(self, gateway, gateway_sequences):
        direct = gateway.service.predict_proba("cuisine@v1", gateway_sequences[0])
        routed = gateway.predict_proba("cuisine", gateway_sequences[0])
        np.testing.assert_array_equal(direct, routed)

    def test_predict_label_in_route_space(self, gateway, gateway_sequences):
        label = gateway.predict("cuisine", gateway_sequences[0])
        assert label in gateway.registry.label_space("cuisine")

    def test_batch_matches_singles(self, gateway, gateway_sequences):
        batch = gateway.predict_proba_batch("cuisine", gateway_sequences[:8])
        singles = np.vstack(
            [gateway.predict_proba("cuisine", s) for s in gateway_sequences[:8]]
        )
        np.testing.assert_array_equal(batch, singles)

    def test_version_override_bypasses_policy(self, gateway, gateway_sequences):
        v2 = gateway.predict_proba("cuisine", gateway_sequences[0], version="v2")
        direct = gateway.service.predict_proba("cuisine@v2", gateway_sequences[0])
        np.testing.assert_array_equal(direct, v2)

    def test_empty_batch(self, gateway):
        result = gateway.predict_proba_batch("cuisine", [])
        assert result.shape == (0, len(gateway.registry.label_space("cuisine")))

    def test_empty_sequence_rejected(self, gateway):
        with pytest.raises(ValueError, match="empty"):
            gateway.predict("cuisine", [])

    def test_mismatched_keys_rejected(self, gateway, gateway_sequences):
        with pytest.raises(ValueError, match="keys"):
            gateway.predict_proba_batch("cuisine", gateway_sequences[:3], keys=["a"])


class TestDeterministicSplit:
    def test_identical_keys_identical_variant(self, gateway, gateway_sequences):
        gateway.set_policy("cuisine", ABSplit(variants={"v1": 0.5, "v2": 0.5}))
        for key in ("user-0", "user-1", "user-2"):
            rows = [
                gateway.predict_proba("cuisine", gateway_sequences[0], key=key)
                for _ in range(3)
            ]
            np.testing.assert_array_equal(rows[0], rows[1])
            np.testing.assert_array_equal(rows[1], rows[2])

    def test_content_keyed_requests_are_stable(self, gateway, gateway_sequences):
        """With no explicit key, identical sequences always hit the same
        variant (the key derives from content, not from arrival order)."""
        gateway.set_policy("cuisine", ABSplit(variants={"v1": 0.5, "v2": 0.5}))
        sequence = gateway_sequences[0]
        rows = [gateway.predict_proba("cuisine", sequence) for _ in range(5)]
        for row in rows[1:]:
            np.testing.assert_array_equal(rows[0], row)

    def test_split_traffic_reaches_both_variants(self, gateway, gateway_sequences):
        gateway.set_policy(
            "cuisine", ABSplit(variants={"v1": 0.5, "v2": 0.5}, salt="t")
        )
        for i in range(40):
            gateway.predict_proba(
                "cuisine", gateway_sequences[i % len(gateway_sequences)], key=f"u{i}"
            )
        by_variant = gateway.registry.metrics("cuisine").snapshot()["by_variant"]
        assert by_variant["v1"] > 0 and by_variant["v2"] > 0
        assert by_variant["v1"] + by_variant["v2"] == 40

    def test_canary_fraction_over_10k_requests(self, gateway, gateway_sequences):
        """Acceptance: canary fraction observed within tolerance over 10k
        synthetic requests through the full gateway path."""
        gateway.set_policy("cuisine", Canary(candidate="v2", fraction=0.1))
        sequence = gateway_sequences[0]
        for i in range(10_000):
            gateway.predict_proba("cuisine", sequence, key=f"synthetic-{i}")
        by_variant = gateway.registry.metrics("cuisine").snapshot()["by_variant"]
        assert by_variant["v2"] / 10_000 == pytest.approx(0.1, abs=0.015)

    def test_batch_splits_per_request_key(self, gateway, gateway_sequences):
        gateway.set_policy("cuisine", ABSplit(variants={"v1": 0.5, "v2": 0.5}))
        keys = [f"user-{i}" for i in range(12)]
        batch = gateway.predict_proba_batch(
            "cuisine", [gateway_sequences[0]] * 12, keys=keys
        )
        singles = np.vstack(
            [
                gateway.predict_proba("cuisine", gateway_sequences[0], key=key)
                for key in keys
            ]
        )
        np.testing.assert_array_equal(batch, singles)


class TestShadowRouting:
    def test_shadow_does_not_change_primary_response(self, gateway, gateway_sequences):
        baseline = [
            gateway.predict_proba("cuisine", s).copy() for s in gateway_sequences[:6]
        ]
        gateway.set_policy("cuisine", Shadow(candidate="v2"))
        shadowed = [gateway.predict_proba("cuisine", s) for s in gateway_sequences[:6]]
        np.testing.assert_array_equal(np.vstack(baseline), np.vstack(shadowed))

    def test_shadow_agreement_recorded(self, gateway, gateway_sequences):
        gateway.set_policy("cuisine", Shadow(candidate="v2"))
        for sequence in gateway_sequences[:10]:
            gateway.predict_proba("cuisine", sequence)
        gateway.flush_shadows()
        shadow = gateway.registry.metrics("cuisine").snapshot()["shadow"]
        assert shadow["requests"] == 10
        assert shadow["agreements"] + shadow["disagreements"] == 10
        assert shadow["errors"] == 0

        # Agreement must match an offline comparison of the two models.
        primary = gateway.service.predict_proba_batch(
            "cuisine@v1", gateway_sequences[:10]
        )
        candidate = gateway.service.predict_proba_batch(
            "cuisine@v2", gateway_sequences[:10]
        )
        expected = int(
            np.sum(primary.argmax(axis=1) == candidate.argmax(axis=1))
        )
        assert shadow["agreements"] == expected

    def test_batch_shadowing(self, gateway, gateway_sequences):
        gateway.set_policy("cuisine", Shadow(candidate="v2"))
        gateway.predict_proba_batch("cuisine", gateway_sequences[:8])
        gateway.flush_shadows()
        shadow = gateway.registry.metrics("cuisine").snapshot()["shadow"]
        assert shadow["requests"] == 8


class TestEnsembleRouting:
    @pytest.mark.parametrize(
        "method,weights",
        [("mean", None), ("weighted", {"v1": 3.0, "v2": 1.0}), ("majority", None)],
    )
    def test_combined_output_matches_offline_reference_bitwise(
        self, gateway, gateway_sequences, method, weights
    ):
        """Acceptance: the ensemble route's combined probabilities equal an
        offline NumPy reference combination bit for bit."""
        gateway.set_policy(
            "cuisine", Ensemble(members=("v1", "v2"), method=method, weights=weights)
        )
        sequences = gateway_sequences[:6]
        combined = gateway.predict_proba_batch("cuisine", sequences)

        # Offline reference: the members' own outputs, combined with plain
        # NumPy in sorted-member order — no gateway code in the hot path.
        member_outputs = [
            gateway.service.predict_proba_batch("cuisine@v1", sequences),
            gateway.service.predict_proba_batch("cuisine@v2", sequences),
        ]
        stacked = np.stack(member_outputs)
        if method == "mean":
            reference = np.mean(stacked, axis=0)
        elif method == "weighted":
            vector = np.asarray([weights["v1"], weights["v2"]])
            reference = np.tensordot(vector, stacked, axes=1) / vector.sum()
        else:
            votes = np.zeros(stacked.shape[1:])
            winners = stacked.argmax(axis=2)
            rows = np.arange(stacked.shape[1])
            for member in range(stacked.shape[0]):
                votes[rows, winners[member]] += 1.0
            reference = votes / stacked.shape[0]

        np.testing.assert_array_equal(combined, reference)  # bitwise

    def test_single_predict_matches_batch_row(self, gateway, gateway_sequences):
        gateway.set_policy("cuisine", Ensemble(members=("v1", "v2")))
        single = gateway.predict_proba("cuisine", gateway_sequences[0])
        batch = gateway.predict_proba_batch("cuisine", [gateway_sequences[0]])
        np.testing.assert_array_equal(single, batch[0])

    def test_ensemble_variant_counter(self, gateway, gateway_sequences):
        gateway.set_policy("cuisine", Ensemble(members=("v1", "v2")))
        gateway.predict_proba("cuisine", gateway_sequences[0])
        by_variant = gateway.registry.metrics("cuisine").snapshot()["by_variant"]
        assert by_variant == {"v1+v2": 1}


class TestLabelSpaceAlignment:
    def test_subset_label_space_scatters(self):
        route_space = ("A", "B", "C")
        probabilities = np.array([[0.25, 0.75]])
        aligned = align_to_label_space(probabilities, ("A", "C"), route_space)
        np.testing.assert_allclose(aligned, [[0.25, 0.0, 0.75]])

    def test_identical_space_is_bitwise_passthrough(self):
        probabilities = np.array([[0.1, 0.2, 0.7]])
        aligned = align_to_label_space(probabilities, ("A", "B", "C"), ("A", "B", "C"))
        np.testing.assert_array_equal(aligned, probabilities)

    def test_foreign_label_rejected(self):
        with pytest.raises(ValueError, match="not in the route label space"):
            align_to_label_space(np.ones((1, 2)), ("A", "Z"), ("A", "B"))

    def test_combine_validation(self):
        with pytest.raises(ValueError, match="empty ensemble"):
            combine_probabilities([])
        with pytest.raises(ValueError, match="unknown ensemble method"):
            combine_probabilities([np.ones((1, 2))], method="vote")
        with pytest.raises(ValueError, match="weights"):
            combine_probabilities([np.ones((1, 2))], method="weighted")


class TestObservabilityAndLifecycle:
    def test_health_snapshot_shape(self, gateway, gateway_sequences):
        gateway.predict_proba("cuisine", gateway_sequences[0])
        snapshot = gateway.health_snapshot()
        assert snapshot["status"] == "ok"
        route = snapshot["routes"]["cuisine"]
        assert route["active"] == "v1"
        assert route["versions"] == ["v1", "v2"]
        assert route["requests"] == 1
        assert set(route["latency"]) >= {"count", "p50_ms", "p95_ms", "p99_ms"}
        assert snapshot["service"]["requests"] >= 1

    def test_errors_degrade_status(self, gateway):
        with pytest.raises(KeyError):
            gateway.predict_proba("cuisine", ["onion"], version="v99")
        snapshot = gateway.health_snapshot()
        assert snapshot["status"] == "degraded"
        assert snapshot["routes"]["cuisine"]["errors"] == 1

    def test_service_latency_includes_quantiles(self, gateway, gateway_sequences):
        gateway.predict_proba("cuisine", gateway_sequences[0])
        latency = gateway.service.stats()["latency"]
        assert {"p50_ms", "p95_ms", "p99_ms", "buckets"} <= set(latency)
        assert "window" not in latency

    def test_close_shuts_owned_service_down(self, logreg_bundle):
        gateway = ModelGateway()
        gateway.deploy("r", "v1", logreg_bundle)
        gateway.close()
        with pytest.raises(RuntimeError, match="closed"):
            gateway.predict_proba("r", ["onion", "stir"])

    def test_close_leaves_injected_registry_service_running(
        self, logreg_bundle, gateway_sequences
    ):
        registry = DeploymentRegistry()
        registry.deploy("r", "v1", logreg_bundle)
        with ModelGateway(registry):
            pass
        # The shared service keeps serving other users of the registry.
        row = registry.service.predict_proba("r@v1", gateway_sequences[0])
        assert row is not None
        registry.service.close()

    def test_registry_and_kwargs_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            ModelGateway(DeploymentRegistry(), cache_size=0)
