"""Tests for the batched PredictionService and the train->export->serve flow."""

import threading

import numpy as np
import pytest

from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.data.splits import train_val_test_split
from repro.models.base import CuisineModel
from repro.models.lstm_classifier import LSTMClassifierConfig, LSTMCuisineClassifier
from repro.pipeline.store import FeatureStore
from repro.serving import ModelBundle, PredictionService, discover_bundles, load_bundles
from repro.text.pipeline import PipelineConfig

MODELS = ("logreg", "naive_bayes")
FAST_KWARGS = {"logreg": {"max_iter": 30}}


@pytest.fixture(scope="module")
def export_dir(tiny_corpus, tmp_path_factory):
    """Train two statistical models and export their bundles once."""
    path = tmp_path_factory.mktemp("bundles")
    config = ExperimentConfig(
        models=MODELS, seed=3, statistical_kwargs=FAST_KWARGS, export_dir=str(path)
    )
    result = ExperimentRunner(config, corpus=tiny_corpus).run()
    for name in MODELS:
        assert result.model_results[name].extra["bundle_path"] == str(path / name)
    return path


@pytest.fixture(scope="module")
def request_sequences(tiny_corpus):
    return [recipe.sequence for recipe in tiny_corpus.recipes[:30]]


@pytest.fixture()
def service(export_dir):
    with PredictionService.from_export_dir(export_dir) as service:
        yield service


class TestExportFlow:
    def test_runner_exports_one_bundle_per_model(self, export_dir):
        assert set(discover_bundles(export_dir)) == set(MODELS)

    def test_bundles_load_by_name(self, export_dir):
        bundles = load_bundles(export_dir, names=["logreg"])
        assert set(bundles) == {"logreg"}
        assert isinstance(bundles["logreg"], ModelBundle)
        assert bundles["logreg"].corpus_fingerprint is not None

    def test_unknown_bundle_name_raises(self, export_dir):
        with pytest.raises(KeyError, match="no bundles"):
            load_bundles(export_dir, names=["lstm"])

    def test_missing_export_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_bundles(tmp_path / "nowhere")


class TestPredictionPaths:
    def test_registered_models(self, service):
        assert service.model_names() == tuple(sorted(MODELS))

    def test_single_predict_returns_known_label(self, service, request_sequences):
        label = service.predict("logreg", request_sequences[0])
        assert label in service._models["logreg"].label_space

    def test_predict_proba_matches_direct_model(self, service, request_sequences):
        direct = service._models["logreg"].predict_proba_sequences(request_sequences)
        served = np.vstack(
            [service.predict_proba("logreg", s) for s in request_sequences]
        )
        np.testing.assert_allclose(direct, served, rtol=0, atol=1e-12)
        assert np.array_equal(direct.argmax(axis=1), served.argmax(axis=1))

    def test_batch_predictions_match_singles(self, service, request_sequences):
        batch = service.predict_batch("logreg", request_sequences)
        singles = [service.predict("logreg", s) for s in request_sequences]
        assert batch == singles

    def test_batch_matrix_shape_and_normalisation(self, service, request_sequences):
        probabilities = service.predict_proba_batch("naive_bayes", request_sequences)
        model = service._models["naive_bayes"]
        assert probabilities.shape == (len(request_sequences), model.n_classes)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_empty_batch(self, service):
        probabilities = service.predict_proba_batch("logreg", [])
        assert probabilities.shape == (0, service._models["logreg"].n_classes)

    def test_unknown_model_raises(self, service, request_sequences):
        with pytest.raises(KeyError, match="no model"):
            service.predict("lstm", request_sequences[0])

    def test_empty_sequence_rejected(self, service):
        with pytest.raises(ValueError, match="empty"):
            service.predict("logreg", [])


class TestCaching:
    def test_repeated_input_hits_cache(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir) as service:
            first = service.predict_proba("logreg", request_sequences[0])
            second = service.predict_proba("logreg", request_sequences[0])
            np.testing.assert_array_equal(first, second)
            stats = service.stats()
            assert stats["cache_hits"] == 1
            assert stats["cache_misses"] == 1

    def test_cached_result_is_copy(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir) as service:
            first = service.predict_proba("logreg", request_sequences[0])
            first[:] = -1.0  # a caller mutating its result must not poison the cache
            second = service.predict_proba("logreg", request_sequences[0])
            assert second.min() >= 0.0

    def test_cache_disabled(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir, cache_size=0) as service:
            service.predict_proba("logreg", request_sequences[0])
            service.predict_proba("logreg", request_sequences[0])
            assert service.stats()["cache_hits"] == 0

    def test_cache_bounded(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir, cache_size=4) as service:
            service.predict_proba_batch("logreg", request_sequences)
            assert service.stats()["cached_entries"] <= 4

    def test_hot_swapped_model_does_not_serve_stale_results(
        self, export_dir, request_sequences
    ):
        with PredictionService.from_export_dir(export_dir) as service:
            service.predict_proba("logreg", request_sequences[0])
            service.predict_proba("naive_bayes", request_sequences[0])
            # Replace logreg with a different model object under the same name.
            service.add_model(service._models["naive_bayes"], name="logreg")
            stats_before = service.stats()["cache_hits"]
            swapped = service.predict_proba("logreg", request_sequences[0])
            expected = service._models["naive_bayes"].predict_proba_sequences(
                [request_sequences[0]]
            )[0]
            np.testing.assert_allclose(expected, swapped, rtol=0, atol=1e-12)
            assert service.stats()["cache_hits"] == stats_before  # no stale hit

    def test_in_flight_result_of_swapped_model_is_not_cached(
        self, export_dir, request_sequences
    ):
        """A result computed before a hot-swap must not be cached after it
        (the epoch guard), even though it is still returned to its caller."""
        with PredictionService.from_export_dir(export_dir) as service:
            stale_epoch = service._result_cache.epoch("logreg")
            row = service._models["logreg"].predict_proba_sequences(
                [request_sequences[0]]
            )[0]
            service.add_model(service._models["naive_bayes"], name="logreg")
            service._result_cache.put(
                "logreg", tuple(request_sequences[0]), row, epoch=stale_epoch
            )
            assert service.stats()["cached_entries"] == 0

    def test_batch_uses_cache(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir) as service:
            service.predict_proba_batch("logreg", request_sequences)
            service.predict_proba_batch("logreg", request_sequences)
            stats = service.stats()
            assert stats["cache_hits"] == len(request_sequences)
            assert stats["cache_misses"] == len(request_sequences)


class TestMicroBatching:
    def test_concurrent_requests_are_batched(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir, cache_size=0) as service:
            direct = service._models["logreg"].predict_proba_sequences(request_sequences)
            results: list = [None] * len(request_sequences)

            def call(index: int) -> None:
                results[index] = service.predict_proba("logreg", request_sequences[index])

            threads = [
                threading.Thread(target=call, args=(index,))
                for index in range(len(request_sequences))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            served = np.vstack(results)
            # Micro-batch composition may perturb sparse sums by ~1 ulp;
            # labels must be unchanged.
            np.testing.assert_allclose(direct, served, rtol=0, atol=1e-12)
            assert np.array_equal(direct.argmax(axis=1), served.argmax(axis=1))
            stats = service.stats()
            assert stats["batched_requests"] == len(request_sequences)
            assert 1 <= stats["batches_flushed"] <= len(request_sequences)

    def test_mixed_model_batches(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir, cache_size=0) as service:
            results: dict = {}

            def call(name: str, index: int) -> None:
                results[(name, index)] = service.predict_proba(
                    name, request_sequences[index]
                )

            threads = [
                threading.Thread(target=call, args=(name, index))
                for name in MODELS
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            for name in MODELS:
                direct = service._models[name].predict_proba_sequences(
                    request_sequences[:8]
                )
                for index in range(8):
                    np.testing.assert_allclose(
                        direct[index], results[(name, index)], rtol=0, atol=1e-12
                    )

    def test_worker_surfaces_model_errors(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir, cache_size=0) as service:
            def boom(token_lists):
                raise RuntimeError("synthetic model failure")

            service._models["logreg"].encode_tokens = boom
            with pytest.raises(RuntimeError, match="synthetic model failure"):
                service.predict_proba("logreg", request_sequences[0])

    def test_close_is_idempotent_and_terminal(self, export_dir):
        service = PredictionService.from_export_dir(export_dir)
        service.predict("logreg", ["onion", "stir"])
        service.close()
        service.close()
        # After close() the service rejects new submissions with a clear
        # error instead of silently restarting or dropping them.
        with pytest.raises(RuntimeError, match="closed"):
            service.predict("logreg", ["onion", "stir"])
        with pytest.raises(RuntimeError, match="closed"):
            service.predict_proba_batch("logreg", [["onion", "stir"]])


class TestShutdownUnderLoad:
    @pytest.mark.parametrize("submit", ["single", "batch"])
    def test_close_drains_queued_requests(
        self, export_dir, request_sequences, gate_pass, submit
    ):
        """Requests accepted into the queue before close() are processed to
        completion — shutdown drains, it does not drop — whether they came
        as single predicts or as one explicit batch."""
        # Distinct sequences, so no queued request coalesces with another.
        distinct = list(dict.fromkeys(tuple(s) for s in request_sequences))[:13]
        service = PredictionService.from_export_dir(export_dir, cache_size=0)
        gate = gate_pass(service, "logreg")
        first = threading.Thread(
            target=service.predict_proba, args=("logreg", distinct[0])
        )
        first.start()
        gate.wait_entered()  # the worker is busy; what follows stays queued
        rows: list = []
        if submit == "single":
            callers = [
                threading.Thread(
                    target=lambda s=s: rows.append(service.predict_proba("logreg", s))
                )
                for s in distinct[1:]
            ]
        else:
            callers = [
                threading.Thread(
                    target=lambda: rows.extend(
                        service.predict_proba_batch("logreg", distinct[1:])
                    )
                )
            ]
        for caller in callers:
            caller.start()
        gate.wait_queued(len(callers))
        closer = threading.Thread(target=service.close)
        closer.start()
        gate.release()
        closer.join()
        first.join()
        for caller in callers:
            caller.join(timeout=60.0)
            assert not caller.is_alive()
        assert len(rows) == len(distinct) - 1
        for row in rows:
            np.testing.assert_allclose(row.sum(), 1.0)
        with pytest.raises(RuntimeError, match="closed"):
            service.predict_proba_batch("logreg", distinct[1:3])

    def test_concurrent_close_never_drops_or_times_out(
        self, export_dir, request_sequences
    ):
        """Under concurrent load, every request racing a close() either gets
        a real result or the explicit closed error — never a timeout."""
        service = PredictionService.from_export_dir(
            export_dir, cache_size=0, request_timeout=30.0
        )
        outcomes: list = []
        outcome_lock = threading.Lock()
        start_gate = threading.Event()

        def client(index: int) -> None:
            start_gate.wait()
            for step in range(4):
                sequence = request_sequences[(index + step) % len(request_sequences)]
                try:
                    result = service.predict_proba("logreg", sequence)
                    outcome = ("ok", result)
                except RuntimeError as exc:
                    outcome = ("closed", exc)
                with outcome_lock:
                    outcomes.append(outcome)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
        for thread in threads:
            thread.start()
        start_gate.set()
        service.close()  # races the in-flight clients
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()

        assert len(outcomes) == 12 * 4
        for kind, payload in outcomes:
            if kind == "ok":
                assert isinstance(payload, np.ndarray)
            else:
                assert "closed" in str(payload)


class TestModelRemoval:
    def test_remove_model_unregisters_and_drops_cache(
        self, export_dir, request_sequences
    ):
        with PredictionService.from_export_dir(export_dir) as service:
            service.predict_proba("logreg", request_sequences[0])
            assert service.stats()["cached_entries"] == 1
            removed = service.remove_model("logreg")
            assert removed is not None
            assert "logreg" not in service.model_names()
            assert service.stats()["cached_entries"] == 0
            with pytest.raises(KeyError, match="no model"):
                service.predict_proba("logreg", request_sequences[0])


class TestSequentialModelServing:
    def test_lstm_bundle_serves_from_export(self, tiny_corpus, request_sequences, tmp_path):
        """A sequential model round-trips through bundle -> service with
        predictions identical to the loaded bundle's own serving path."""
        splits = train_val_test_split(tiny_corpus, seed=2)
        config = LSTMClassifierConfig(
            embedding_dim=16, hidden_dim=16, num_layers=1, max_length=24, epochs=1, seed=1
        )
        model = LSTMCuisineClassifier(
            label_space=tiny_corpus.present_cuisines(), config=config
        )
        model.fit(splits.train, splits.validation)
        model.save_bundle(tmp_path / "lstm")
        loaded = CuisineModel.load_bundle(tmp_path / "lstm")
        assert isinstance(loaded, LSTMCuisineClassifier)

        direct = loaded.predict_proba_sequences(request_sequences[:6])
        with PredictionService.from_export_dir(tmp_path) as service:
            assert service.model_names() == ("lstm",)
            served = service.predict_proba_batch("lstm", request_sequences[:6])
            np.testing.assert_array_equal(direct, served)
            # A cache hit: the row the batch above computed.
            single = service.predict_proba("lstm", request_sequences[0])
            np.testing.assert_array_equal(direct[0], single)


class TestObservability:
    def test_stats_counters(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir) as service:
            service.predict_proba_batch("logreg", request_sequences[:10])
            service.predict_proba("logreg", request_sequences[0])
            stats = service.stats()
            assert stats["requests"] == 11
            assert stats["requests_by_model"] == {"logreg": 11}
            assert stats["latency"]["count"] == 11
            assert stats["latency"]["total_seconds"] > 0.0
            assert stats["store"]["misses"]  # featurization went through the store

    def test_warm_precomputes_tokens(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir) as service:
            service.warm(request_sequences)
            store_misses = service.store.miss_count("sequence_tokens")
            service.predict_proba_batch("logreg", request_sequences)
            # The batch featurization hits the warmed per-sequence artifacts.
            assert service.store.miss_count("sequence_tokens") == store_misses
            assert service.store.hit_count("sequence_tokens") >= len(request_sequences)

    def test_featurization_reused_across_batch_compositions(
        self, export_dir, request_sequences
    ):
        with PredictionService.from_export_dir(export_dir, cache_size=0) as service:
            service.predict_proba_batch("logreg", request_sequences[:4])
            misses = service.store.miss_count("sequence_tokens")
            # A different batch containing already-seen sequences reuses
            # their token artifacts; only the new sequence is preprocessed.
            service.predict_proba_batch("logreg", request_sequences[2:5])
            assert service.store.miss_count("sequence_tokens") == misses + 1

    def test_featurization_shared_across_models(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir, cache_size=0) as service:
            service.predict_proba_batch("logreg", request_sequences[:4])
            misses = service.store.miss_count("sequence_tokens")
            # Both models declare the same pipeline config, so the second
            # model's featurization is a pure cache hit.
            service.predict_proba_batch("naive_bayes", request_sequences[:4])
            assert service.store.miss_count("sequence_tokens") == misses

    def test_stage_timers_split_batch_wall_clock(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir) as service:
            service.predict_proba_batch("logreg", request_sequences[:8])
            stages = service.stats()["stages"]
            assert set(stages) >= {"featurize", "predict"}
            assert stages["featurize"]["count"] == 8
            assert stages["predict"]["count"] == 8
            assert stages["featurize"]["total_seconds"] >= 0.0
            # The batch queues as one unit: one queue wait, counted per row.
            assert stages["queue_wait"]["count"] == 8
            assert sum(n for _, n in stages["queue_wait"]["buckets"]) == 1
            service.predict_proba("logreg", request_sequences[10])
            stages = service.stats()["stages"]
            # The single request is a batch of one with its own queue wait.
            assert stages["queue_wait"]["count"] == 9

    def test_stage_timers_render_in_metrics_text(self, export_dir, request_sequences):
        from repro.observability import render_metrics_text

        with PredictionService.from_export_dir(export_dir) as service:
            service.predict_proba_batch("logreg", request_sequences[:4])
            text = render_metrics_text({"service": service.stats()}, prefix="repro")
            assert "repro_service_stages_featurize_count 4" in text
            assert "repro_service_stages_predict_count 4" in text

    def test_trace_spans_and_stage_histograms_share_stamps(
        self, export_dir, request_sequences
    ):
        """One record, two views: the single predict's stage spans last
        exactly as long as the stage histograms' observations."""
        from repro.trace import Tracer

        trace = Tracer(seed=1).begin("user-1")
        with PredictionService.from_export_dir(export_dir, cache_size=0) as service:
            with trace.span("caller"):
                service.predict_proba("logreg", request_sequences[0])
            stages = service.stats()["stages"]
        spans = {span.name: span for span in trace.spans}
        batch = spans["service.batch"]
        cursor = batch.start_ms
        for stage in ("queue_wait", "featurize", "predict"):
            span = spans[f"service.{stage}"]
            assert stages[stage]["count"] == 1
            assert span.duration_ms == 1000.0 * stages[stage]["total_seconds"]
            # Children in stamp order, inside the batch span, no overlap
            # (up to float rounding where one stage ends as the next starts).
            assert span.parent_id == batch.span_id
            assert span.start_ms >= cursor - 1e-9
            cursor = span.start_ms + span.duration_ms
        assert cursor <= batch.start_ms + batch.duration_ms + 1e-9

    def test_cache_stats_exposed(self, export_dir, request_sequences):
        with PredictionService.from_export_dir(export_dir, cache_size=64) as service:
            service.predict_proba_batch("logreg", request_sequences[:4])
            cache = service.stats()["cache"]
            assert cache["capacity"] == 64
            assert cache["entries"] == 4
            assert cache["in_flight"] == 0


class TestCorpusWarm:
    def test_warm_corpus_seeds_per_sequence_artifacts(self, export_dir, tiny_corpus):
        # The store must be sized for the corpus: seeded artifacts live in
        # the bounded LRU layer (no cache_dir here) and evict oldest-first.
        store = FeatureStore(max_entries=4 * len(tiny_corpus))
        with PredictionService.from_export_dir(export_dir, store=store) as service:
            seeded = service.warm_corpus(tiny_corpus)
            # Both bundled models share one pipeline config.
            assert seeded == len(tiny_corpus)
            assert service.store.miss_count("sequence_tokens") == 0

            sequences = [r.sequence for r in tiny_corpus.recipes[:20]]
            service.predict_proba_batch("logreg", sequences)
            # Featurization of warmed recipes is pure cache hits.
            assert service.store.miss_count("sequence_tokens") == 0
            assert service.store.hit_count("sequence_tokens") >= len(sequences)

    def test_warm_corpus_shares_shard_cache_with_training_engine(
        self, export_dir, tiny_corpus, tmp_path
    ):
        from repro.pipeline.engine import SHARD_KIND, CorpusEngine

        cache_dir = tmp_path / "shared-cache"
        # Training side featurizes the corpus shard-wise into a shared cache.
        training = CorpusEngine(FeatureStore(cache_dir=cache_dir), shard_size=16)
        training.tokens(tiny_corpus, PipelineConfig(split_items=True))
        training_misses = training.store.miss_count(SHARD_KIND)
        assert training_misses > 0

        # The serving side, given an engine over the same cache dir, reuses
        # the training shards instead of re-running preprocessing.
        store = FeatureStore(cache_dir=cache_dir)
        engine = CorpusEngine(store, shard_size=16)
        with PredictionService.from_export_dir(export_dir, engine=engine) as service:
            assert service.store is store
            service.warm_corpus(tiny_corpus, names=["logreg"])
            assert store.miss_count(SHARD_KIND) == 0
            assert store.miss_count("tokens") == 0
            assert store.disk_hits["tokens"] == 1

    def test_engine_over_foreign_store_rejected(self, export_dir):
        from repro.pipeline.engine import CorpusEngine
        from repro.pipeline.store import FeatureStore

        with pytest.raises(ValueError, match="feature store"):
            PredictionService(store=FeatureStore(), engine=CorpusEngine(FeatureStore()))

    def test_warm_corpus_matches_request_path_output(self, export_dir, tiny_corpus):
        with PredictionService.from_export_dir(export_dir) as warmed, \
             PredictionService.from_export_dir(export_dir) as cold:
            warmed.warm_corpus(tiny_corpus)
            sequences = [r.sequence for r in tiny_corpus.recipes[:10]]
            np.testing.assert_array_equal(
                warmed.predict_proba_batch("logreg", sequences),
                cold.predict_proba_batch("logreg", sequences),
            )
