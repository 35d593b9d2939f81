"""Serving-layer performance benchmarks.

Head-to-head of the new :class:`~repro.serving.PredictionService` paths on a
warmed service: ``predict_batch`` featurizes and predicts a whole request set
in one model pass, while one-at-a-time ``predict`` pays per-request
featurization, queue hand-off and a single-row model pass each time.  The
benchmark asserts both the throughput win and that the predicted labels are
unchanged.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.bench_config import BENCH_SEED
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.data.generator import GeneratorConfig, RecipeDBGenerator
from repro.data.splits import train_val_test_split
from repro.serving import PredictionService

MODEL = "logreg"


@pytest.fixture(scope="module")
def serving_corpus():
    return RecipeDBGenerator(GeneratorConfig(scale=0.008, seed=BENCH_SEED)).generate()


@pytest.fixture(scope="module")
def export_dir(serving_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving-bundles")
    config = ExperimentConfig(
        models=(MODEL,),
        seed=BENCH_SEED,
        statistical_kwargs={MODEL: {"max_iter": 60}},
        export_dir=str(path),
    )
    ExperimentRunner(config, corpus=serving_corpus).run()
    return path


@pytest.fixture(scope="module")
def request_sequences(serving_corpus):
    splits = train_val_test_split(serving_corpus, seed=BENCH_SEED)
    return [recipe.sequence for recipe in splits.test]


@pytest.mark.quick
def test_perf_batched_predict_beats_sequential(export_dir, request_sequences):
    # The result cache is disabled so both paths do real work per request:
    # what is measured is batching, not memoisation.
    with PredictionService.from_export_dir(export_dir, cache_size=0) as service:
        service.warm(request_sequences)  # featurization artifacts are hot
        service.predict(MODEL, request_sequences[0])  # worker thread is up

        start = time.perf_counter()
        sequential = [service.predict(MODEL, sequence) for sequence in request_sequences]
        sequential_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batched = service.predict_batch(MODEL, request_sequences)
        batched_seconds = time.perf_counter() - start

        # Same inputs, same model, same labels — batching must not change
        # a single prediction.
        assert batched == sequential

        # And one batched pass beats N single passes on a warmed service.
        assert batched_seconds < sequential_seconds
        stats = service.stats()
        assert stats["requests"] == 2 * len(request_sequences) + 1


@pytest.mark.quick
def test_perf_result_cache_short_circuits_repeats(export_dir, request_sequences):
    with PredictionService.from_export_dir(export_dir) as service:
        service.predict_batch(MODEL, request_sequences)  # populate the cache

        start = time.perf_counter()
        service.predict_batch(MODEL, request_sequences)
        cached_seconds = time.perf_counter() - start

        stats = service.stats()
        assert stats["cache_hits"] == len(request_sequences)
        # A fully cached batch is dictionary-lookup cheap.
        assert cached_seconds < 0.5
