"""Request-path featurization benchmarks (CI smoke subset).

One hot-path property introduced by the vectorized miss path is held here,
measured directly against the serving primitives (no HTTP in the way):
one :meth:`~repro.serving.BatchFeaturizer.batch_tokens` pass plus one
TF-IDF transform and model pass over a 32-sequence micro-batch must be at
least twice as fast as featurizing and predicting the same sequences one at
a time, while producing bitwise-equal probabilities.

The final test writes ``BENCH_featurize.json`` at the repo root — the
before/after artifact for the request-path perf trajectory, regenerated by
every quick benchmark run alongside ``BENCH_server.json``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.bench_config import BENCH_SEED
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.data.generator import GeneratorConfig, RecipeDBGenerator
from repro.serving import BatchFeaturizer, ModelBundle

MODEL = "logreg"
MICRO_BATCH = 32  # the acceptance micro-batch size for the featurize path
BENCH_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_featurize.json"

#: Reports accumulated by the tests and emitted as BENCH_featurize.json.
RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def featurize_corpus():
    return RecipeDBGenerator(GeneratorConfig(scale=0.008, seed=BENCH_SEED)).generate()


@pytest.fixture(scope="module")
def fitted_model(featurize_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("featurize-bundles")
    config = ExperimentConfig(
        models=(MODEL,),
        seed=BENCH_SEED,
        statistical_kwargs={MODEL: {"max_iter": 60}},
        export_dir=str(path),
    )
    ExperimentRunner(config, corpus=featurize_corpus).run()
    return ModelBundle.load(path / MODEL).model


@pytest.fixture(scope="module")
def micro_batch(featurize_corpus):
    return [recipe.sequence for recipe in featurize_corpus.recipes[:MICRO_BATCH]]


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.mark.quick
def test_perf_batched_featurize_beats_per_sequence(fitted_model, micro_batch):
    config = fitted_model.feature_spec().pipeline
    chain = config.stage_chain()

    def per_sequence():
        # The old request path: each sequence tokenized alone (no shared
        # memo) and pushed through a one-row vectorize + model pass.
        rows = [
            fitted_model.predict_proba_tokens([chain.run_sequence(sequence)])[0]
            for sequence in micro_batch
        ]
        return np.vstack(rows)

    def batched():
        # The new miss path: one tokenization pass with an intra-batch memo,
        # one CSR assembly, one model pass.  A fresh featurizer per call
        # keeps the timing honest — no warm memo carried across rounds.
        tokens = BatchFeaturizer().batch_tokens(micro_batch, config)
        return fitted_model.predict_proba_tokens(tokens)

    # The transform's output layout does not depend on the batch size, so
    # the one-row-at-a-time baseline is bitwise-equal to the batched pass.
    np.testing.assert_array_equal(batched(), per_sequence())

    rounds = 5
    per_sequence_seconds = min(_timed(per_sequence) for _ in range(rounds))
    batched_seconds = min(_timed(batched) for _ in range(rounds))
    speedup = per_sequence_seconds / batched_seconds
    assert speedup >= 2.0, (
        f"batched featurize+predict only reached {speedup:.2f}x of the "
        f"per-sequence path on a {MICRO_BATCH}-sequence micro-batch "
        f"({batched_seconds * 1000:.2f}ms vs {per_sequence_seconds * 1000:.2f}ms)"
    )
    RESULTS["batched_featurize"] = {
        "micro_batch": MICRO_BATCH,
        "per_sequence_ms": per_sequence_seconds * 1000.0,
        "batched_ms": batched_seconds * 1000.0,
        "speedup": speedup,
        "encoder": "TfidfVectorizer",
    }


@pytest.mark.quick
def test_emit_bench_featurize_artifact(fitted_model, micro_batch):
    """Write BENCH_featurize.json — the request-path perf artifact."""
    # A tiny standalone measurement so the artifact carries a baseline even
    # when the other benchmarks are filtered out.
    config = fitted_model.feature_spec().pipeline
    tokens = BatchFeaturizer().batch_tokens(micro_batch, config)
    seconds = _timed(lambda: fitted_model.predict_proba_tokens(tokens))
    RESULTS["warm_encode_predict"] = {
        "micro_batch": MICRO_BATCH,
        "encode_predict_ms": seconds * 1000.0,
    }

    artifact = {
        "benchmark": "featurize",
        "seed": BENCH_SEED,
        "corpus_scale": 0.008,
        "model": MODEL,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "results": RESULTS,
    }
    BENCH_ARTIFACT.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    assert BENCH_ARTIFACT.exists()
    emitted = json.loads(BENCH_ARTIFACT.read_text())["results"]
    assert "warm_encode_predict" in emitted
