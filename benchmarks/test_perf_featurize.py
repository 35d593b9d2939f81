"""Request-path featurization benchmarks (CI smoke subset).

Two hot-path properties introduced by the vectorized miss path are held
here, measured directly against the serving primitives (no HTTP in the way):

* **Batch featurization beats the per-sequence path** — one
  :meth:`~repro.serving.BatchFeaturizer.batch_tokens` pass plus one
  TF-IDF transform and model pass over a 32-sequence micro-batch must be at
  least twice as fast as featurizing and predicting the same sequences one
  at a time, while producing bitwise-equal probabilities.
* **Cache striping improves hot-swap tails** — while a populated cache is
  being swept by a model invalidation, Zipf (s=1.2) reads from 16 threads
  must see a far smaller p99 stall on the sharded cache than on the same
  cache configured with a single stripe (the old one-lock-for-everything
  design), and striping must not cost tail latency in churn-free steady
  state.

A note on methodology: under the GIL, a free-running closed loop cannot
expose lock granularity — blocked waiters hand the interpreter to the lock
holder, so a coarse lock *accelerates* its own critical section and
aggregate p99 becomes a coin flip.  The tail cost of the single lock is
real all the same: any get issued while an invalidation sweep holds it
stalls for the remainder of the sweep.  The hot-swap benchmark therefore
measures exactly that — reads raced against an in-progress sweep, at
offsets sampled across the sweep window — where the stall is structural
rather than scheduler-dependent.

The final test writes ``BENCH_featurize.json`` at the repo root — the
before/after artifact for the request-path perf trajectory, regenerated by
every quick benchmark run alongside ``BENCH_server.json``.
"""

from __future__ import annotations

import json
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.bench_config import BENCH_SEED
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.data.generator import GeneratorConfig, RecipeDBGenerator
from repro.serving import BatchFeaturizer, ModelBundle, ShardedResultCache

MODEL = "logreg"
MICRO_BATCH = 32  # the acceptance micro-batch size for the featurize path
BENCH_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_featurize.json"

# Closed-loop cache workload: 16 threads, Zipf-skewed keys.
N_THREADS = 16
N_KEYS = 512
OPS_PER_THREAD = 2_000
ZIPF_S = 1.2

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


def _zipf_sequences(seed: int, size: int) -> list[tuple[str, ...]]:
    ranks = np.arange(1, N_KEYS + 1)
    weights = ranks ** -ZIPF_S
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    return [(f"item-{pick}",) for pick in rng.choice(N_KEYS, size=size, p=weights)]


def _cache_closed_loop(n_stripes: int, seed: int) -> dict:
    """Hammer a cache from N_THREADS threads; per-op latency distribution."""
    # 4x headroom over the key space so striping never *adds* evictions —
    # what is measured is locking, not LRU churn.
    cache = ShardedResultCache(capacity=4 * N_KEYS, n_stripes=n_stripes)
    row = np.linspace(0.0, 1.0, 16)
    barrier = threading.Barrier(N_THREADS)
    latencies: list[list[float]] = []
    lock = threading.Lock()

    def worker(thread_index: int) -> None:
        sequences = _zipf_sequences(seed + thread_index, OPS_PER_THREAD)
        get, put, perf = cache.get, cache.put, time.perf_counter
        samples = []
        barrier.wait()
        for sequence in sequences:
            start = perf()
            if get(MODEL, sequence) is None:
                put(MODEL, sequence, row)
            samples.append(perf() - start)
        with lock:
            latencies.append(samples)

    start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    samples_ms = np.concatenate(latencies) * 1000.0
    return {
        "stripes": cache.n_stripes,
        "threads": N_THREADS,
        "ops": int(samples_ms.size),
        "throughput_ops_per_s": samples_ms.size / elapsed,
        "mean_ms": float(samples_ms.mean()),
        "p99_ms": float(np.percentile(samples_ms, 99)),
    }


@pytest.mark.quick
def test_perf_cache_steady_state_zipf_parity():
    """Striping costs nothing when no invalidation sweep is running."""
    # Best-of-5 per configuration: scheduler noise inflates individual runs.
    # The two configurations alternate round by round, so a burst of load
    # from other processes lands on both rather than on one block of runs.
    rounds = 5
    singles, shardeds = [], []
    for round_ in range(rounds):
        singles.append(_cache_closed_loop(1, BENCH_SEED + round_))
        shardeds.append(_cache_closed_loop(16, BENCH_SEED + round_))
    single = min(singles, key=lambda report: report["p99_ms"])
    sharded = min(shardeds, key=lambda report: report["p99_ms"])
    assert sharded["p99_ms"] <= 1.5 * single["p99_ms"], (
        f"16-stripe steady-state p99 {sharded['p99_ms']:.4f}ms regressed "
        f"beyond 1.5x the single-lock p99 {single['p99_ms']:.4f}ms"
    )
    RESULTS["steady_state_zipf"] = {
        "zipf_s": ZIPF_S,
        "n_keys": N_KEYS,
        "single_lock": single,
        "sharded_x16": sharded,
    }


# Hot-swap stall measurement: a populated cache is being swept while 16
# reader threads issue Zipf-keyed gets at random offsets into the sweep.
COLD_ENTRIES = 20_000  # the long tail a sweep has to scan past
STALL_TRIALS = 40


def _hot_swap_stalls(n_stripes: int, seed: int) -> dict:
    cache = ShardedResultCache(capacity=32_768, n_stripes=n_stripes)
    row = np.linspace(0.0, 1.0, 16)
    for index in range(COLD_ENTRIES):
        cache.put(MODEL, (f"cold-{index}",), row)
    for sequence in _zipf_sequences(seed, 2_000):
        cache.put(MODEL, sequence, row)
    # Self-calibrate the sweep window so reader offsets span it.
    start = time.perf_counter()
    cache.invalidate("retired")
    window = time.perf_counter() - start

    start_sweep = threading.Event()
    sweep_done = threading.Event()
    stop = threading.Event()
    barrier = threading.Barrier(N_THREADS + 1)
    lock = threading.Lock()
    stalls: list[float] = []

    def sweeper() -> None:
        while not stop.is_set():
            start_sweep.wait()
            start_sweep.clear()
            if stop.is_set():
                return
            cache.invalidate("retired")  # scans every stripe, matches nothing
            sweep_done.set()

    def reader(thread_index: int) -> None:
        keys = _zipf_sequences(seed + thread_index, STALL_TRIALS)
        rng = np.random.default_rng(seed + 1_000 + thread_index)
        samples = []
        for trial in range(STALL_TRIALS):
            barrier.wait()
            # Land somewhere inside (or just past) the in-progress sweep.
            time.sleep(float(rng.uniform(0.0, 1.2 * window)))
            begin = time.perf_counter()
            cache.get(MODEL, keys[trial])
            samples.append(time.perf_counter() - begin)
        with lock:
            stalls.extend(samples)

    sweeper_thread = threading.Thread(target=sweeper)
    readers = [
        threading.Thread(target=reader, args=(index,)) for index in range(N_THREADS)
    ]
    # A fine switch interval keeps readers runnable *during* the sweep —
    # with the default 5ms quantum the whole sweep fits in one GIL turn and
    # nothing can race it.  Restored below.
    sys.setswitchinterval(1e-4)
    try:
        sweeper_thread.start()
        for thread in readers:
            thread.start()
        for _ in range(STALL_TRIALS):
            sweep_done.clear()
            barrier.wait(timeout=60)
            start_sweep.set()
            sweep_done.wait(timeout=60)
        for thread in readers:
            thread.join()
        stop.set()
        start_sweep.set()
        sweeper_thread.join()
    finally:
        sys.setswitchinterval(0.005)
    samples_ms = np.array(stalls) * 1000.0
    return {
        "stripes": cache.n_stripes,
        "threads": N_THREADS,
        "trials": STALL_TRIALS,
        "sweep_window_ms": window * 1000.0,
        "mean_ms": float(samples_ms.mean()),
        "p99_ms": float(np.percentile(samples_ms, 99)),
        "max_ms": float(samples_ms.max()),
    }


@pytest.mark.quick
def test_perf_sharded_cache_improves_hot_swap_p99():
    single = _hot_swap_stalls(1, BENCH_SEED)
    sharded = _hot_swap_stalls(16, BENCH_SEED)
    # Observed margins are 6-50x; demand 2x so busy CI never flakes.
    assert 2.0 * sharded["p99_ms"] < single["p99_ms"], (
        f"16-stripe hot-swap p99 {sharded['p99_ms']:.3f}ms is not at least "
        f"2x better than the single-lock p99 {single['p99_ms']:.3f}ms for "
        f"Zipf(s={ZIPF_S}) reads from {N_THREADS} threads"
    )
    RESULTS["hot_swap_stalls"] = {
        "zipf_s": ZIPF_S,
        "n_keys": N_KEYS,
        "cold_entries": COLD_ENTRIES,
        "single_lock": single,
        "sharded_x16": sharded,
        "p99_improvement": single["p99_ms"] / sharded["p99_ms"],
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
