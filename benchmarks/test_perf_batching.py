"""Request-path batching & coalescing benchmarks (CI smoke subset).

Measured against a live :class:`~repro.serving.PredictionService` with a
pinned per-row model cost (so what is measured is batching and coalescing,
not how many cores the CI machine has):

* **Single-flight coalescing multiplies hot-key throughput** — under a
  seeded hot-key Zipf open loop (burst arrivals, result cache off so
  every request does real work), coalescing concurrent identical
  requests into one featurize+predict flight must at least double the
  completed-request throughput versus the same service with coalescing
  disabled.
* **Natural batching at low load** — lone requests trickle in far apart
  and each flushes at once as a batch of one; the p50 is recorded.
* **Natural batching under overload** — the queue fills while each batch
  runs, so flushes carry many requests (mean batch size > 1); the p99 and
  mean batch size are recorded.

Only structure is asserted for the two natural-batching runs (no errors,
batches form under overload): their latencies are recorded, not gated.

The open-loop driver below spawns one thread per request at its seeded
arrival time rather than going through ``asyncio.to_thread`` — the
default executor caps at ~32 threads, which would throttle the offered
concurrency and hide the coalescing win.

The final test writes ``BENCH_batching.json`` at the repo root — the
artifact for the batching perf trajectory, regenerated by every quick
benchmark run alongside the other ``BENCH_*.json`` files.
"""

from __future__ import annotations

import json
import platform
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.bench_config import BENCH_SEED
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.data.generator import GeneratorConfig, RecipeDBGenerator
from repro.loadgen import build_workload
from repro.serving import PredictionService

MODEL = "logreg"
BENCH_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_batching.json"

#: Reports accumulated by the tests and emitted as BENCH_batching.json.
RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def batching_corpus():
    return RecipeDBGenerator(GeneratorConfig(scale=0.008, seed=BENCH_SEED)).generate()


@pytest.fixture(scope="module")
def export_dir(batching_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("batching-bundles")
    config = ExperimentConfig(
        models=(MODEL,),
        seed=BENCH_SEED,
        statistical_kwargs={MODEL: {"max_iter": 60}},
        export_dir=str(path),
    )
    ExperimentRunner(config, corpus=batching_corpus).run()
    return path


@pytest.fixture(scope="module")
def sequence_pool(batching_corpus):
    # Distinct payloads only: duplicates in the pool would smuggle extra
    # coalescing opportunities into the "uniform" workloads.
    distinct = dict.fromkeys(
        tuple(recipe.sequence) for recipe in batching_corpus.recipes
    )
    pool = list(distinct)
    assert len(pool) >= 96
    return pool


def _pin_per_row_cost(service: PredictionService, per_row: float) -> None:
    """Pin every deployed model's pass cost to *per_row* seconds per row.

    Both serving paths funnel through ``predict_proba_features``, so the
    sleep scales with the rows actually predicted: batching N rows costs
    the same as N one-row passes (batch shape cannot fake a win), while
    coalescing — which genuinely removes rows — shows up directly.
    """
    for model in service._models.values():
        original = model.predict_proba_features

        def slowed(features, *, _original=original):
            time.sleep(per_row * features.shape[0])
            return _original(features)

        model.predict_proba_features = slowed


def _open_loop(service: PredictionService, workload) -> dict:
    """Replay *workload* against the service, one thread per request."""
    latencies: list[float | None] = [None] * len(workload)
    errors: list[Exception] = []
    lock = threading.Lock()

    def fire(index: int, sequence) -> None:
        begin = time.perf_counter()
        try:
            service.predict_proba(MODEL, sequence)
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            with lock:
                errors.append(exc)
            return
        latencies[index] = time.perf_counter() - begin

    threads = []
    start = time.perf_counter()
    for index, request in enumerate(workload.requests):
        delay = start + request.arrival - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        thread = threading.Thread(target=fire, args=(index, request.sequence))
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(timeout=60.0)
    wall = time.perf_counter() - start
    assert not errors, errors[:3]
    samples_ms = np.array([value for value in latencies if value is not None]) * 1000.0
    assert samples_ms.size == len(workload)
    return {
        "requests": len(workload),
        "wall_s": wall,
        "throughput_rps": len(workload) / wall,
        "p50_ms": float(np.percentile(samples_ms, 50)),
        "p99_ms": float(np.percentile(samples_ms, 99)),
        "mean_ms": float(samples_ms.mean()),
    }


def _warmed(service: PredictionService, pool, per_row: float) -> PredictionService:
    service.warm(pool)  # featurization artifacts are hot before timing
    service.predict(MODEL, pool[0])  # worker thread is up
    _pin_per_row_cost(service, per_row)
    return service


# Hot-key Zipf open loop: 16 payloads, s=2.0 puts ~2/3 of the traffic on
# the hottest one, so bursts stack many concurrent identical requests.
COALESCE_POOL = 16
COALESCE_REQUESTS = 300
COALESCE_RATE = 1500.0
COALESCE_PER_ROW = 0.003


@pytest.mark.quick
def test_perf_coalescing_doubles_hot_key_throughput(export_dir, sequence_pool):
    workload = build_workload(
        sequence_pool[:COALESCE_POOL],
        n_requests=COALESCE_REQUESTS,
        seed=BENCH_SEED,
        rate=COALESCE_RATE,
        arrival="burst",
        sequence_distribution="zipf",
        zipf_s=2.0,
    )
    reports = {}
    for coalesce in (False, True):
        # The result cache is off so every request does real work — what is
        # measured is in-flight dedup, not memoisation of finished results.
        with PredictionService.from_export_dir(export_dir, cache_size=0, coalesce=coalesce) as service:
            _warmed(service, sequence_pool[:COALESCE_POOL], COALESCE_PER_ROW)
            report = _open_loop(service, workload)
            stats = service.stats()
            report["coalesced_hits"] = stats["coalesced_hits"]
            report["batched_requests"] = stats["batched_requests"]
            reports["coalesced" if coalesce else "uncoalesced"] = report

    assert reports["uncoalesced"]["coalesced_hits"] == 0
    assert reports["coalesced"]["coalesced_hits"] > 0
    speedup = (
        reports["coalesced"]["throughput_rps"]
        / reports["uncoalesced"]["throughput_rps"]
    )
    assert speedup >= 2.0, (
        f"coalescing only reached {speedup:.2f}x throughput on the hot-key "
        f"Zipf open loop ({reports['coalesced']['throughput_rps']:.0f} vs "
        f"{reports['uncoalesced']['throughput_rps']:.0f} rps)"
    )
    RESULTS["coalescing"] = {
        "pool": COALESCE_POOL,
        "zipf_s": 2.0,
        "rate_rps": COALESCE_RATE,
        "per_row_s": COALESCE_PER_ROW,
        "speedup": speedup,
        **{key: reports[key] for key in ("uncoalesced", "coalesced")},
    }


# Light load: lone requests trickle in far apart, each one a batch of one.
LOW_LOAD_REQUESTS = 80
LOW_LOAD_RATE = 80.0
LOW_LOAD_PER_ROW = 0.0005


@pytest.mark.quick
def test_perf_natural_batching_at_low_load(export_dir, sequence_pool):
    workload = build_workload(
        sequence_pool[:64],
        n_requests=LOW_LOAD_REQUESTS,
        seed=BENCH_SEED,
        rate=LOW_LOAD_RATE,
    )
    with PredictionService.from_export_dir(export_dir, cache_size=0) as service:
        _warmed(service, sequence_pool[:64], LOW_LOAD_PER_ROW)
        report = _open_loop(service, workload)
    RESULTS["low_load"] = {
        "rate_rps": LOW_LOAD_RATE,
        "per_row_s": LOW_LOAD_PER_ROW,
        **report,
    }


# Overload: offered rate well above worker capacity, so the queue fills
# while each batch runs and flushes carry many requests.
OVERLOAD_REQUESTS = 300
OVERLOAD_RATE = 1500.0
OVERLOAD_PER_ROW = 0.002


@pytest.mark.quick
def test_perf_natural_batching_under_overload(export_dir, sequence_pool):
    workload = build_workload(
        sequence_pool[:64],
        n_requests=OVERLOAD_REQUESTS,
        seed=BENCH_SEED,
        rate=OVERLOAD_RATE,
        arrival="burst",
    )
    # Coalescing off: the uniform pool still repeats payloads under backlog,
    # and in-flight dedup would shrink the batches being measured.
    with PredictionService.from_export_dir(export_dir, cache_size=0, coalesce=False) as service:
        _warmed(service, sequence_pool[:64], OVERLOAD_PER_ROW)
        report = _open_loop(service, workload)
        stats = service.stats()
    assert stats["mean_batch_size"] > 1.0, stats["mean_batch_size"]
    RESULTS["overload"] = {
        "rate_rps": OVERLOAD_RATE,
        "per_row_s": OVERLOAD_PER_ROW,
        "mean_batch_size": stats["mean_batch_size"],
        "largest_batch": stats["largest_batch"],
        **report,
    }


@pytest.mark.quick
def test_emit_bench_batching_artifact(export_dir, sequence_pool):
    """Write BENCH_batching.json — the batching/coalescing perf artifact."""
    # A tiny standalone measurement so the artifact carries a baseline even
    # when the other benchmarks are filtered out.
    with PredictionService.from_export_dir(export_dir) as service:
        service.predict(MODEL, sequence_pool[0])
        stats = service.stats()
    RESULTS["single_request_smoke"] = {
        "batches_flushed": stats["batched_requests"],
        "queue_depth_p99": stats["stages"]["queue_depth"]["p99"],
        "batch_size_max": stats["stages"]["batch_size"]["max"],
    }

    artifact = {
        "benchmark": "batching",
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
    assert "single_request_smoke" in emitted
